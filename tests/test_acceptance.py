"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.  Expensive 12-qubit objects (the 4x3 strip snakes, the
reconstruction, the oracle global state) are built once and shared.
"""

import math
import time

import numpy as np
import pytest

from snakeweaver.ci_calculus import CIStatement, derivation_closure, derive
from snakeweaver.cli import main as cli_main
from snakeweaver.lattice import as_region, site_path
from snakeweaver.marginal_store import (
    Window,
    c_m_conditions,
    check_local_consistency,
    check_markov_conditions,
)
from snakeweaver.merge import is_markov_via_recovery, merging_lemma_combine
from snakeweaver.operator_core import (
    DensityOperator,
    certified_trace_distance,
    cmi,
    entropy,
    med,
    partial_trace,
    trace_distance,
)
from snakeweaver.oracles import (
    brute_force_maxent,
    depolarize_marginal,
    gen_qmc_triple,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
    random_state,
    repetition_rows,
    tripartite_regions,
)
from snakeweaver.reconstruct import (
    max_entropy_formula,
    reconstruct_global,
    uniqueness_certificate,
    vertical_markov_check,
)
from snakeweaver.snakes import SnakeSpec, build_snake, level_drop_check

SEED_43 = 5


def clocks():
    """Process CPU time and wall time, in seconds."""
    return time.process_time(), time.monotonic()


def since(t0):
    return tuple(now - then for now, then in zip(clocks(), t0))


def report(num, ok, elapsed, budget, detail):
    """Print the criterion's line and assert its answer and its budget.

    ``elapsed`` is ``since(t0)``.  The budget holds the process CPU time, which
    the code sets; the wall time, which the host's load also sets, is printed.
    """
    cpu, wall = elapsed
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status} [{cpu:.1f}s CPU, {wall:.1f}s wall / budget {budget:.0f}s CPU] {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert cpu <= budget, f"criterion {num} exceeded its CPU-time budget"


@pytest.fixture(scope="module")
def src43():
    return gen_row_markov(Window(4, 3), seed=SEED_43)


@pytest.fixture(scope="module")
def ms43(src43):
    return src43.marginal_set()


@pytest.fixture(scope="module")
def recon43(ms43):
    return reconstruct_global(ms43)


@pytest.fixture(scope="module")
def oracle43(src43):
    return src43.global_state()


def test_criterion_1_markov_verification(tmp_path):
    t0 = clocks()
    worst_cmi = worst_cons = 0.0
    for orientation in ("rows", "columns"):
        for seed in range(20):
            ms = gen_row_markov(Window(4, 4), seed=seed, orientation=orientation).marginal_set()
            markov = check_markov_conditions(ms, tol=1e-9)
            cons = check_local_consistency(ms, tol=1e-10)
            assert markov.passed and cons.passed, (orientation, seed)
            worst_cmi = max(worst_cmi, markov.max_residual())
            worst_cons = max(worst_cons, cons.max_residual())
    # the same data through the full file interface, one file per orientation
    for orientation, name in (("rows", "row.npz"), ("columns", "col.npz")):
        path = tmp_path / name
        gen_row_markov(Window(4, 4), seed=0, orientation=orientation).marginal_set().save(path)
        code = cli_main(["check", str(path), "--tol-cmi", "1e-9", "--tol-consistency", "1e-10"])
        assert code == 0, f"cmd_check failed on {name}"
    elapsed = since(t0)
    report(
        1,
        worst_cmi <= 1e-9 and worst_cons <= 1e-10,
        elapsed,
        60,
        f"40 windows: max CMI {worst_cmi:.2e} (<=1e-9), max consistency {worst_cons:.2e} (<=1e-10)",
    )


def test_criterion_2_petz_recovery_iff():
    t0 = clocks()
    shapes = [
        (2, 4, 2, [(1, 2), (2, 1)]),
        (2, 4, 2, [(2, 2)]),
        (2, 4, 2, [(1, 1), (1, 2)]),
        (2, 2, 2, [(1, 2)]),
        (2, 2, 2, [(2, 1)]),
    ]
    worst_markov = 0.0
    for i in range(100):
        dA, dB, dC, blocks = shapes[i % len(shapes)]
        op = gen_qmc_triple(dA, dB, dC, blocks, seed=i)
        a, b, c = tripartite_regions(dA, dB, dC)
        _, residual, _ = is_markov_via_recovery(op, a, b, c, tol=1e-8)
        worst_markov = max(worst_markov, residual)
    rng = np.random.default_rng(202)
    sites = as_region([(i, 0) for i in range(3)])
    a, b, c = [[s] for s in sites]
    best_generic = 1.0
    accepted = 0
    while accepted < 100:
        op = random_state(sites, rng)
        if cmi(op, a, b, c) < 0.01:
            continue
        _, residual, _ = is_markov_via_recovery(op, a, b, c, tol=1e-8)
        best_generic = min(best_generic, residual)
        accepted += 1
    elapsed = since(t0)
    report(
        2,
        worst_markov <= 1e-8 and best_generic >= 1e-3,
        elapsed,
        60,
        f"100 Markov samples: max residual {worst_markov:.2e} (<=1e-8); "
        f"100 generic: min residual {best_generic:.2e} (>=1e-3)",
    )


def test_criterion_3_merging_lemma():
    t0 = clocks()
    sites = [(i, 0) for i in range(4)]
    worst_marg = worst_cmi = 0.0
    for seed in range(50):
        st = gen_row_markov(Window(4, 1), seed=seed).global_state()
        rho = partial_trace(st, sites[:3])
        sigma = partial_trace(st, sites[1:])
        tau = merging_lemma_combine(rho, sigma, [sites[1]], [sites[2]], tol=1e-8)
        worst_marg = max(
            worst_marg,
            trace_distance(partial_trace(tau, sites[:3]), rho),
            trace_distance(partial_trace(tau, sites[1:]), sigma),
        )
        worst_cmi = max(
            worst_cmi,
            cmi(tau, [sites[0]], [sites[1]], sites[2:]),
            cmi(tau, sites[:2], [sites[2]], [sites[3]]),
        )
    elapsed = since(t0)
    report(
        3,
        worst_marg <= 1e-8 and worst_cmi <= 1e-7,
        elapsed,
        60,
        f"50 pairs: max marginal residual {worst_marg:.2e} (<=1e-8), "
        f"max output CMI {worst_cmi:.2e} (<=1e-7)",
    )


def test_criterion_4_recursion_propositions(ms43):
    t0 = clocks()
    v, u = (0, 0), (3, 0)
    worst = {}
    for level in (2, 3):
        plain = build_snake(ms43, SnakeSpec(level, v, u))
        for variant in ("flat_up", "flat_down", "hooked_up", "hooked_down"):
            alt = build_snake(ms43, SnakeSpec(level, v, u, variant=variant))
            worst[f"L{level}/{variant}"], _ = certified_trace_distance(plain, alt, 1e-7)
            del alt
    drops = level_drop_check(ms43, (0, 1), (3, 1), tol=1e-7)
    worst_var = max(worst.values())
    elapsed = since(t0)
    report(
        4,
        worst_var <= 1e-7 and drops.passed,
        elapsed,
        600,
        f"variant distances max {worst_var:.2e} (<=1e-7) over {sorted(worst)}; "
        f"level-2->1 drops max {drops.max_residual():.2e} (<=1e-7)",
    )


def test_criterion_5_reconstruction_and_uniqueness(ms43, recon43, oracle43):
    t0 = clocks()
    fidelity_ok = recon43.marginal_report.passed
    worst_fid = recon43.marginal_report.max_residual()
    cert = uniqueness_certificate(
        recon43.state, oracle43, site_path(oracle43.region), tol=1e-7
    )
    bound_records = [r for r in cert.records if r.kind == "distance_bound"]
    # the certificate's record carries certified_trace_distance of recon and oracle at the record's bound: the
    # Frobenius upper bound on their trace distance when it passes, else the exact distance
    dist = bound_records[0].residual if bound_records else math.inf
    elapsed = since(t0)
    report(
        5,
        fidelity_ok and dist <= 1e-6 and cert.passed and len(bound_records) == 1,
        elapsed,
        300,
        f"marginal fidelity max {worst_fid:.2e} (<=1e-6); distance to oracle "
        f"{dist:.2e} (<=1e-6); uniqueness hypotheses verified, bound "
        f"{bound_records[0].tol if bound_records else float('nan'):.2e}",
    )


def test_criterion_5b_vertical_markov(ms43):
    # the vertical lemma behind the reconstruction, checked on its own slab
    t0 = clocks()
    rep = vertical_markov_check(ms43, tol=1e-8)
    elapsed = since(t0)
    report(
        "5b",
        rep.passed,
        elapsed,
        300,
        f"vertical CMI max {rep.max_residual():.2e} (<=1e-8) over {len(rep.records)} slabs",
    )


def test_criterion_6_max_entropy_value(ms43, recon43, src43):
    t0 = clocks()
    formula = max_entropy_formula(ms43)
    # the dense spectral entropy of the reconstruction, not its chain-rule value
    recon_gap = abs(entropy(recon43.state) - formula)

    chain_src = gen_row_markov(Window(4, 1), seed=9)
    chain_sites = chain_src.window.sites()
    pairs = [as_region(chain_sites[i:i + 2]) for i in range(3)]
    chain_sol = brute_force_maxent(
        [(p, chain_src.marginal(p)) for p in pairs], chain_sites, tol=1e-8
    )
    chain_gap = abs(chain_sol.value - max_entropy_formula(chain_src, chain_src.window))

    w23 = Window(2, 3)
    src23 = gen_row_markov(w23, seed=12)
    from snakeweaver.lattice import cluster_region

    cons23 = [
        (cluster_region(a, 2, 2), src23.marginal(cluster_region(a, 2, 2)))
        for a in ((1, 0), (1, 1))
    ]
    sol23 = brute_force_maxent(cons23, w23.sites(), tol=1e-8)
    gap23 = abs(sol23.value - max_entropy_formula(src23, w23))

    st = repetition_rows(Window(8, 8))
    stab_formula = max_entropy_formula(st, Window(8, 8))
    stab_global = st.region_entropy(st.sites)
    exact_ok = (
        stab_formula == 8 and stab_global == 8 and isinstance(stab_formula, int)
    )
    elapsed = since(t0)
    report(
        6,
        recon_gap <= 1e-6 and chain_gap <= 1e-4 and gap23 <= 1e-3 and exact_ok,
        elapsed,
        600,
        f"|S(recon)-formula| {recon_gap:.2e} (<=1e-6); 4-chain brute-force gap "
        f"{chain_gap:.2e} (<=1e-4); 2x3 gap {gap23:.2e} (<=1e-3); 8x8 repetition "
        f"formula = {stab_formula} bits exactly",
    )


def test_criterion_7_ci_soundness_and_snake_derivation():
    t0 = clocks()
    anchor = (2, 0)
    axioms = [CIStatement.from_condition(c) for c in c_m_conditions(anchor)]
    closure = derivation_closure(axioms, max_depth=8)

    worst = 0.0
    n_states = 0
    for orientation in ("rows", "columns"):
        for seed in range(5):
            ms = gen_row_markov(Window(3, 3), seed=seed, orientation=orientation).marginal_set()
            marg = ms.marginals[anchor]
            for stmt in closure:
                worst = max(worst, abs(cmi(marg, stmt.A, stmt.B, stmt.C)))
            n_states += 1

    target = CIStatement(((2, 1),), ((1, 1),), ((0, 1),))
    assert target not in closure  # one cluster alone cannot reach it
    with_neighbor = axioms + [
        CIStatement.from_condition(c) for c in c_m_conditions((1, -1))
    ]
    trace = derive(with_neighbor, target, max_depth=8)
    derivable = trace is not None and [s.move for s in trace] == ["mono", "revmono", "mono"]
    elapsed = since(t0)
    report(
        7,
        worst <= 1e-8 and derivable,
        elapsed,
        120,
        f"{len(closure)} derived statements hold on {n_states} oracle states "
        f"(max CMI {worst:.2e} <= 1e-8); level-1 snake statement derived by the "
        f"three-move chain using the down-left neighbor's rotated first condition",
    )


def test_criterion_8_negative_controls(tmp_path):
    t0 = clocks()
    ms, _ = ghz_row_source(Window(3, 3))
    rep = check_markov_conditions(ms, tol=1e-8)
    ghz_worst = max((r.residual for r in rep.failures()), default=0.0)
    path = tmp_path / "ghz.npz"
    ms.save(path)
    ghz_exit = cli_main(["check", str(path)])

    clean = gen_repetition_rows(Window(4, 4)).marginal_set()
    bad = depolarize_marginal(clean, (2, 0), 1e-3)
    cons = check_local_consistency(bad, tol=1e-10)
    failing = {r.check_id for r in cons.failures()}
    localized = failing == {"consistency:2,0|3,0", "consistency:2,0|2,1"}
    elapsed = since(t0)
    report(
        8,
        (not rep.passed) and ghz_worst >= 0.5 and ghz_exit == 1 and localized,
        elapsed,
        60,
        f"GHZ row: worst residual {ghz_worst:.3f} bits (>=0.5), cmd_check exit "
        f"{ghz_exit}; depolarized marginal localized to {sorted(failing)}",
    )


def test_criterion_9_invariant_suite():
    t0 = clocks()
    rng = np.random.default_rng(909)
    sites4 = as_region([(i, 0) for i in range(4)])
    sites3 = sites4[:3]
    A, B, C, D = [[s] for s in sites4]

    ssa_min = 0.0
    mono_worst = 0.0
    for _ in range(200):
        op = random_state(sites3, rng)
        ssa_min = min(ssa_min, cmi(op, A, B, C))
    for _ in range(200):
        op = random_state(sites4, rng)
        i_acd_b = cmi(op, A, B, C + D)
        mono_worst = max(
            mono_worst,
            cmi(op, A, B, C) - i_acd_b,
            cmi(op, A, B + D, C) - i_acd_b,
        )

    jensen_worst = 0.0
    for _ in range(200):
        a, b = random_state(sites3, rng), random_state(sites3, rng)
        mix = DensityOperator(sites3, 0.5 * (a.matrix + b.matrix))
        gap = math.log(2) * (entropy(mix) - 0.5 * (entropy(a) + entropy(b)))
        jensen_worst = max(jensen_worst, (2 * trace_distance(a, b)) ** 2 / 8 - gap)

    box = as_region([(x, y) for x in range(2) for y in range(2)])
    med_worst = 0.0
    for _ in range(200):
        op = random_state(box, rng)
        med_worst = max(med_worst, entropy(op) - med(op, site_path(box)))

    elapsed = since(t0)
    ok = (
        ssa_min >= -1e-9
        and mono_worst <= 1e-9
        and jensen_worst <= 1e-9
        and med_worst <= 1e-9
    )
    report(
        9,
        ok,
        elapsed,
        300,
        f"200x4 randomized instances: SSA min {ssa_min:.1e}, monotonicity worst "
        f"{mono_worst:.1e}, Jensen worst {jensen_worst:.1e}, S-MED worst {med_worst:.1e}",
    )
