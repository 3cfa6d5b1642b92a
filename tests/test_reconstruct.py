"""Reconstruction, the closed-form maximum-entropy value, vertical checks, uniqueness."""

import tracemalloc
import warnings

import numpy as np
import pytest

from snakeweaver.lattice import GeometryError, as_region, cluster_region, region_union, site_path
from snakeweaver.marginal_store import MarginalSet, Window, check_local_consistency, check_markov_conditions
from snakeweaver.merge import right_merge, right_merge_info, right_merge_marginals
from snakeweaver.operator_core import (
    EIG_CLIP_REL,
    TRACE_TOL,
    DensityOperator,
    DimensionGuardError,
    certified_trace_distance,
    cmi,
    entropy,
    partial_trace,
    trace_distance,
)
from snakeweaver.oracles import (
    ClassicalChain,
    RowMarkovSource,
    gen_product,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
    ghz_state,
    repetition_rows,
)
from snakeweaver.reconstruct import (
    max_entropy_formula,
    max_entropy_terms,
    reconstruct_global,
    row_major_med,
    uniqueness_certificate,
    vertical_markov_check,
)
from snakeweaver.snakes import SnakeSpec, build_snake


def _replay_steps(ms):
    """Reference for reconstruct_global: each vertical merge's chain-rule bound and exact CMI, and the state."""
    w = ms.window
    rows = [as_region([(x, y) for x in range(w.width)]) for y in range(w.height)]
    state = build_snake(ms, SnakeSpec(2, (0, 0), (w.width - 1, 0)))
    steps = []
    for y in range(1, w.height - 1):
        tau = right_merge(state, build_snake(ms, SnakeSpec(2, (0, y), (w.width - 1, y))))
        a = region_union(*rows[:y])
        bound = cmi(state, a, (), rows[y]) - cmi(tau, a, (), rows[y])
        steps.append((bound, cmi(tau, a, rows[y], rows[y + 1])))
        state = tau
    return steps, state


def test_reconstruct_product_marginals():
    src = gen_product(Window(4, 3), seed=1)
    ms = src.marginal_set()
    assert check_local_consistency(ms).passed
    assert check_markov_conditions(ms).passed
    res = reconstruct_global(ms)
    assert res.state._eigvals_cache is None  # no spectrum of the whole window was taken
    assert res.marginal_report.passed
    assert certified_trace_distance(res.state, src.global_state(), 1e-10)[0] < 1e-10
    assert [s.method for s in res.steps] == ["bound"] and res.entropy_method == "chain"
    assert max(abs(s.residual) for s in res.steps) < 1e-12
    # the exact sum of site entropies; the dense spectrum matches it too, now that its smallest
    # eigenvalues (down to 2e-13 of the largest) count
    assert res.entropy == pytest.approx(src.region_entropy(ms.window.sites()), abs=1e-12)


def test_reconstruct_real_orthogonal_row_chains():
    src = gen_row_markov(Window(4, 3), seed=1, unitaries="real")
    ms = src.marginal_set()
    assert all(not m.matrix.imag.any() for m in ms.marginals.values())
    assert check_local_consistency(ms, tol=1e-10).passed
    assert check_markov_conditions(ms, tol=1e-10).passed
    res = reconstruct_global(ms)
    assert res.marginal_report.passed
    # H(x0) + sum_c H(x_{c+1} | x_c) of each row's chain, from its initial law and transition matrices
    exact = 0.0
    for chain in src.chains:
        p = chain.initial
        exact -= (p * np.log2(p)).sum()
        for t in chain.transitions:
            exact -= (p[:, None] * t * np.log2(t)).sum()
            p = p @ t
    assert res.entropy == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("height", [3, 4])
@pytest.mark.parametrize("orientation,seed", [("rows", 4), ("columns", 5)])
def test_chain_entropy_matches_the_dense_spectrum(height, orientation, seed):
    ms = gen_row_markov(Window(3, height), seed=seed, orientation=orientation).marginal_set()
    res = reconstruct_global(ms)
    steps, dense = _replay_steps(ms)
    assert np.array_equal(res.state.matrix, dense.matrix)
    assert res.entropy_method == "chain"
    assert res.entropy == pytest.approx(entropy(dense), abs=1e-9)
    assert len(res.steps) == len(steps) == height - 2
    for step, (bound, exact) in zip(res.steps, steps):
        assert step.method == "bound"
        # both are rounding of an exact zero, at the scale of a 64- to 512-dim spectrum
        assert step.residual == pytest.approx(bound, abs=1e-13)
        assert bound >= exact - 1e-12


def test_the_dense_state_is_formed_once_and_only_when_read(monkeypatch):
    full = []

    def counting(sigma, rho):
        out = right_merge_info(sigma, rho)
        full.append(out[0].dim == 2 ** 12)
        return out

    monkeypatch.setattr("snakeweaver.reconstruct.right_merge_info", counting)
    res = reconstruct_global(gen_row_markov(Window(4, 3), seed=1).marginal_set())
    assert res.entropy_method == "chain" and res.marginal_report.passed
    assert not any(full)
    assert res.state is res.state
    assert full == [True]
    assert [step.shared_row for step in res.steps] == [1]


def test_a_random_pure_state_takes_the_exact_path():
    window = Window(3, 3)
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    psi /= np.linalg.norm(psi)
    ms = MarginalSet.from_global(DensityOperator(window.sites(), np.outer(psi, psi.conj())), window)
    res = reconstruct_global(ms)
    [(bound, exact)], dense = _replay_steps(ms)
    assert 0.1 < bound < 0.3 and 0.05 < exact < 0.1  # the bound holds but is far above tol
    [step] = res.steps
    assert step[:3] == (1, exact, "exact")
    assert res.entropy_method == "exact"
    assert res.entropy == entropy(dense)
    # rho_B has full rank and the weight test passes, yet Tr_C of the Petz map is not the identity on B: the merge
    # moves sigma_AB, so neither certifies the step without the bound over the whole of A
    sigma, strip = res.last_merge
    overlap = as_region([(x, step.shared_row) for x in range(window.width)])
    w_b = np.linalg.eigvalsh(partial_trace(strip, overlap).matrix)
    assert w_b[0] > EIG_CLIP_REL * w_b[-1]
    assert abs(step.trace_before_renorm - 1.0) <= TRACE_TOL and step.negative_weight <= TRACE_TOL
    [(tau_ab, _)] = right_merge_marginals(sigma, strip, [sigma.region])
    assert trace_distance(tau_ab, sigma) > 0.05


def test_reconstruct_single_cluster_window():
    src = gen_row_markov(Window(3, 3), seed=2)
    ms = src.marginal_set()
    res = reconstruct_global(ms)
    assert trace_distance(res.state, ms.marginals[(2, 0)]) < 1e-9
    assert res.entropy == pytest.approx(max_entropy_formula(ms), abs=1e-8)


def test_reconstruct_leaves_contaminated_input_to_the_checks():
    ms, _ = ghz_row_source(Window(3, 3))
    assert not check_markov_conditions(ms).passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = reconstruct_global(ms)  # the checks are the caller's; none is repeated or warned about
    assert not res.marginal_report.passed  # GHZ coherences cannot be rebuilt


def test_fidelity_records_hold_a_certified_bound_on_the_trace_distance():
    ms, tol = gen_row_markov(Window(4, 3), seed=1).marginal_set(), 1e-6
    res = reconstruct_global(ms, tol=tol)
    clusters = [cluster_region(anchor, 3, 3) for anchor in ms.anchors()]
    merged = [out for out, _ in right_merge_marginals(*res.last_merge, clusters)]
    records = res.marginal_report.records
    assert len(records) == len(merged) == 2
    for rec, anchor, marginal in zip(records, ms.anchors(), merged):
        assert rec.detail == {"anchor": list(anchor), "method": "frobenius-bound"}
        assert trace_distance(marginal, ms.marginals[anchor]) <= rec.residual <= tol


def test_reconstruct_holds_one_cluster_reduction_at_a_time():
    # the last merge step streams its reductions: each cluster's fidelity is recorded, and the reduction dropped,
    # before the next one is made, so the peak stays under 3.5 cluster outputs (5.1 when all were held at once)
    ms, tol = gen_row_markov(Window(4, 3), seed=1).marginal_set(), 1e-6
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = reconstruct_global(ms, tol=tol)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    clusters = [cluster_region(anchor, 3, 3) for anchor in ms.anchors()]
    merged = [out for out, _ in right_merge_marginals(*res.last_merge, clusters)]
    assert peak <= 3.5 * merged[0].matrix.nbytes
    records = res.marginal_report.records
    assert len(records) == len(merged) == 2
    for rec, anchor, marginal in zip(records, ms.anchors(), merged):
        assert rec.residual == certified_trace_distance(marginal, ms.marginals[anchor], tol)[0]


def test_a_fidelity_record_the_bound_cannot_certify_holds_the_exact_distance():
    ms, _ = ghz_row_source(Window(3, 3))
    res = reconstruct_global(ms)
    [rec] = res.marginal_report.records
    assert not rec.passed and rec.detail["method"] == "exact"
    assert rec.residual == trace_distance(res.state, ms.marginals[(2, 0)])


def test_reconstruct_rejects_small_windows_and_guard():
    ms = gen_row_markov(Window(5, 3), seed=3).marginal_set()
    with pytest.raises(DimensionGuardError):  # 15 qubits: dimension 2^15 > the 2^14 guard
        reconstruct_global(ms)


@pytest.mark.parametrize("orientation,seed", [("rows", 4), ("columns", 5)])
def test_vertical_markov_check(orientation, seed):
    ms = gen_row_markov(Window(3, 4), seed=seed, orientation=orientation).marginal_set()
    rep = vertical_markov_check(ms, tol=1e-8)
    assert rep.passed
    assert len(rep.records) == 2  # two three-row slabs in a 3x4 window
    assert rep.max_residual() <= 1e-10


def test_formula_product_cases():
    w = Window(5, 4)
    mixed = gen_product(w, site_states={v: np.eye(2) / 2 for v in w.sites()})
    assert max_entropy_formula(mixed, w) == pytest.approx(20.0, abs=1e-10)
    pure = gen_product(w, site_states={v: np.diag([1.0, 0.0]) for v in w.sites()})
    assert max_entropy_formula(pure, w) == pytest.approx(0.0, abs=1e-10)
    generic = gen_product(w, seed=6)
    expect = generic.region_entropy(w.sites())
    assert max_entropy_formula(generic, w) == pytest.approx(expect, abs=1e-9)


def test_formula_repetition_rows_exact_integers():
    st = repetition_rows(Window(4, 3))
    value = max_entropy_formula(st, Window(4, 3))
    assert value == 3 and isinstance(value, int)
    terms = max_entropy_terms(st, Window(4, 3))
    assert all(isinstance(t, int) for _, t in terms)
    assert sum(t for _, t in terms) == 3


def test_formula_against_row_med_and_oracle_entropy():
    for orientation, seed in (("rows", 7), ("columns", 8)):
        w = Window(4, 4)
        src = gen_row_markov(w, seed=seed, orientation=orientation)
        f = max_entropy_formula(src, w)
        m = row_major_med(src, w)
        assert m >= f - 1e-9
        assert abs(m - f) <= 1e-6
        # maximality: no state with these marginals beats the formula
        assert f >= src.region_entropy(w.sites()) - 1e-9


def test_formula_from_marginal_set_matches_source():
    w = Window(4, 3)
    src = gen_row_markov(w, seed=9)
    ms = src.marginal_set()
    assert max_entropy_formula(ms) == pytest.approx(max_entropy_formula(src, w), abs=1e-9)


def test_uniqueness_certificate_identical_states():
    src = gen_row_markov(Window(4, 1), seed=10)
    op = src.global_state()
    rep = uniqueness_certificate(op, op, site_path(op.region), tol=1e-9)
    assert rep.passed
    bound = [r for r in rep.records if r.kind == "distance_bound"]
    assert len(bound) == 1
    assert bound[0].residual == 0.0


def test_uniqueness_certificate_hypothesis_failure():
    # repetition chain vs coherent GHZ: same pair marginals along the path, but
    # the GHZ entropy (0) sits below its decomposition (1), so no bound is claimed
    rep_src = RowMarkovSource(
        Window(4, 1), unitaries="none", chains=[ClassicalChain.repetition(4)]
    )
    chain = rep_src.global_state()
    ghz = ghz_state(chain.region)
    rep = uniqueness_certificate(chain, ghz, site_path(chain.region), tol=1e-7)
    assert not rep.passed
    assert all(r.passed for r in rep.records if r.kind == "marginal_match")
    med_fails = [r for r in rep.records if r.kind == "med_equality" and not r.passed]
    assert len(med_fails) == 1
    assert not any(r.kind == "distance_bound" for r in rep.records)


def test_uniqueness_certificate_region_mismatch():
    a = ghz_state(as_region([(0, 0), (1, 0)]))
    b = ghz_state(as_region([(0, 0), (2, 0)]))
    with pytest.raises(GeometryError):
        uniqueness_certificate(a, b, site_path(a.region))


def test_row_med_equals_formula_for_repetition_rows():
    src = gen_repetition_rows(Window(4, 3))
    w = Window(4, 3)
    assert row_major_med(src, w) == pytest.approx(3.0, abs=1e-10)
    assert max_entropy_formula(src, w) == pytest.approx(3.0, abs=1e-10)
