"""Generator and verifier oracles: sources, stabilizer engine, QMC triples, max-entropy solver."""

import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from snakeweaver.lattice import GeometryError, as_region, cluster_region, site_path
from snakeweaver.marginal_store import Window, check_local_consistency, check_markov_conditions
from snakeweaver.merge import is_markov_via_recovery
from snakeweaver.operator_core import (
    StateError,
    apply_on_sites,
    cmi,
    entropy,
    med,
    partial_trace,
    product_operator,
    trace_distance,
)
from snakeweaver.oracles import (
    ClassicalChain,
    MaxEntConvergenceError,
    RowMarkovSource,
    StabilizerState,
    brute_force_maxent,
    depolarize_marginal,
    gen_product,
    gen_qmc_triple,
    gen_repetition_rows,
    gen_row_markov,
    ghz_stabilizer,
    ghz_row_source,
    gf2_rank,
    random_state,
    repetition_rows,
    tripartite_regions,
)


def test_classical_chain_marginals_are_consistent():
    chain = ClassicalChain.random(5, np.random.default_rng(0))
    joint = chain.joint(0, 4)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    direct = chain.marginal([1, 3])
    from_joint = joint.sum(axis=(0, 2, 4))
    assert np.allclose(direct, from_joint)


def test_row_markov_sources_pass_checks():
    for orientation in ("rows", "columns"):
        src = gen_row_markov(Window(4, 4), seed=1, orientation=orientation)
        ms = src.marginal_set()
        assert check_markov_conditions(ms, tol=1e-9).passed
        assert check_local_consistency(ms, tol=1e-10).passed


def test_row_markov_marginal_matches_global_reduction():
    src = gen_row_markov(Window(3, 3), seed=2)
    state = src.global_state()
    for region in (((0, 0), (1, 0)), ((1, 1),), ((0, 0), (2, 2))):
        region = as_region(region)
        assert trace_distance(partial_trace(state, region), src.marginal(region)) < 1e-12
        assert src.region_entropy(region) == pytest.approx(
            entropy(partial_trace(state, region)), abs=1e-9
        )


def test_repetition_rows_entropy_per_row():
    src = gen_repetition_rows(Window(4, 3))
    row = as_region([(x, 0) for x in range(4)])
    assert src.region_entropy(row) == pytest.approx(1.0, abs=1e-12)
    assert src.region_entropy(src.window.sites()) == pytest.approx(3.0, abs=1e-12)


def test_uniform_independent_transitions_give_product():
    flat = np.full((2, 2), 0.5)
    chains = [ClassicalChain(np.array([0.5, 0.5]), [flat.copy() for _ in range(2)]) for _ in range(2)]
    src = RowMarkovSource(Window(3, 2), unitaries="none", chains=chains)
    state = src.global_state()
    singles = [partial_trace(state, [v]) for v in state.region]
    assert trace_distance(state, product_operator(singles)) < 1e-12


def _conjugate_sites_on_views(mat, region, unitaries):
    """The leg-by-leg conjugation on transposed views, with a copy at each transpose: the reference arithmetic."""
    legs = [(i, unitaries[v]) for i, v in enumerate(region) if v in unitaries]
    for i, u in legs:
        mat = apply_on_sites(u, mat, [i])
    mat = mat.T
    for i, u in legs:
        mat = apply_on_sites(u.conj(), mat, [i])
    return mat.T


BUILDS = pytest.mark.parametrize("width,height,whole", [(4, 3, False), (3, 3, True)],
                                 ids=["4x3-cluster-marginal", "3x3-global-state"])


def _build(width, height, whole):
    """A seed-1 Haar row-Markov source, the region of one of its builds, and that build."""
    src = gen_row_markov(Window(width, height), seed=1)
    if whole:
        return src, src.window.sites(), src.global_state
    region = cluster_region(src.window.cluster_anchors()[-1], 3, 3)
    return src, region, lambda: src.marginal(region)


@BUILDS
def test_row_markov_builds_are_bitwise_the_view_conjugation_and_match_the_dense_product(width, height, whole):
    src, region, build = _build(width, height, whole)
    op = build()
    p = src.probability_tensor(region).reshape(-1)
    ref = np.ascontiguousarray(
        _conjugate_sites_on_views(np.diag(p).astype(complex), region, src.site_unitaries)
    )
    assert np.array_equal(op.matrix, ref)
    assert op.matrix.tobytes() == ref.tobytes()
    u = reduce(np.kron, [src.site_unitaries[v] for v in region])
    assert np.max(np.abs(op.matrix - (u * p) @ u.conj().T)) < 1e-14


@BUILDS
def test_row_markov_builds_hold_at_most_two_output_size_arrays(width, height, whole):
    build = _build(width, height, whole)[2]
    tracemalloc.start()
    try:
        op = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * op.matrix.nbytes  # four output-size arrays when the transposes copied


def test_product_source_basics():
    w = Window(4, 3)
    src = gen_product(w, seed=3)
    ms = src.marginal_set()
    assert check_markov_conditions(ms, tol=1e-12).passed
    assert check_local_consistency(ms, tol=1e-12).passed
    region = as_region([(0, 0), (2, 1)])
    assert src.region_entropy(region) == pytest.approx(
        entropy(src.marginal(region)), abs=1e-10
    )


def test_ghz_row_marginals_fail():
    ms, state = ghz_row_source(Window(3, 3))
    assert not check_markov_conditions(ms, tol=1e-8).passed
    assert entropy(state) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "window,anchor,eps,error",
    [
        (Window(4, 3), (0, 0), 1e-3, GeometryError),
        (Window(3, 3), (3, 0), 1e-3, GeometryError),
        (Window(3, 3), (2, 0), 2.0, ValueError),
        (Window(3, 3), (2, 0), -0.5, ValueError),
    ],
    ids=["a-site-not-an-anchor", "a-cluster-outside-the-window", "eps-above-1", "eps-below-0"],
)
def test_depolarize_marginal_rejects_bad_input(window, anchor, eps, error):
    ms = gen_row_markov(window).marginal_set()
    with pytest.raises(error) as exc:
        depolarize_marginal(ms, anchor, eps)
    assert ("cluster anchor" if error is GeometryError else "eps must lie in [0, 1]") in str(exc.value)


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_depolarize_marginal_accepts_the_ends_of_eps(eps):
    ms = depolarize_marginal(gen_row_markov(Window(3, 3)).marginal_set(), (2, 0), eps)
    assert check_local_consistency(ms).passed and check_markov_conditions(ms).passed


def test_gf2_rank():
    m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    assert gf2_rank(m) == 2  # third row is the sum of the first two
    assert gf2_rank(np.eye(4, dtype=np.uint8)) == 4


def test_stabilizer_validation():
    sites = as_region([(0, 0), (1, 0)])
    with pytest.raises(StateError):
        StabilizerState(sites, np.array([[1, 0, 0, 0], [0, 0, 1, 0]]))  # X1 vs Z1 anticommute
    with pytest.raises(StateError):
        StabilizerState(sites, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))  # dependent


def test_stabilizer_entropy_examples():
    st = repetition_rows(Window(4, 2))
    assert st.region_entropy(st.sites) == 2          # one bit per row
    assert st.region_entropy([(0, 0)]) == 1
    assert st.region_entropy([(0, 0), (1, 0)]) == 1  # same-row pair stays one bit
    assert st.region_entropy([(0, 0), (0, 1)]) == 2  # rows are independent
    pure = ghz_stabilizer([(i, 0) for i in range(4)])
    assert pure.region_entropy(pure.sites) == 0
    assert pure.region_entropy(pure.sites[:2]) == 1


def test_stabilizer_against_dense_on_all_regions():
    states = [
        repetition_rows(Window(3, 2)),
        ghz_stabilizer([(i, 0) for i in range(4)]),
        StabilizerState(as_region([(0, 0), (1, 0)]), np.zeros((0, 4), dtype=np.uint8)),
    ]
    for st in states:
        dense = st.to_dense()
        for k in range(1, st.n + 1):
            for sub in combinations(st.sites, k):
                exact = st.region_entropy(sub)
                approx = entropy(partial_trace(dense, sub))
                assert abs(exact - approx) < 1e-9


def test_qmc_triple_single_blocks_factorize():
    a, b, c = tripartite_regions(2, 2, 2)
    left = gen_qmc_triple(2, 2, 2, [(1, 2)], seed=1)   # bL = 1: rho_A (x) rho_BC
    assert trace_distance(
        left, product_operator([partial_trace(left, a), partial_trace(left, b + c)])
    ) < 1e-12
    right = gen_qmc_triple(2, 2, 2, [(2, 1)], seed=2)  # bR = 1: rho_AB (x) rho_C
    assert trace_distance(
        right, product_operator([partial_trace(right, a + b), partial_trace(right, c)])
    ) < 1e-12


def test_qmc_triple_two_blocks():
    op = gen_qmc_triple(2, 4, 2, [(1, 2), (2, 1)], seed=7)
    a, b, c = tripartite_regions(2, 4, 2)
    assert abs(cmi(op, a, b, c)) <= 1e-10
    ok, residual, _ = is_markov_via_recovery(op, a, b, c, tol=1e-9)
    assert ok and residual <= 1e-9


def test_qmc_triple_block_overflow():
    with pytest.raises(ValueError):
        gen_qmc_triple(2, 2, 2, [(2, 2)], seed=0)


def test_maxent_single_constraint_returns_it():
    region = as_region([(0, 0), (1, 0)])
    sigma = random_state(region, np.random.default_rng(1))
    sol = brute_force_maxent([(region, sigma)], region)
    assert abs(sol.value - entropy(sigma)) < 1e-8
    assert trace_distance(sol.state, sigma) < 1e-8
    assert sol.dual_residual <= 1e-9


def test_maxent_disjoint_sites_factorize():
    r1, r2 = as_region([(0, 0)]), as_region([(1, 0)])
    rng = np.random.default_rng(2)
    a, b = random_state(r1, rng), random_state(r2, rng)
    sol = brute_force_maxent([(r1, a), (r2, b)], as_region(r1 + r2))
    assert abs(sol.value - entropy(a) - entropy(b)) < 1e-8
    assert trace_distance(sol.state, product_operator([a, b])) < 1e-7


def test_maxent_chain_matches_med():
    src = gen_row_markov(Window(4, 1), seed=9)
    sites = src.window.sites()
    pairs = [as_region(sites[i:i + 2]) for i in range(3)]
    sol = brute_force_maxent([(p, src.marginal(p)) for p in pairs], sites, tol=1e-8)
    assert abs(sol.value - med(src, site_path(sites))) < 1e-6
    assert sol.iterations > 0


def test_maxent_infeasible_constraints_error():
    r1 = as_region([(0, 0)])
    rng = np.random.default_rng(3)
    a, b = random_state(r1, rng), random_state(r1, rng)
    region = as_region([(0, 0), (1, 0)])
    with pytest.raises(MaxEntConvergenceError):
        brute_force_maxent([(r1, a), (r1, b)], region, tol=1e-10, max_iter=3000)


def test_maxent_rejects_outside_region():
    r1 = as_region([(5, 5)])
    with pytest.raises(GeometryError):
        brute_force_maxent(
            [(r1, random_state(r1, np.random.default_rng(0)))], as_region([(0, 0)])
        )
