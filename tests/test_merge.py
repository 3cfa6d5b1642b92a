"""Right-merge, recovery checks, and the merging-lemma combiner."""

import tracemalloc

import numpy as np
import pytest

from snakeweaver.lattice import as_region, cluster_region, region_intersection, region_union
from snakeweaver.marginal_store import Window
from snakeweaver.merge import (
    EmptyOverlapError,
    MergePreconditionError,
    SupportMismatchError,
    _hermitize,
    is_markov_via_recovery,
    merging_lemma_combine,
    right_merge,
    right_merge_info,
    right_merge_marginals,
)
from snakeweaver.operator_core import (
    DensityOperator,
    cmi,
    partial_trace,
    pinv_sqrt_psd,
    product_operator,
    sqrt_psd,
    trace_distance,
)
from snakeweaver.oracles import (
    basis_state,
    gen_qmc_triple,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
    ghz_state,
    maximally_mixed,
    random_state,
    tripartite_regions,
)
from snakeweaver.snakes import SnakeSpec, build_snake

S = [(i, 0) for i in range(4)]


@pytest.fixture(autouse=True)
def merge_outputs_are_positive(monkeypatch):
    """Every merge output of up to 1024 dims that a test makes through ``right_merge`` has no eigenvalue below -1e-14.

    A Petz map is completely positive, so no merge output is checked at run time; this is where that is tested.
    """
    outputs = []

    def recording(sigma, rho, keeps):
        for out, trace in right_merge_marginals(sigma, rho, keeps):
            if out.dim <= 1024:
                outputs.append(out)
            yield out, trace

    monkeypatch.setattr("snakeweaver.merge.right_merge_marginals", recording)
    yield
    for out in outputs:
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-14, out.region


def chain_state(seed, n=4, unitaries="haar"):
    return gen_row_markov(Window(n, 1), seed=seed, unitaries=unitaries).global_state()


def test_right_merge_commuting_product_case():
    rng = np.random.default_rng(0)
    a, b, c = (random_state([s], rng) for s in S[:3])
    merged = right_merge(product_operator([a, b]), product_operator([b, c]))
    assert trace_distance(merged, product_operator([a, b, c])) < 1e-12


def test_right_merge_recovers_markov_states():
    op = gen_qmc_triple(2, 4, 2, [(1, 2), (2, 1)], seed=3)
    A, B, C = tripartite_regions(2, 4, 2)
    merged = right_merge(partial_trace(op, A + B), partial_trace(op, B + C))
    assert trace_distance(merged, op) < 1e-10
    # rank 4 of 1024: the level-2 strip of two repetition rows, five sites long, from its 2x2-cluster merges
    src = gen_repetition_rows(Window(5, 3))
    strip = build_snake(src.marginal_set(), SnakeSpec(2, (0, 0), (4, 0)))
    assert strip.dim == 1024
    assert trace_distance(strip, src.marginal(strip.region)) < 1e-10


def test_right_merge_petz_formula_example():
    # |00><00| on AB merged with I/4 on BC: the B marginals disagree, the output
    # keeps sigma on AB and leaves C maximally mixed
    sigma = basis_state(S[:2], [0, 0])
    rho = maximally_mixed(S[1:3])
    out, trace = right_merge_info(sigma, rho)
    expect = product_operator(
        [basis_state([S[0]], [0]), basis_state([S[1]], [0]), maximally_mixed([S[2]])]
    )
    assert trace_distance(out, expect) < 1e-12
    assert trace == pytest.approx(1.0, abs=1e-12)  # rho_B is I/2, so its support projector keeps all of sigma_B
    # both operands rank one, agreeing on B: the merge is the basis state they share
    out, trace = right_merge_info(sigma, basis_state(S[1:3], [0, 1]))
    assert trace_distance(out, basis_state(S[:3], [0, 0, 1])) < 1e-12
    assert trace == pytest.approx(1.0, abs=1e-12)


def test_right_merge_trace_deviation_small_on_consistent_inputs():
    st = chain_state(1)
    sigma = partial_trace(st, S[:3])
    rho = partial_trace(st, S[1:])
    out, trace = right_merge_info(sigma, rho)
    assert abs(trace - 1.0) <= 1e-8
    assert abs(out.matrix.trace() - 1.0) < 1e-13
    assert trace_distance(out, st) < 1e-9


def test_right_merge_empty_overlap():
    rng = np.random.default_rng(2)
    a = random_state([S[0]], rng)
    b = random_state([S[2]], rng)
    with pytest.raises(EmptyOverlapError):
        right_merge(a, b)


def test_right_merge_disjoint_overlap_support():
    sigma = basis_state(S[:2], [0, 0])
    rho = basis_state(S[1:3], [1, 0])  # B supports collide nowhere
    with pytest.raises(SupportMismatchError):
        right_merge(sigma, rho)


def fold_right_merges(ops):
    state = ops[0]
    for op in ops[1:]:
        state = right_merge(state, op)
    return state


def test_right_merge_fold_of_product_pairs():
    rng = np.random.default_rng(4)
    singles = [random_state([s], rng) for s in S]
    pairs = [product_operator(singles[i:i + 2]) for i in range(3)]
    out = fold_right_merges(pairs)
    assert trace_distance(out, product_operator(singles)) < 1e-11


def test_right_merge_fold_rebuilds_classical_chain():
    st = chain_state(5, unitaries="none")
    pairs = [partial_trace(st, S[i:i + 2]) for i in range(3)]
    out = fold_right_merges(pairs)
    assert trace_distance(out, st) < 1e-11


def _dense_embed(mat, sub, full, d):
    """mat (x) I on ``full`` by an explicit Kronecker product and a permutation of the factors."""
    rest = [s for s in full if s not in sub]
    big = np.kron(mat, np.eye(d ** len(rest)))
    order = list(sub) + rest
    n = len(full)
    perm = [order.index(s) for s in full]
    t = big.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return t.reshape(d ** n, d ** n)


def test_right_merge_matches_dense_petz_on_interleaved_2d_pair():
    # sigma on a 2x2 block, rho on the 2x2 block one column to the right: in
    # canonical order their legs interleave, sigma at 0, 1, 3, 4 and rho at 1, 2, 4, 5
    rng = np.random.default_rng(14)
    sigma = random_state([(0, 0), (1, 0), (0, 1), (1, 1)], rng)
    rho = random_state([(1, 0), (2, 0), (1, 1), (2, 1)], rng)
    out, trace = right_merge_info(sigma, rho)
    total = out.region
    overlap = as_region([(1, 0), (1, 1)])
    rho_b = partial_trace(rho, overlap)
    k = sqrt_psd(rho.matrix) @ _dense_embed(pinv_sqrt_psd(rho_b.matrix), overlap, rho.region, 2)
    k_full = _dense_embed(k, rho.region, total, 2)
    expect = k_full @ _dense_embed(sigma.matrix, sigma.region, total, 2) @ k_full.conj().T
    expect = 0.5 * (expect + expect.conj().T)
    assert trace == pytest.approx(expect.trace().real, abs=1e-12)
    assert np.max(np.abs(out.matrix - expect / expect.trace().real)) < 1e-12


_INTERLEAVED = ([(0, 0), (1, 0), (0, 1), (1, 1)], [(1, 0), (2, 0), (1, 1), (2, 1)])
_ROW_STRIPS = ([(x, y) for y in (0, 1) for x in (0, 1)], [(x, y) for y in (1, 2) for x in (0, 1)])


@pytest.mark.parametrize("d", [2])
@pytest.mark.parametrize(
    "regions,mixed",
    [(_INTERLEAVED, [(0, 0), (1, 1), (2, 0)]), (_ROW_STRIPS, [(0, 0), (1, 1), (0, 2), (1, 2)])],
    ids=["interleaved", "row-strips"],
)
def test_right_merge_marginal_is_the_reduced_dense_merge(d, regions, mixed):
    # A+B and the whole union go through the superoperator, B+C through the direct product;
    # the reference is the literal Kronecker Petz formula, reduced by partial traces
    rng = np.random.default_rng(15)
    sigma, rho = (random_state(r, rng) for r in regions)
    total, overlap = region_union(sigma.region, rho.region), region_intersection(sigma.region, rho.region)
    k = sqrt_psd(rho.matrix) @ _dense_embed(pinv_sqrt_psd(partial_trace(rho, overlap).matrix), overlap, rho.region, d)
    k_full = _dense_embed(k, rho.region, total, d)
    expect = k_full @ _dense_embed(sigma.matrix, sigma.region, total, d) @ k_full.conj().T
    trace = expect.trace().real
    expect = DensityOperator(total, 0.5 * (expect + expect.conj().T) / trace)
    keeps = [sigma.region, rho.region, as_region(mixed), total]
    marginals, traces = zip(*right_merge_marginals(sigma, rho, keeps))
    first_trace = traces[0]
    assert first_trace == pytest.approx(trace, abs=1e-14)
    for keep, marginal in zip(keeps, marginals):
        [(single, single_trace)] = right_merge_marginals(sigma, rho, [keep])
        assert np.array_equal(single.matrix, marginal.matrix)  # one Petz factor serves every keep
        assert single_trace == pytest.approx(trace, abs=1e-14)
        assert marginal.region == keep
        assert np.max(np.abs(marginal.matrix - partial_trace(expect, keep).matrix)) <= 1e-14


@pytest.mark.parametrize("keep,bound", [("cluster", 2.5), ("union", 1.25)])
def test_right_merge_marginal_peak_memory_is_a_small_multiple_of_its_output(keep, bound):
    # the 4x3 row-Markov level-2 strips: a 3x3-cluster keep (512-dim) and the whole 4096-dim union both go through
    # the superoperator, whose (d_k d_B)^2 entries are 4x the cluster output and as large as the union
    ms = gen_row_markov(Window(4, 3), seed=1).marginal_set()
    sigma = build_snake(ms, SnakeSpec(2, (0, 0), (3, 0)))
    strip = build_snake(ms, SnakeSpec(2, (0, 1), (3, 1)))
    region = cluster_region(ms.anchors()[0], 3, 3) if keep == "cluster" else region_union(sigma.region, strip.region)
    tracemalloc.start()
    try:
        [(out, _)] = right_merge_marginals(sigma, strip, [region])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.matrix.nbytes


@pytest.mark.parametrize("n", [1, 127, 128, 129, 729])
def test_strip_hermitization_is_bitwise_the_full_expression(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    for mat in (real + 1j * rng.standard_normal((n, n)), real.astype(complex)):  # a real one has signed zeros to keep
        expect = (mat + mat.conj().T) * 0.5
        _hermitize(mat)
        assert np.array_equal(mat, expect)
        assert mat.tobytes() == expect.tobytes()


def test_is_markov_via_recovery_cases():
    rng = np.random.default_rng(7)
    A, B, C = [[s] for s in S[:3]]
    prod = product_operator([random_state([s], rng) for s in S[:3]])
    ok, residual, i_val = is_markov_via_recovery(prod, A, B, C, tol=1e-8)
    assert ok and residual < 1e-10
    ok, residual, i_val = is_markov_via_recovery(ghz_state(as_region(S[:3])), A, B, C, tol=1e-8)
    assert not ok and residual > 0.1 and i_val > 0.9
    # the 3x3 GHZ rows, columns as A, B, C: a pure 512-dim state merged from its rank-2 two-column reductions
    _, ghz_rows = ghz_row_source(Window(3, 3))
    columns = [[(x, y) for y in range(3)] for x in range(3)]
    ok, residual, i_val = is_markov_via_recovery(ghz_rows, *columns, tol=1e-8)
    assert not ok and residual > 0.1 and i_val > 0.9
    chain = chain_state(8, n=3, unitaries="none")
    ok, residual, _ = is_markov_via_recovery(chain, A, B, C, tol=1e-8)
    assert ok and residual <= 1e-10


def test_recovery_equivalence_both_directions():
    rng = np.random.default_rng(9)
    A, B, C = [[s] for s in S[:3]]
    for seed in range(10):
        markov = gen_qmc_triple(2, 2, 2, [(1, 2)] if seed % 2 else [(2, 1)], seed=seed)
        ok, residual, i_val = is_markov_via_recovery(markov, A, B, C, tol=1e-6)
        assert i_val <= 1e-9 and residual <= 1e-6
    hits = 0
    while hits < 10:
        op = random_state(as_region(S[:3]), rng)
        i_val = cmi(op, A, B, C)
        if i_val <= 1e-9:
            continue
        ok, residual, _ = is_markov_via_recovery(op, A, B, C, tol=1e-6)
        if i_val > 1e-3:
            assert residual > 1e-6
            hits += 1


def test_merging_lemma_rebuilds_chain():
    st = chain_state(10)
    rho = partial_trace(st, S[:3])
    sigma = partial_trace(st, S[1:])
    tau = merging_lemma_combine(rho, sigma, [S[1]], [S[2]], tol=1e-8)
    assert trace_distance(partial_trace(tau, S[:3]), rho) < 1e-10
    assert trace_distance(partial_trace(tau, S[1:]), sigma) < 1e-10
    assert cmi(tau, [S[0]], [S[1]], S[2:]) < 1e-9
    assert cmi(tau, S[:2], [S[2]], [S[3]]) < 1e-9
    assert trace_distance(tau, st) < 1e-10
    # order insensitivity: sigma_BCD <| rho_AB gives the same state
    other = right_merge(sigma, partial_trace(rho, S[:2]))
    assert trace_distance(tau, other) < 1e-10


def test_merging_lemma_product_inputs():
    rng = np.random.default_rng(11)
    singles = [random_state([s], rng) for s in S]
    rho = product_operator(singles[:3])
    sigma = product_operator(singles[1:])
    tau = merging_lemma_combine(rho, sigma, [S[1]], [S[2]])
    assert trace_distance(tau, product_operator(singles)) < 1e-11


def test_merging_lemma_precondition_enforcement():
    rng = np.random.default_rng(12)
    rho = random_state(S[:3], rng)   # generically neither Markov nor consistent
    sigma = partial_trace(chain_state(13), S[1:])
    with pytest.raises(MergePreconditionError):
        merging_lemma_combine(rho, sigma, [S[1]], [S[2]], tol=1e-8)
