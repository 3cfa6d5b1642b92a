"""Density-operator algebra: partial traces, entropies, CMI, distances, PSD roots, MED."""

import math

import numpy as np
import pytest

from snakeweaver.lattice import GeometryError, as_region, region_union, site_path
from snakeweaver.operator_core import (
    DensityOperator,
    DimensionGuardError,
    RegionMismatchError,
    StateError,
    apply_on_sites,
    check_dim_guard,
    cmi,
    embed_operator,
    entropy,
    med,
    partial_trace,
    pinv_sqrt_psd,
    product_operator,
    sqrt_psd,
    trace_distance,
    _hermiticity_deviation,
    _reorder_sites,
    _transpose_in_place,
    certified_trace_distance,
)
from snakeweaver.marginal_store import Window
from snakeweaver.oracles import (
    ClassicalChain,
    RowMarkovSource,
    basis_state,
    gen_product,
    gen_row_markov,
    ghz_stabilizer,
    ghz_state,
    maximally_mixed,
    random_state,
    repetition_rows,
)

R1 = as_region([(0, 0)])
R2 = as_region([(0, 0), (1, 0)])
R3 = as_region([(0, 0), (1, 0), (2, 0)])


def test_density_operator_invariants():
    with pytest.raises(StateError):
        DensityOperator(R1, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        DensityOperator(R1, np.eye(2))  # trace 2
    with pytest.raises(StateError):
        DensityOperator(R2, np.eye(2) / 2)  # wrong dimension
    bad = DensityOperator(R1, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(StateError):
        bad.validate_spectrum()


@pytest.mark.parametrize("dim", [8, 129, 512, 1024, 1100])
def test_blockwise_hermiticity_deviation_equals_the_full_expression(dim):
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = g + g.conj().T
    herm[dim - 1, 3] += 1e-3  # the deviation sits in the last row block
    for mat in (herm, g):
        assert _hermiticity_deviation(mat) == np.max(np.abs(mat - mat.conj().T))
    assert _hermiticity_deviation(herm) == pytest.approx(1e-3, rel=1e-6)


def test_a_large_operator_with_one_non_hermitian_entry_is_refused():
    mat = np.eye(4096, dtype=complex) / 4096
    mat[4000, 17] = 1e-9
    region = as_region([(x, y) for y in range(3) for x in range(4)])
    with pytest.raises(StateError, match="not Hermitian"):
        DensityOperator(region, mat)


def test_matrix_is_frozen():
    # every input is stored as a frozen C-contiguous complex128 matrix, a real Fortran-ordered one too
    for op in (maximally_mixed(R1), DensityOperator(R2, np.asfortranarray(np.eye(4) / 4))):
        assert op.matrix.dtype == np.complex128 and op.matrix.flags.c_contiguous
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 0.3


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    a = random_state(R1, rng)
    b = random_state([(1, 0)], rng)
    joint = product_operator([a, b])
    assert trace_distance(partial_trace(joint, R1), a) < 1e-12
    assert trace_distance(partial_trace(joint, [(1, 0)]), b) < 1e-12


def test_partial_trace_ghz_two_sites():
    red = partial_trace(ghz_state(R3), R2)
    expect = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.max(np.abs(red.matrix - expect)) < 1e-12


def test_partial_trace_identity_and_composition():
    rng = np.random.default_rng(2)
    op = random_state(R3, rng)
    assert partial_trace(op, op.region) is op
    step = partial_trace(partial_trace(op, R2), R1)
    direct = partial_trace(op, R1)
    assert trace_distance(step, direct) < 1e-12
    assert abs(step.matrix.trace() - 1.0) < 1e-12


def _leg_map_reference(mat, order, new_order, d):
    """sum_t V_t^T mat V_t, with V_t the basis isometry that puts the traced sites in the basis state t."""
    n, k = len(order), len(new_order)
    kept = [list(order).index(s) for s in new_order]
    traced = [i for i in range(n) if i not in kept]
    out = np.zeros((d ** k, d ** k), dtype=complex)
    for t in np.ndindex(*(d,) * len(traced)):
        v = np.zeros((d ** n, d ** k))
        for col, i in enumerate(np.ndindex(*(d,) * k)):
            digits = [0] * n
            for p, x in zip(kept + traced, i + t):
                digits[p] = x
            v[sum(x * d ** (n - 1 - p) for p, x in enumerate(digits)), col] = 1.0
        out += v.T @ mat @ v
    return out


@pytest.mark.parametrize("d, n", [(2, 5)])
def test_leg_map_traces_and_permutes_like_basis_projections(d, n):
    rng = np.random.default_rng(16)
    order = [(x, 0) for x in range(n)]
    mat = rng.standard_normal((d ** n,) * 2) + 1j * rng.standard_normal((d ** n,) * 2)
    # traced sites interleaved among kept ones, in an unsorted order; everything traced; a transposed view
    for m, new_order in ((mat, [order[3], order[0], order[2]]), (mat, []), (mat.T, [order[2], order[1]])):
        out = _reorder_sites(m, order, new_order)
        assert out.flags.c_contiguous and out.shape == (d ** len(new_order),) * 2
        assert np.max(np.abs(out - _leg_map_reference(m, order, new_order, d))) <= 1e-14
    perm = [n - 1, 0] + list(range(n - 2, 0, -1))
    expect = mat.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm]).reshape(d ** n, d ** n)
    assert np.array_equal(_reorder_sites(mat, order, [order[p] for p in perm]), expect)
    op = random_state(order, rng)
    for keep in ([order[1], order[3]], [order[0], order[2], order[3]]):
        got = partial_trace(op, keep)
        assert got.region == as_region(keep)
        assert np.max(np.abs(got.matrix - _leg_map_reference(op.matrix, order, keep, d))) <= 1e-14


def test_entropy_examples():
    assert entropy(basis_state(R1, [0])) == pytest.approx(0.0, abs=1e-12)
    assert entropy(maximally_mixed(R1)) == pytest.approx(1.0, abs=1e-12)
    op = DensityOperator(R2, np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
    assert entropy(op) == pytest.approx(1.5, abs=1e-12)


def test_entropy_counts_eigenvalues_far_below_the_top():
    # 32 eigenvalues at 1e-12 of the largest carry 1.3e-9 bits; a relative cutoff of 1e-10 would drop them
    p = np.concatenate([np.full(32, 1.0), np.full(32, 1e-12)])
    p /= p.sum()
    op = DensityOperator([(i, 0) for i in range(6)], np.diag(p).astype(complex))
    assert entropy(op) == pytest.approx(-math.fsum(x * math.log2(x) for x in p), abs=1e-12)


def test_cmi_examples():
    rng = np.random.default_rng(3)
    prod = product_operator([random_state([(i, 0)], rng) for i in range(3)])
    A, B, C = [[(i, 0)] for i in range(3)]
    assert abs(cmi(prod, A, B, C)) < 1e-10
    assert cmi(ghz_state(R3), A, B, C) == pytest.approx(1.0, abs=1e-10)
    # uniform classical repetition chain: conditionally independent by construction
    rep = RowMarkovSource(Window(3, 1), unitaries="none", chains=[ClassicalChain.repetition(3)])
    assert abs(cmi(rep.global_state(), A, B, C)) < 1e-12


def test_cmi_symmetry_and_empty_b():
    rng = np.random.default_rng(4)
    op = random_state(R3, rng)
    A, B, C = [[(i, 0)] for i in range(3)]
    assert cmi(op, A, B, C) == cmi(op, C, B, A)  # term-by-term, exactly
    mutual = cmi(op, A, [], C)
    s = lambda r: entropy(partial_trace(op, r))
    assert mutual == pytest.approx(s(A) + s(C) - s(as_region(A + C)), abs=1e-12)


def test_cmi_rejects_overlap():
    op = ghz_state(R3)
    with pytest.raises(GeometryError):
        cmi(op, [(0, 0)], [(0, 0)], [(2, 0)])
    with pytest.raises(GeometryError):
        cmi(op, [(0, 0)], [], [])


def test_cmi_reads_every_entropy_provider():
    A, B, C = [[(i, 0)] for i in range(3)]
    # stabilizer entropies are integers, and so is every CMI of them
    rep = repetition_rows(Window(3, 2))
    for triple, want in (((A, B, C), 0), ((A, [], C), 1), ((A, [], [(0, 1)]), 0), ((A + B, [], [(2, 1)]), 0)):
        got = cmi(rep, *triple)
        assert got == want and isinstance(got, int)
    ghz = cmi(ghz_stabilizer(R3), A, B, C)
    assert ghz == 1 and isinstance(ghz, int)
    # a generator source's exact classical entropies give the CMI of its dense marginal
    src = gen_row_markov(Window(3, 3), seed=1, orientation="columns")
    for a, b, c in ((A, [], [(1, 0)]), ([(0, 0)], [(0, 1)], [(0, 2)]), ([(0, 0), (1, 1)], [(1, 0)], [(2, 0), (2, 2)])):
        dense = src.marginal(region_union(a, b, c))
        assert cmi(src, a, b, c) == pytest.approx(cmi(dense, a, b, c), abs=1e-12)
    assert cmi(gen_product(Window(3, 3), seed=2), A + [(0, 1)], B, C + [(2, 2)]) == pytest.approx(0.0, abs=1e-12)
    # a marginal set reduces a region of the cluster at (2, 0), its first parent, from that cluster's marginal
    ms = gen_row_markov(Window(4, 4), seed=3).marginal_set()
    for a, b, c in ((A, B, C), ([(0, 0), (0, 1)], [(1, 1)], [(2, 1), (2, 2)]), ([(1, 2)], [], [(2, 0)])):
        assert cmi(ms, a, b, c) == cmi(ms.marginals[(2, 0)], a, b, c)


def test_trace_distance_examples():
    z0, z1 = basis_state(R1, [0]), basis_state(R1, [1])
    assert trace_distance(z0, z0) == 0.0
    assert trace_distance(z0, z1) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(z0, maximally_mixed(R1)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(RegionMismatchError):
        trace_distance(z0, basis_state([(1, 0)], [0]))


def test_certified_trace_distance_bounds_then_falls_back_to_the_spectrum():
    rng = np.random.default_rng(4)
    a = random_state(R3, rng)
    for eps in (1e-9, 1e-3, 0.5):
        b = DensityOperator(R3, (1 - eps) * a.matrix + eps * random_state(R3, rng).matrix)
        exact = trace_distance(a, b)
        bound, method = certified_trace_distance(a, b, tol=1e-6)
        if method == "frobenius-bound":
            assert exact <= bound <= 1e-6
            assert bound == pytest.approx(0.5 * math.sqrt(8) * np.linalg.norm(a.matrix - b.matrix), rel=1e-12)
        else:
            assert method == "exact" and bound == exact and exact > 1e-6 / math.sqrt(8)
    assert certified_trace_distance(a, a, tol=0.0) == (0.0, "frobenius-bound")
    with pytest.raises(RegionMismatchError):
        certified_trace_distance(a, random_state(R2, rng), tol=1.0)


@pytest.mark.parametrize("n", [1, 127, 128, 129, 729])
def test_in_place_transpose_is_bitwise_the_contiguous_transpose(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    real[rng.random((n, n)) < 0.1] = -0.0  # signed zeros to keep
    cplx = np.empty((n, n), dtype=complex)
    cplx.real, cplx.imag = real, -real[::-1]
    for mat in (cplx, real):
        expect = np.ascontiguousarray(mat.T)
        _transpose_in_place(mat)
        assert np.array_equal(mat, expect)
        assert mat.tobytes() == expect.tobytes()


def test_sqrt_and_pinv_examples():
    half = np.eye(2) / 2
    assert np.allclose(sqrt_psd(half), np.eye(2) / np.sqrt(2))
    assert np.allclose(pinv_sqrt_psd(half), np.eye(2) * np.sqrt(2))
    proj = np.diag([1.0, 0.0])
    assert np.allclose(sqrt_psd(proj), proj)
    assert np.allclose(pinv_sqrt_psd(proj), proj)  # pseudo-inverse on the support
    m = np.diag([4.0, 1.0]) / 5
    assert np.allclose(sqrt_psd(m), np.diag([2.0, 1.0]) / np.sqrt(5))
    assert np.allclose(pinv_sqrt_psd(m), np.diag([0.5, 1.0]) * np.sqrt(5))
    with pytest.raises(StateError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_embed_operator_round_trip():
    rng = np.random.default_rng(5)
    sub = random_state(R2, rng)
    full = as_region([(0, 0), (1, 0), (0, 1)])
    big = embed_operator(sub.matrix, R2, full) / 2  # normalize the identity factor
    op = DensityOperator(full, big)
    assert trace_distance(partial_trace(op, R2), sub) < 1e-12
    assert trace_distance(partial_trace(op, [(0, 1)]), maximally_mixed([(0, 1)])) < 1e-12


@pytest.mark.parametrize(
    "d, n, positions", [(2, 5, [3, 0, 2]), (2, 5, [1, 3])]
)
def test_apply_on_sites_matches_kron_reference(d, n, positions):
    rng = np.random.default_rng(12)
    k = len(positions)
    op = rng.standard_normal((d ** k,) * 2) + 1j * rng.standard_normal((d ** k,) * 2)
    mat = rng.standard_normal((d ** n,) * 2) + 1j * rng.standard_normal((d ** n,) * 2)
    # op (x) I with op's factors first, then the factors moved to their positions
    order = list(positions) + [i for i in range(n) if i not in positions]
    big = np.kron(op, np.eye(d ** (n - k)))
    perm = [order.index(i) for i in range(n)]
    big = big.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm]).reshape(d ** n, d ** n)
    assert np.max(np.abs(apply_on_sites(op, mat, positions) - big @ mat)) < 1e-12
    assert np.max(np.abs(apply_on_sites(op, mat.T, positions) - big @ mat.T)) < 1e-12


def test_dim_guard():
    with pytest.raises(DimensionGuardError) as err:
        check_dim_guard(2 ** 15)
    assert "16384" in str(err.value)
    check_dim_guard(2 ** 15, guard=2 ** 20)


def test_med_product_state():
    rng = np.random.default_rng(6)
    singles = [random_state([(i, 0)], rng) for i in range(4)]
    op = product_operator(singles)
    path = site_path(op.region)
    expect = sum(entropy(s) for s in singles)
    assert med(op, path) == pytest.approx(expect, abs=1e-10)


def test_med_matches_exact_entropy_on_classical_chain():
    src = gen_row_markov(Window(4, 1), seed=7)
    op = src.global_state()
    m = med(op, site_path(op.region))
    assert m == pytest.approx(entropy(op), abs=1e-9)


def test_med_upper_bounds_entropy():
    rng = np.random.default_rng(8)
    region = as_region([(x, y) for x in range(2) for y in range(2)])
    for _ in range(25):
        op = random_state(region, rng)
        assert med(op, site_path(region)) >= entropy(op) - 1e-9


def test_med_block_refinement_when_rows_independent():
    # splitting a block of mutually non-adjacent sites is exact when the
    # conditioning set makes them conditionally independent, as it does for
    # independent-row sources
    src = gen_row_markov(Window(3, 2), seed=9)
    op = src.global_state()
    block = as_region([(0, 0), (1, 1)])
    coarse = [as_region([(1, 0)]), block, as_region([(2, 0)]), as_region([(0, 1)]), as_region([(2, 1)])]
    fine = [as_region([(1, 0)]), as_region([(0, 0)]), as_region([(1, 1)]),
            as_region([(2, 0)]), as_region([(0, 1)]), as_region([(2, 1)])]
    assert med(op, coarse) == pytest.approx(med(op, fine), abs=1e-10)


def test_ssa_and_monotonicity_on_random_states():
    rng = np.random.default_rng(10)
    sites = as_region([(i, 0) for i in range(4)])
    A, B, C, D = [[s] for s in sites]
    for _ in range(40):
        op = random_state(sites, rng)
        i_abc = cmi(op, A, B, C)
        assert i_abc >= -1e-9
        i_acd_b = cmi(op, A, B, C + D)
        assert cmi(op, A, B, C) <= i_acd_b + 1e-9
        assert cmi(op, A, B + D, C) <= i_acd_b + 1e-9


def test_jensen_gap_bound_in_nats():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a, b = random_state(R3, rng), random_state(R3, rng)
        mix = DensityOperator(R3, 0.5 * (a.matrix + b.matrix))
        gap = math.log(2) * (entropy(mix) - 0.5 * (entropy(a) + entropy(b)))
        one_norm = 2.0 * trace_distance(a, b)
        assert gap >= one_norm ** 2 / 8.0 - 1e-9
