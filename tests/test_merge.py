"""Right-merge, recovery checks, and the merging-lemma combiner."""

import warnings

import numpy as np
import pytest

from snakeweaver.lattice import as_region
from snakeweaver.marginal_store import Window
from snakeweaver.merge import (
    EmptyOverlapError,
    MergePreconditionError,
    SupportMismatchError,
    is_markov_via_recovery,
    merging_lemma_combine,
    right_merge,
    right_merge_info,
)
from snakeweaver.operator_core import (
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
    gen_row_markov,
    ghz_state,
    maximally_mixed,
    random_state,
    tripartite_regions,
)

S = [(i, 0) for i in range(4)]


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


def test_right_merge_petz_formula_example():
    # |00><00| on AB merged with I/4 on BC: the B marginals disagree, the output
    # keeps sigma on AB and leaves C maximally mixed
    sigma = basis_state(S[:2], [0, 0])
    rho = maximally_mixed(S[1:3])
    out, info = right_merge_info(sigma, rho)
    expect = product_operator(
        [basis_state([S[0]], [0]), basis_state([S[1]], [0]), maximally_mixed([S[2]])]
    )
    assert trace_distance(out, expect) < 1e-12
    assert info.overlap == as_region([S[1]])


def test_right_merge_trace_deviation_small_on_consistent_inputs():
    st = chain_state(1)
    sigma = partial_trace(st, S[:3])
    rho = partial_trace(st, S[1:])
    out, info = right_merge_info(sigma, rho)
    assert abs(info.trace_before_renorm - 1.0) <= 1e-8
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
    out, info = right_merge_info(sigma, rho)
    total = out.region
    overlap = as_region([(1, 0), (1, 1)])
    rho_b = partial_trace(rho, overlap)
    k = sqrt_psd(rho.matrix) @ _dense_embed(pinv_sqrt_psd(rho_b.matrix), overlap, rho.region, 2)
    k_full = _dense_embed(k, rho.region, total, 2)
    expect = k_full @ _dense_embed(sigma.matrix, sigma.region, total, 2) @ k_full.conj().T
    expect = 0.5 * (expect + expect.conj().T)
    assert info.trace_before_renorm == pytest.approx(expect.trace().real, abs=1e-12)
    assert np.max(np.abs(out.matrix - expect / expect.trace().real)) < 1e-12


def test_is_markov_via_recovery_cases():
    rng = np.random.default_rng(7)
    A, B, C = [[s] for s in S[:3]]
    prod = product_operator([random_state([s], rng) for s in S[:3]])
    ok, residual, i_val = is_markov_via_recovery(prod, A, B, C, tol=1e-8)
    assert ok and residual < 1e-10
    ok, residual, i_val = is_markov_via_recovery(ghz_state(as_region(S[:3])), A, B, C, tol=1e-8)
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        merging_lemma_combine(rho, sigma, [S[1]], [S[2]], tol=1e-8, strict=False)
    assert caught
