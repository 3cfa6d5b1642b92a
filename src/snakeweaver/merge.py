"""Petz right-merge, recovery-based Markov checks, and the merging-lemma combiner.

Every merge goes through one contraction, ``right_merge_marginals``, which
builds the Petz factor once and yields the merge reduced to each region asked,
one at a time, Hermitized and renormalized.  No merge output is spectrally
checked or repaired: a Petz map is completely positive and does not increase
trace, so a merge of admitted operands is positive up to rounding at any size.
"""

from __future__ import annotations

import logging
from typing import Iterator, NamedTuple

import numpy as np

from .lattice import GeometryError, as_region, region_difference, region_intersection, region_union
from .operator_core import (
    HERM_BLOCK_ROWS,
    LOCAL_DIM,
    DensityOperator,
    StateError,
    apply_on_sites,
    certified_trace_distance,
    check_dim_guard,
    cmi,
    partial_trace,
    pinv_sqrt_psd,
    sqrt_psd,
    trace_distance,
    _reorder_sites,
)

logger = logging.getLogger("snakeweaver.merge")


class EmptyOverlapError(GeometryError):
    """The two operands share no sites."""


class SupportMismatchError(StateError):
    """The overlap marginals live on essentially disjoint supports; no convention is defined."""


class MergePreconditionError(ValueError):
    """A merging-lemma hypothesis fails beyond tolerance."""


def _petz_factor(rho: DensityOperator, overlap) -> np.ndarray:
    """K = rho_BC^1/2 (rho_B^-1/2 (x) I_C) on rho's legs, B = ``overlap``.

    Computed as ((rho_B^-1/2 (x) I_C) rho_BC^1/2)^dag, both roots Hermitian.
    """
    rho_b = partial_trace(rho, overlap)
    b_pos = [rho.site_pos(s) for s in overlap]
    return apply_on_sites(pinv_sqrt_psd(rho_b.matrix), sqrt_psd(rho.matrix), b_pos).conj().T


def right_merge_info(sigma: DensityOperator, rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Right-merge of ``rho`` into ``sigma``, rho_BC^1/2 rho_B^-1/2 sigma rho_B^-1/2 rho_BC^1/2, and its trace
    Tr(sigma_B Pi_B) before renormalization.

    B is the overlap of the two regions, extended by identity factors on the
    unshared sites.  This is ``right_merge_marginals`` kept on the whole union,
    as it returns it; weight outside the support of rho_B is dropped.
    """
    [(out, tr)] = right_merge_marginals(sigma, rho, [region_union(sigma.region, rho.region)])
    dev = abs(tr - 1.0)
    if dev > 1e-6:
        logger.warning("right_merge trace deviated by %.3e before renormalization", dev)
    return out, tr


def _hermitian_part(dst: np.ndarray, src: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(dst + src^H) * 0.5 made in ``buf`` by that expression's own arithmetic: conjugate, add, halve."""
    out = buf[:dst.shape[0], :dst.shape[1]]
    np.conjugate(src.T, out=out)
    np.add(dst, out, out=out)
    np.multiply(out, 0.5, out=out)
    return out


def _hermitize(mat: np.ndarray) -> None:
    """Replace a square ``mat`` by (mat + mat^H) * 0.5 in place, by square blocks of HERM_BLOCK_ROWS.

    Blocks (i, j) and (j, i), j >= i, are both computed from the input, each in one of two reused buffers, before
    either is written, and no later pair reads them; every entry is computed once, by the full expression's own
    arithmetic, so the result is bit-identical to it, signed zeros too.
    """
    n, h = mat.shape[0], HERM_BLOCK_ROWS
    buf = np.empty((2, min(h, n), min(h, n)), dtype=mat.dtype)
    for i in range(0, n, h):
        for j in range(i, n, h):
            upper, lower = mat[i:i + h, j:j + h], mat[j:j + h, i:i + h]
            new_upper = _hermitian_part(upper, lower, buf[0])
            if j > i:
                lower[...] = _hermitian_part(lower, upper, buf[1])
            upper[...] = new_upper


def _contract(k_bc: np.ndarray, sigma: DensityOperator, rho: DensityOperator, keep, a_sites, k_sites) -> np.ndarray:
    """The merge reduced to ``keep``, before Hermitization and normalization; its temporaries are freed on return.

    K with row legs (k, r) and column legs (B, C); sigma_A'B with legs (a, b, a', b').  The superoperator is built
    one k-row block at a time and written straight into the (a, k, a', k') output.
    """
    d, n = LOCAL_DIM, len(rho.region)
    overlap = list(region_intersection(sigma.region, rho.region))
    c_sites = [s for s in rho.region if s not in overlap]
    cols = [n + rho.site_pos(s) for s in overlap + c_sites]
    r_sites = [s for s in rho.region if s not in keep]
    da, dk, dr, db, dc = (d ** len(sites) for sites in (a_sites, k_sites, r_sites, overlap, c_sites))
    k4 = k_bc.transpose([rho.site_pos(s) for s in k_sites + r_sites] + cols).reshape(dk, dr, db, dc)
    sig = _reorder_sites(sigma.matrix, sigma.region, a_sites + overlap).reshape(da, db, da, db)
    if dk * db <= da * db * dc:
        e = k4.transpose(1, 3, 0, 2).reshape(dr * dc, dk, db)
        sig_bbaa = sig.transpose(1, 3, 0, 2).reshape(db * db, da * da)
        del k4, sig  # the superoperator reads only e, its conjugate and sig_bbaa
        e_conj = e.conj().reshape(dr * dc, dk * db)
        out = np.empty((da, dk, da, dk), dtype=np.complex128)
        for k in range(dk):
            # row[k', (b, b')] = sum_rc E_rc[k, b] conj(E_rc[k', b'])
            row = (e[:, k, :].T @ e_conj).reshape(db, dk, db).transpose(1, 0, 2).reshape(dk, db * db)
            out[:, k] = (row @ sig_bbaa).reshape(dk, da, da).transpose(1, 2, 0)
    else:
        # P[kr, c, a, a', b'] = sum_b K[kr, b, c] sigma[a, b, a', b'], then contract b', c with conj(K)
        k3 = k4.reshape(dk * dr, db, dc)
        out = k3.transpose(0, 2, 1).reshape(dk * dr * dc, db) @ sig.transpose(1, 0, 2, 3).reshape(db, da * da * db)
        out = out.reshape(dk * dr, dc, da, da, db).transpose(0, 2, 3, 4, 1).reshape(dk * dr * da * da, db * dc)
        out = (out @ k3.conj().reshape(dk * dr, db * dc).T).reshape(dk, dr, da, da, dk, dr)
        out = np.einsum("kraAjr->akAj", out)
    # a view of ``out`` when a_sites + k_sites is already the keep's order
    return _reorder_sites(out, a_sites + k_sites, keep)


def _normalized(keep, out: np.ndarray) -> tuple[DensityOperator, float]:
    """``out`` Hermitized in place and divided by its trace, and that trace; an empty trace means no common support."""
    _hermitize(out)
    trace = float(out.trace().real)
    if trace < 1e-12:
        raise SupportMismatchError(f"merged trace {trace:.3e}: overlap marginals have no common support")
    out /= trace
    return DensityOperator(keep, out), trace


def right_merge_marginals(sigma: DensityOperator, rho: DensityOperator, keeps) -> Iterator[tuple[DensityOperator, float]]:
    """Yield ``(partial_trace(right_merge(sigma, rho), keep), trace)`` for each of ``keeps`` in order, without forming
    the merge.

    The Petz factor K of ``right_merge_info`` is built once per call, before
    the first yield.  With A' = keep & A, k = keep & (B+C) and r the rest of
    B+C, a reduction is Tr_r[(I_A' (x) K)(sigma_A'B (x) I_C)(I_A' (x) K^dag)],
    contracted by matrix products through the cheaper of two contractions: the
    superoperator sum_rc E_rc (x) conj(E_rc), E_rc[k, b] = K[kr, bc], with
    (d_k d_B)^2 entries, made one k-row block at a time and never whole, or the
    product itself, with (d_A' d_B d_C)^2 entries.  Outputs are Hermitized in
    place and renormalized but not clip-repaired; each comes with its trace
    before renormalization, which is the merge's, Tr(sigma_B Pi_B) with Pi_B
    the support projector of rho_B, up to rounding.

    The contract is streaming: each keep's reduction is made only when the
    previous one has been taken, its contraction temporaries are released before
    it is Hermitized, and this generator keeps no reference to what it yielded.
    A caller that drops each reduction before asking for the next holds one at
    a time.  On the 4x3 row-Markov strips (seed 1), tracemalloc peaks at 2.0x a
    3x3-cluster keep's 4 MB output (3.1x while the temporaries lived through
    Hermitization) and at 1.02x the 4096-dim union's (1.14x); ``reconstruct``'s
    last step there, with its two cluster keeps, peaks at 2.5 cluster outputs.
    """
    overlap, total = region_intersection(sigma.region, rho.region), region_union(sigma.region, rho.region)
    if not overlap:
        raise EmptyOverlapError("merge operands share no sites; use product_operator for a tensor product")
    d = LOCAL_DIM
    c_sites = [s for s in rho.region if s not in overlap]
    db, dc = d ** len(overlap), d ** len(c_sites)
    legs = []
    for keep in map(as_region, keeps):
        if not set(keep) <= set(total):
            raise GeometryError(f"keep region {keep} is not contained in {total}")
        a_sites = [s for s in keep if s not in rho.region]
        k_sites = [s for s in keep if s in rho.region]
        check_dim_guard(max(d ** len(keep), min(d ** len(k_sites) * db, d ** len(a_sites) * db * dc)))
        legs.append((keep, a_sites, k_sites))

    k_bc = _petz_factor(rho, overlap).reshape((d,) * (2 * len(rho.region)))
    for keep, a_sites, k_sites in legs:
        yield _normalized(keep, _contract(k_bc, sigma, rho, keep, a_sites, k_sites))


def right_merge(sigma: DensityOperator, rho: DensityOperator) -> DensityOperator:
    out, _ = right_merge_info(sigma, rho)
    return out


class RecoveryCheck(NamedTuple):
    """The verdict of ``is_markov_via_recovery``: the Petz recovery residual against ``tol``, and the CMI."""
    ok: bool
    residual: float
    cmi: float


def is_markov_via_recovery(
    op: DensityOperator, A, B, C, tol: float = 1e-8
) -> RecoveryCheck:
    """Petz test: does recovering from the AB marginal through B reproduce the state?

    The residual is the exact trace distance between ``op`` (reduced to A+B+C)
    and right_merge(op_AB, op_BC), since a non-Markov state must show it large,
    which no upper bound can; the conditional mutual information is returned
    alongside as a cross-check since both vanish together.
    """
    A, B, C = as_region(A), as_region(B), as_region(C)
    abc = region_union(A, B, C)
    sub = partial_trace(op, abc)
    merged = right_merge(partial_trace(sub, region_union(A, B)), partial_trace(sub, region_union(B, C)))
    residual = trace_distance(sub, merged)
    i_val = cmi(sub, A, B, C)
    if (residual <= tol) != (i_val <= max(tol, 1e-6)):
        logger.debug(
            "recovery residual %.3e and CMI %.3e straddle tolerance %g", residual, i_val, tol
        )
    return RecoveryCheck(residual <= tol, residual, i_val)


def merging_lemma_combine(
    rho: DensityOperator,
    sigma: DensityOperator,
    B,
    C,
    *,
    tol: float = 1e-8,
) -> DensityOperator:
    """Combine rho on A+B+C with sigma on B+C+D into tau on A+B+C+D.

    Hypotheses: the operands agree on B+C, I(A:C|B) vanishes for rho and
    I(B:D|C) vanishes for sigma (within ``tol``).  Then tau = rho <| sigma_CD
    is consistent with both inputs and satisfies I(A:CD|B) = I(AB:D|C) = 0;
    equality with sigma_BCD <| rho_AB is a theorem, not an assumption, and is
    exercised in the tests.  A violated hypothesis raises MergePreconditionError.
    """
    B, C = as_region(B), as_region(C)
    bc = region_union(B, C)
    if region_intersection(B, C):
        raise GeometryError("B and C must be disjoint")
    if bc != region_intersection(rho.region, sigma.region):
        raise GeometryError("B + C must equal the overlap of the two operands")
    A = region_difference(rho.region, bc)
    D = region_difference(sigma.region, bc)
    if not A or not D:
        raise GeometryError("each operand must contribute at least one site outside the overlap")

    overlap_dist, _ = certified_trace_distance(partial_trace(rho, bc), partial_trace(sigma, bc), tol)
    if overlap_dist > tol:
        raise MergePreconditionError(f"operands disagree on the overlap: trace distance {overlap_dist:.3e}")
    i_rho = cmi(rho, A, B, C)
    if i_rho > tol:
        raise MergePreconditionError(f"I(A:C|B) = {i_rho:.3e} on the left operand exceeds {tol:.0e}")
    i_sigma = cmi(sigma, B, C, D)
    if i_sigma > tol:
        raise MergePreconditionError(f"I(B:D|C) = {i_sigma:.3e} on the right operand exceeds {tol:.0e}")

    return right_merge(rho, partial_trace(sigma, region_union(C, D)))
