"""Petz right-merge, recovery-based Markov checks, and the merging-lemma combiner."""

from __future__ import annotations

import logging
import warnings
from typing import NamedTuple

import numpy as np

from .lattice import GeometryError, as_region, region_difference, region_intersection, region_union
from .operator_core import (
    NEG_EIG_ABORT,
    REPAIR_DIM_MAX,
    DensityOperator,
    StateError,
    apply_on_sites,
    check_dim_guard,
    cmi,
    partial_trace,
    pinv_sqrt_psd,
    product_operator,
    sqrt_psd,
    trace_distance,
    _eigh,
)

logger = logging.getLogger("snakeweaver.merge")


class EmptyOverlapError(GeometryError):
    """The two operands share no sites."""


class SupportMismatchError(StateError):
    """The overlap marginals live on essentially disjoint supports; no convention is defined."""


class MergePreconditionError(ValueError):
    """A merging-lemma hypothesis fails beyond tolerance."""


class RightMergeInfo(NamedTuple):
    overlap: tuple
    trace_before_renorm: float
    clipped_weight: float


def right_merge_info(sigma: DensityOperator, rho: DensityOperator) -> tuple[DensityOperator, RightMergeInfo]:
    """Right-merge of ``rho`` into ``sigma``: rho_BC^1/2 rho_B^-1/2 sigma rho_B^-1/2 rho_BC^1/2.

    B is the overlap of the two regions, extended by identity factors on the
    unshared sites.  The output is Hermitized, clip-repaired (for dimensions up
    to the repair bound) and renormalized; the trace before renormalization is
    reported in the info record.  Inverses are pseudo-inverses on the numerical
    support of rho_B; weight outside the support is dropped and reported.
    """
    if sigma.local_dim != rho.local_dim:
        raise GeometryError("local dims differ between merge operands")
    d = sigma.local_dim
    overlap = region_intersection(sigma.region, rho.region)
    total = region_union(sigma.region, rho.region)
    check_dim_guard(d ** len(total))
    if not overlap:
        raise EmptyOverlapError("merge operands share no sites; use product_operator for a tensor product")

    # K = rho_BC^1/2 (rho_B^-1/2 (x) I_C) = ((rho_B^-1/2 (x) I_C) rho_BC^1/2)^dag, both roots Hermitian
    rho_b = partial_trace(rho, overlap)
    b_pos = [rho.site_pos(s) for s in overlap]
    k_bc = apply_on_sites(pinv_sqrt_psd(rho_b.matrix), sqrt_psd(rho.matrix), b_pos, d).conj().T
    # X = sigma (x) I_C / dim C; the scale is undone on the trace below
    ext = region_difference(rho.region, overlap)
    dim_ext = d ** len(ext)
    out = product_operator([sigma, DensityOperator(ext, d, np.eye(dim_ext) / dim_ext)]).matrix
    # K X K^dag = (conj(K) (K X)^T)^T: K acts on rho's legs only and the transposes are views
    r_pos = [total.index(s) for s in rho.region]
    out = apply_on_sites(k_bc, out, r_pos, d)
    out = apply_on_sites(k_bc.conj(), out.T, r_pos, d)
    out = 0.5 * (out.conj() + out.T)

    tr_x = float(out.trace().real)
    tr = tr_x * dim_ext
    if tr < 1e-12:
        raise SupportMismatchError(
            f"merged trace {tr:.3e}: overlap marginals have no common support"
        )
    out = out / tr_x
    clipped = 0.0
    if out.shape[0] <= REPAIR_DIM_MAX:
        w, u = _eigh(out)
        if w[0] < -NEG_EIG_ABORT:
            raise StateError(f"merge produced eigenvalue {w[0]:.3e}, beyond repair")
        if w[0] < 0.0:
            clipped = float(-w[w < 0.0].sum())
            w = np.clip(w, 0.0, None)
            w = w / w.sum()
            out = (u * w) @ u.conj().T
    dev = abs(tr - 1.0)
    if dev > 1e-6:
        logger.warning("right_merge trace deviated by %.3e before renormalization", dev)
    info = RightMergeInfo(overlap, tr, clipped)
    return DensityOperator(total, d, out), info


def right_merge(sigma: DensityOperator, rho: DensityOperator) -> DensityOperator:
    out, _ = right_merge_info(sigma, rho)
    return out


class MarkovCheck(NamedTuple):
    ok: bool
    residual: float
    cmi: float


def is_markov_via_recovery(
    op: DensityOperator, A, B, C, tol: float = 1e-8, base: float = 2.0
) -> MarkovCheck:
    """Petz test: does recovering from the AB marginal through B reproduce the state?

    The residual is the trace distance between ``op`` (reduced to A+B+C) and
    right_merge(op_AB, op_BC); the conditional mutual information is returned
    alongside as a cross-check since both vanish together.
    """
    A, B, C = as_region(A), as_region(B), as_region(C)
    abc = region_union(A, B, C)
    sub = partial_trace(op, abc)
    merged = right_merge(partial_trace(sub, region_union(A, B)), partial_trace(sub, region_union(B, C)))
    residual = trace_distance(sub, merged)
    i_val = cmi(sub, A, B, C, base=base)
    if (residual <= tol) != (i_val <= max(tol, 1e-6)):
        logger.debug(
            "recovery residual %.3e and CMI %.3e straddle tolerance %g", residual, i_val, tol
        )
    return MarkovCheck(residual <= tol, residual, i_val)


def merging_lemma_combine(
    rho: DensityOperator,
    sigma: DensityOperator,
    B,
    C,
    *,
    tol: float = 1e-8,
    strict: bool = True,
) -> DensityOperator:
    """Combine rho on A+B+C with sigma on B+C+D into tau on A+B+C+D.

    Hypotheses: the operands agree on B+C, I(A:C|B) vanishes for rho and
    I(B:D|C) vanishes for sigma (within ``tol``).  Then tau = rho <| sigma_CD
    is consistent with both inputs and satisfies I(A:CD|B) = I(AB:D|C) = 0;
    equality with sigma_BCD <| rho_AB is a theorem, not an assumption, and is
    exercised in the tests.  With ``strict=False`` hypothesis violations warn
    instead of raising.
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

    def _complain(msg: str) -> None:
        if strict:
            raise MergePreconditionError(msg)
        warnings.warn(msg, stacklevel=3)

    overlap_dist = trace_distance(partial_trace(rho, bc), partial_trace(sigma, bc))
    if overlap_dist > tol:
        _complain(f"operands disagree on the overlap: trace distance {overlap_dist:.3e}")
    i_rho = cmi(rho, A, B, C)
    if i_rho > tol:
        _complain(f"I(A:C|B) = {i_rho:.3e} on the left operand exceeds {tol:.0e}")
    i_sigma = cmi(sigma, B, C, D)
    if i_sigma > tol:
        _complain(f"I(B:D|C) = {i_sigma:.3e} on the right operand exceeds {tol:.0e}")

    return right_merge(rho, partial_trace(sigma, region_union(C, D)))
