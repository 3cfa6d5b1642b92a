"""Dense density-operator algebra bound to lattice regions.

Tensor-factor convention: the sites of a region in canonical order (y, then x)
index the tensor factors most-significant first, so the flat matrix index of a
basis state is the binary number whose leading bit belongs to the first site.
Every site is a qubit: ``LOCAL_DIM`` is 2 and nothing sets another value, since
a 3x3 cluster of d >= 3 levels (d^9 >= 19683 dims) is past the dense guard.
``_reorder_sites``, the one leg map, permutes and traces sites as tensor axes
in one contraction; every partial trace, product, embedding and leg-local
application (``apply_on_sites``) goes through it.  Reductions are validated,
not symmetrized: one scales its input's deviation from Hermitian by up to
2^(traced sites).  Operators are complex128; helpers drop to real arithmetic
when the imaginary part is exactly zero.  Entropies and CMIs are in bits.

Region entropies have one protocol: a provider answers ``region_entropy(region)``
for a nonempty region.  ``DensityOperator``, ``MarginalSet``, ``RegionEntropies``
and the oracle sources (``RowMarkovSource``, ``ProductSource``,
``StabilizerState``) do; ``cmi`` and ``med`` read nothing else.  A ``DensityOperator`` computes each region's
entropy once, as it computes its spectrum once.

A trace distance compared with a tolerance has one rule,
``certified_trace_distance``: the Frobenius upper bound when it passes, the
exact distance otherwise, so the verdict is the exact one.  ``trace_distance``
alone is for a distance that must be shown large, which no upper bound can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    GeometryError,
    Region,
    as_region,
    region_neighborhood,
    region_union,
    validate_block_path,
)

LOCAL_DIM = 2              # levels per site: every site is a qubit
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
SPECTRUM_TOL = 1e-10       # stored states may dip this far below zero from rounding
EIG_CLIP_REL = 1e-10       # relative support cutoff of pinv_sqrt_psd: 1e-10 * largest eigenvalue
NEG_EIG_ABORT = 1e-8       # sqrt_psd/pinv_sqrt_psd operands below -1e-8 signal a logic bug; merge outputs go unchecked
DENSE_DIM_GUARD = 2 ** 14  # refuse to materialize anything bigger
# Block side of the Hermiticity check, of merge Hermitization and of the in-place transpose (square blocks), and the
# row-strip height of the Frobenius bound.  The first two reuse one or two 256 KB block buffers per call; as 128-row
# strips they made three 1 MB temporaries per strip of a 512-dim matrix, and were slower on a 2-core host (median of
# interleaved runs, check / Hermitization): 256-dim 0.48 / 0.48 -> 0.32 / 0.34 ms, 512-dim 2.6 / 2.7 -> 1.3 / 1.7 ms,
# 4096-dim 406 / 366 -> 194 / 301 ms.
HERM_BLOCK_ROWS = 128


class StateError(ValueError):
    """Matrix fails a density-operator invariant."""


class RegionMismatchError(ValueError):
    """Operands live on different regions."""


class DimensionGuardError(ValueError):
    """Requested dense dimension exceeds the guard."""


def check_dim_guard(dim: int, guard: int | None = None) -> None:
    g = DENSE_DIM_GUARD if guard is None else guard
    if dim > g:
        raise DimensionGuardError(
            f"dense dimension {dim} exceeds the guard of {g}; "
            f"refusing to materialize"
        )


def _as_real_if_possible(mat: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(mat) and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


def _hermiticity_deviation(mat: np.ndarray) -> float:
    """max|A - A^H| of a square matrix; taller ones go by square blocks of HERM_BLOCK_ROWS, so no strip is formed.

    |x - conj(y)| and |y - conj(x)| are bitwise equal, so block (i, j) stands for block (j, i) and only blocks on and
    above the diagonal are read: the maximum is the full expression's, bit for bit.  Each block's difference is made
    in one reused buffer.  A matrix of at most HERM_BLOCK_ROWS rows is one block, taken without the buffers, whose
    per-call cost would dominate for the many small marginals.
    """
    n, h = mat.shape[0], HERM_BLOCK_ROWS
    if n <= h:
        return float(np.max(np.abs(mat - mat.conj().T)))
    diff, mag = np.empty((h, h), dtype=mat.dtype), np.empty((h, h))
    peaks = []
    for i in range(0, n, h):
        for j in range(i, n, h):
            upper = mat[i:i + h, j:j + h]
            d, m = diff[:upper.shape[0], :upper.shape[1]], mag[:upper.shape[0], :upper.shape[1]]
            np.conjugate(mat[j:j + h, i:i + h].T, out=d)
            np.subtract(upper, d, out=d)
            peaks.append(np.max(np.abs(d, out=m)))
    return float(np.max(peaks))


def _transpose_in_place(mat: np.ndarray) -> None:
    """Replace a square contiguous ``mat`` by its transpose in place, swapping square blocks of HERM_BLOCK_ROWS.

    Pure data movement, so the bytes equal ``np.ascontiguousarray(mat.T)``; the temporaries are one block each.
    """
    n, h = mat.shape[0], HERM_BLOCK_ROWS
    for i in range(0, n, h):
        for j in range(i, n, h):
            upper = mat[i:i + h, j:j + h].T.copy()
            mat[i:i + h, j:j + h] = mat[j:j + h, i:i + h].T
            mat[j:j + h, i:i + h] = upper


def _eigh(mat: np.ndarray):
    return np.linalg.eigh(_as_real_if_possible(mat))


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_as_real_if_possible(mat))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A trace-one positive matrix on the qubits of ``region``.

    ``hermiticity_deviation`` is max|A - A^H| of the stored matrix, measured once when the operator is made.
    """

    region: Region
    matrix: np.ndarray

    def __post_init__(self):
        region = as_region(self.region)
        object.__setattr__(self, "region", region)
        dim = LOCAL_DIM ** len(region)
        mat = np.asarray(self.matrix)
        if mat.shape != (dim, dim):
            raise StateError(
                f"matrix shape {mat.shape} does not match 2^n = {dim} for {len(region)} sites"
            )
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        herm = _hermiticity_deviation(mat)
        object.__setattr__(self, "hermiticity_deviation", herm)
        if herm > HERMITICITY_TOL:
            raise StateError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace is {tr}, expected 1 within {TRACE_TOL:.0e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigvals_cache", None)
        object.__setattr__(self, "_entropy_cache", {})

    @property
    def dim(self) -> int:
        return LOCAL_DIM ** len(self.region)

    def site_pos(self, v) -> int:
        return self.region.index(tuple(v))

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, computed once per instance (operators are immutable)."""
        if self._eigvals_cache is None:
            object.__setattr__(self, "_eigvals_cache", _eigvalsh(self.matrix))
        return self._eigvals_cache

    def validate_spectrum(self) -> None:
        lo = float(self.eigenvalues()[0])
        if lo < -SPECTRUM_TOL:
            raise StateError(f"smallest eigenvalue {lo:.3e} is below -{SPECTRUM_TOL:.0e}")

    def region_entropy(self, region) -> float:
        """Entropy in bits of the reduction to ``region``, computed once per region (operators are immutable)."""
        region = as_region(region)
        if region not in self._entropy_cache:
            self._entropy_cache[region] = entropy(partial_trace(self, region))
        return self._entropy_cache[region]


def _require_same_support(a: DensityOperator, b: DensityOperator) -> None:
    if a.region != b.region:
        raise RegionMismatchError(f"regions differ: {a.region} vs {b.region}")


def _reorder_sites(mat: np.ndarray, order: Sequence, new_order: Sequence) -> np.ndarray:
    """``mat``, with tensor factors on the sites ``order``, traced and permuted onto the sites ``new_order``.

    One einsum of the ``(2,) * 2n`` leg view, which any view of ``mat`` (a transposed one too) gives without a copy;
    a traced site's column leg carries its row leg's label.  The result is contiguous and not symmetrized.
    """
    pos = {s: i for i, s in enumerate(order)}
    kept = [pos[s] for s in new_order]
    n, dk = len(order), LOCAL_DIM ** len(kept)
    cols = [n + i if i in kept else i for i in range(n)]
    t = np.einsum(mat.reshape((LOCAL_DIM,) * (2 * n)), list(range(n)) + cols, kept + [n + i for i in kept])
    return np.ascontiguousarray(t).reshape(dk, dk)


def apply_on_sites(op: np.ndarray, mat: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """``op`` acting on the tensor factors at ``positions`` (identity on the rest) times ``mat``.

    ``mat`` is a square 2^n-dim matrix; ``op`` is 2^k-dim with its factors in
    the order of ``positions``.  Factors that are not already adjacent and in
    that order are moved in front and back again, so ``op (x) I`` is never
    formed and the cost is 2^(2n+k) rather than 2^(3n).
    """
    d = LOCAL_DIM
    n = round(math.log(mat.shape[0], d))
    k = len(positions)
    if d ** n != mat.shape[0] or op.shape != (d ** k,) * 2:
        raise ValueError(f"cannot apply a {op.shape} operator to {k} factors of a {mat.shape} matrix")
    start = positions[0]
    if list(positions) != list(range(start, start + k)):
        sites = range(n)
        front = list(positions) + [i for i in sites if i not in positions]
        out = apply_on_sites(op, _reorder_sites(mat, sites, front), range(k))
        return _reorder_sites(out, front, sites)
    return np.matmul(op, mat.reshape(d ** start, d ** k, -1)).reshape(mat.shape)


def partial_trace(op: DensityOperator, keep) -> DensityOperator:
    """Trace out everything outside ``keep`` with the leg map; the kept sites stay in canonical order."""
    keep = as_region(keep)
    if not set(keep) <= set(op.region):
        raise GeometryError(f"keep region {keep} is not contained in {op.region}")
    if keep == op.region:
        return op
    return DensityOperator(keep, _reorder_sites(op.matrix, op.region, keep))


def embed_operator(mat: np.ndarray, sub, full) -> np.ndarray:
    """Tensor ``mat`` (acting on ``sub``) with identity on the rest of ``full``, canonically ordered."""
    sub = as_region(sub)
    full = as_region(full)
    if not set(sub) <= set(full):
        raise GeometryError(f"sub region {sub} is not contained in {full}")
    rest = [s for s in full if s not in set(sub)]
    if not rest:
        return mat
    big = np.kron(mat, np.eye(LOCAL_DIM ** len(rest), dtype=mat.dtype))
    return _reorder_sites(big, list(sub) + rest, full)


def product_operator(ops: Iterable[DensityOperator]) -> DensityOperator:
    """Tensor product of operators on pairwise disjoint regions."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    seen: set = set()
    for op in ops:
        if seen & set(op.region):
            raise GeometryError("factor regions overlap")
        seen.update(op.region)
    full = region_union(*(op.region for op in ops))
    order = [s for op in ops for s in op.region]
    mat = _reorder_sites(reduce(np.kron, (op.matrix for op in ops)), order, full)
    return DensityOperator(full, mat)


def _entropy_from_eigs(w: np.ndarray) -> float:
    """Entropy in bits of a spectrum; every positive eigenvalue counts, since any cutoff biases it low."""
    p = w[w > 0.0]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log(p)).sum() / np.log(2.0))


def entropy(op: DensityOperator) -> float:
    """Von Neumann entropy in bits."""
    return _entropy_from_eigs(op.eigenvalues())


def cmi(provider, A, B, C) -> float:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC), in bits.

    ``provider`` is anything with ``region_entropy`` (see the module docstring);
    a ``DensityOperator`` reduces each region from its own matrix and caches
    the entropy, so CMIs that share regions share their spectra.  A and C must
    be nonempty; B may be empty, which gives the plain mutual information.
    Symmetric in A and C term by term.
    """
    A, B, C = as_region(A), as_region(B), as_region(C)
    if not A or not C:
        raise GeometryError("A and C must be nonempty")
    sa, sb, sc = set(A), set(B), set(C)
    if sa & sb or sa & sc or sb & sc:
        raise GeometryError("A, B, C must be pairwise disjoint")
    s_ab = provider.region_entropy(region_union(A, B))
    s_bc = provider.region_entropy(region_union(B, C))
    s_b = provider.region_entropy(B) if B else 0
    return s_ab + s_bc - s_b - provider.region_entropy(region_union(A, B, C))


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of the difference; in [0, 1] for states."""
    _require_same_support(a, b)
    w = _eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(w).sum())


def certified_trace_distance(a: DensityOperator, b: DensityOperator, tol: float) -> tuple[float, str]:
    """``(value, method)``: the bound 1/2 sqrt(D) ||a - b||_F when it is at most ``tol``, else the exact distance.

    ||X||_1 <= sqrt(rank X) ||X||_F, so the bound is never below ``trace_distance`` and a bound that passes ``tol``
    certifies that the exact value does.  The Frobenius norm goes by row strips of HERM_BLOCK_ROWS, so no difference
    matrix is formed; only an inconclusive bound pays for the spectrum.
    """
    _require_same_support(a, b)
    n, h = a.dim, HERM_BLOCK_ROWS
    sq = 0.0
    for i in range(0, n, h):
        strip = a.matrix[i:i + h] - b.matrix[i:i + h]
        sq += float(np.vdot(strip, strip).real)
    bound = 0.5 * math.sqrt(n * sq)
    if bound <= tol:
        return bound, "frobenius-bound"
    return trace_distance(a, b), "exact"


def sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """PSD square root via eigendecomposition; eigenvalues below -NEG_EIG_ABORT abort."""
    w, u = _eigh(mat)
    if w[0] < -NEG_EIG_ABORT:
        raise StateError(f"matrix is not PSD: eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def pinv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Inverse square root on the numerical support (above EIG_CLIP_REL of the top); zero elsewhere."""
    w, u = _eigh(mat)
    if w[0] < -NEG_EIG_ABORT:
        raise StateError(f"matrix is not PSD: eigenvalue {w[0]:.3e}")
    cutoff = EIG_CLIP_REL * max(float(w[-1]), 0.0)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (u * inv) @ u.conj().T


def med_conditioning(path):
    """The (block, cond) pairs of the Markov entropy decomposition over a block path, in path order.

    ``cond`` is the intersection of the block's graph neighborhood with every
    block before it, so the first block's is empty and, by the growth rule,
    no later one's is.
    """
    seen: set = set()
    for block in validate_block_path(path):
        yield block, tuple(v for v in region_neighborhood(block) if v in seen)
        seen.update(block)


def med(provider, path):
    """Markov entropy decomposition over a block path, in bits.

    Adds S(block_k | N(block_k) & V_{k-1}) per block, over the pairs of
    ``med_conditioning``; the first block contributes its plain entropy.
    ``provider`` may be a global DensityOperator, a MarginalSet, a generator
    source, or a stabilizer state; it only ever gets asked, through
    ``region_entropy``, for bounded nonempty regions around each block.
    Upper-bounds the entropy of any state with these marginals.
    """
    total = 0
    for block, cond in med_conditioning(path):
        s_joint = provider.region_entropy(region_union(block, cond))
        s_cond = provider.region_entropy(cond) if cond else 0
        total = total + (s_joint - s_cond)
    return total
