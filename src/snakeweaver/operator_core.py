"""Dense density-operator algebra bound to lattice regions.

Tensor-factor convention: the sites of a region in canonical order (y, then x)
index the tensor factors most-significant first, so the flat matrix index of a
basis state is the base-d number whose leading digit belongs to the first site.
``_reorder_sites`` is the one place that turns sites into tensor axes; every
partial trace, product, embedding and leg-local application (``apply_on_sites``)
goes through it.  All operators are stored as complex128; helpers transparently
drop to real arithmetic when the imaginary part is exactly zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
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

logger = logging.getLogger("snakeweaver.operator_core")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_CLIP_REL = 1e-10       # relative support cutoff: 1e-10 * largest eigenvalue
NEG_EIG_ABORT = 1e-8       # eigenvalues below -1e-8 signal a logic bug, not rounding
DENSE_DIM_GUARD = 2 ** 14  # refuse to materialize anything bigger
REPAIR_DIM_MAX = 1024      # spectral clip-repair of merge outputs only up to this size


class StateError(ValueError):
    """Matrix fails a density-operator invariant."""


class RegionMismatchError(ValueError):
    """Operands live on different regions or local dimensions."""


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


def _eigh(mat: np.ndarray):
    return np.linalg.eigh(_as_real_if_possible(mat))


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_as_real_if_possible(mat))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A trace-one positive matrix on the sites of ``region`` with ``local_dim`` levels per site."""

    region: Region
    local_dim: int
    matrix: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        region = as_region(self.region)
        object.__setattr__(self, "region", region)
        if self.local_dim < 2:
            raise StateError(f"local_dim must be >= 2, got {self.local_dim}")
        dim = self.local_dim ** len(region)
        mat = np.asarray(self.matrix)
        if mat.shape != (dim, dim):
            raise StateError(
                f"matrix shape {mat.shape} does not match d^n = {dim} for {len(region)} sites"
            )
        if not np.iscomplexobj(mat):
            mat = mat.astype(np.complex128)
        else:
            mat = np.ascontiguousarray(mat, dtype=np.complex128)
        if self.validate:
            herm = np.max(np.abs(mat - mat.conj().T)) if dim > 0 else 0.0
            if herm > HERMITICITY_TOL:
                raise StateError(f"matrix is not Hermitian: max deviation {herm:.3e}")
            tr = mat.trace()
            if abs(tr - 1.0) > TRACE_TOL:
                raise StateError(f"trace is {tr}, expected 1 within {TRACE_TOL:.0e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigvals_cache", None)

    @property
    def n_sites(self) -> int:
        return len(self.region)

    @property
    def dim(self) -> int:
        return self.local_dim ** len(self.region)

    def site_pos(self, v) -> int:
        return self.region.index(tuple(v))

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum, computed once per instance (operators are immutable)."""
        if self._eigvals_cache is None:
            object.__setattr__(self, "_eigvals_cache", _eigvalsh(self.matrix))
        return self._eigvals_cache

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def validate_spectrum(self, tol: float = 1e-10) -> None:
        lo = self.min_eigenvalue()
        if lo < -tol:
            raise StateError(f"smallest eigenvalue {lo:.3e} is below -{tol:.0e}")

    def region_entropy(self, region, base: float = 2.0) -> float:
        return entropy(partial_trace(self, region), base=base)


def _require_same_support(a: DensityOperator, b: DensityOperator) -> None:
    if a.local_dim != b.local_dim:
        raise RegionMismatchError(f"local dims differ: {a.local_dim} vs {b.local_dim}")
    if a.region != b.region:
        raise RegionMismatchError(f"regions differ: {a.region} vs {b.region}")


def _reorder_sites(mat: np.ndarray, order: Sequence, new_order: Sequence, d: int) -> np.ndarray:
    """Re-express a d^n-dim matrix whose tensor factors follow the sites ``order`` in ``new_order``.

    Rows and columns are permuted alike; the result is contiguous.
    """
    pos = {s: i for i, s in enumerate(order)}
    perm = [pos[s] for s in new_order]
    n = len(perm)
    t = mat.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(mat.shape))


def apply_on_sites(op: np.ndarray, mat: np.ndarray, positions: Sequence[int], local_dim: int) -> np.ndarray:
    """``op`` acting on the tensor factors at ``positions`` (identity on the rest) times ``mat``.

    ``mat`` is a square d^n-dim matrix; ``op`` is d^k-dim with its factors in
    the order of ``positions``.  Factors that are not already adjacent and in
    that order are moved in front and back again, so ``op (x) I`` is never
    formed and the cost is d^(2n+k) rather than d^(3n).
    """
    d = local_dim
    n = round(math.log(mat.shape[0], d))
    k = len(positions)
    if d ** n != mat.shape[0] or op.shape != (d ** k,) * 2:
        raise ValueError(f"cannot apply a {op.shape} operator to {k} factors of a {mat.shape} matrix")
    start = positions[0]
    if list(positions) != list(range(start, start + k)):
        sites = range(n)
        front = list(positions) + [i for i in sites if i not in positions]
        out = apply_on_sites(op, _reorder_sites(mat, sites, front, d), range(k), d)
        return _reorder_sites(out, front, sites, d)
    return np.matmul(op, mat.reshape(d ** start, d ** k, -1)).reshape(mat.shape)


def partial_trace(op: DensityOperator, keep) -> DensityOperator:
    """Trace out everything outside ``keep``; the kept sites stay in canonical order."""
    keep = as_region(keep)
    keep_set = set(keep)
    if not keep_set <= set(op.region):
        raise GeometryError(f"keep region {keep} is not contained in {op.region}")
    if keep == op.region:
        return op
    d = op.local_dim
    drop = [s for s in op.region if s not in keep_set]
    dk, dt = d ** len(keep), d ** len(drop)
    t = _reorder_sites(op.matrix, op.region, list(keep) + drop, d)
    out = np.einsum("itjt->ij", t.reshape(dk, dt, dk, dt))
    out = 0.5 * (out + out.conj().T)
    return DensityOperator(keep, d, out)


def embed_operator(mat: np.ndarray, sub, full, local_dim: int) -> np.ndarray:
    """Tensor ``mat`` (acting on ``sub``) with identity on the rest of ``full``, canonically ordered."""
    sub = as_region(sub)
    full = as_region(full)
    if not set(sub) <= set(full):
        raise GeometryError(f"sub region {sub} is not contained in {full}")
    rest = [s for s in full if s not in set(sub)]
    if not rest:
        return mat
    big = np.kron(mat, np.eye(local_dim ** len(rest), dtype=mat.dtype))
    return _reorder_sites(big, list(sub) + rest, full, local_dim)


def product_operator(ops: Iterable[DensityOperator]) -> DensityOperator:
    """Tensor product of operators on pairwise disjoint regions."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    d = ops[0].local_dim
    seen: set = set()
    for op in ops:
        if op.local_dim != d:
            raise RegionMismatchError("local dims differ across factors")
        if seen & set(op.region):
            raise GeometryError("factor regions overlap")
        seen.update(op.region)
    full = region_union(*(op.region for op in ops))
    order = [s for op in ops for s in op.region]
    mat = _reorder_sites(reduce(np.kron, (op.matrix for op in ops)), order, full, d)
    return DensityOperator(full, d, mat)


def _entropy_from_eigs(w: np.ndarray, base: float) -> float:
    top = float(w[-1]) if len(w) else 0.0
    cutoff = EIG_CLIP_REL * max(top, 0.0)
    p = w[w > cutoff]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log(p)).sum() / np.log(base))


def entropy(op: DensityOperator, base: float = 2.0) -> float:
    """Von Neumann entropy in units of log ``base`` (base 2 by default)."""
    return _entropy_from_eigs(op.eigenvalues(), base)


def conditional_entropy(op: DensityOperator, A, B, base: float = 2.0) -> float:
    """S(A|B) = S(AB) - S(B), computed on reductions of ``op``."""
    A, B = as_region(A), as_region(B)
    ab = region_union(A, B)
    s_ab = entropy(partial_trace(op, ab), base)
    s_b = entropy(partial_trace(op, B), base) if B else 0.0
    return s_ab - s_b


def cmi(op: DensityOperator, A, B, C, base: float = 2.0) -> float:
    """Conditional mutual information I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC).

    A and C must be nonempty; B may be empty, which gives the plain mutual
    information.  Symmetric in A and C term by term.
    """
    A, B, C = as_region(A), as_region(B), as_region(C)
    if not A or not C:
        raise GeometryError("A and C must be nonempty")
    sa, sb, sc = set(A), set(B), set(C)
    if sa & sb or sa & sc or sb & sc:
        raise GeometryError("A, B, C must be pairwise disjoint")
    sub = partial_trace(op, region_union(A, B, C))
    s_ab = entropy(partial_trace(sub, region_union(A, B)), base)
    s_bc = entropy(partial_trace(sub, region_union(B, C)), base)
    s_b = entropy(partial_trace(sub, B), base) if B else 0.0
    s_abc = entropy(sub, base)
    return s_ab + s_bc - s_b - s_abc


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """Half the trace norm of the difference; in [0, 1] for states."""
    _require_same_support(a, b)
    w = _eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(w).sum())


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


def region_entropy_of(provider, region, base: float = 2.0):
    region = as_region(region)
    if not region:
        return 0
    return provider.region_entropy(region, base=base)


def med(provider, path, base: float = 2.0):
    """Markov entropy decomposition over a block path.

    Adds S(block_k | N(block_k) & V_{k-1}) per block, where the conditioning set
    is the intersection of the block's graph neighborhood with everything seen
    so far; the first block contributes its plain entropy.  ``provider`` may be
    a global DensityOperator, a MarginalSet, a generator source, or a
    stabilizer state; it only ever gets asked for bounded regions around each
    block.  Upper-bounds the entropy of any state with these marginals.
    """
    blocks = validate_block_path(path)
    total = 0
    seen: set = set()
    for k, block in enumerate(blocks):
        if k == 0:
            total = total + region_entropy_of(provider, block, base)
        else:
            cond = tuple(v for v in region_neighborhood(block) if v in seen)
            s_joint = region_entropy_of(provider, region_union(block, cond), base)
            s_cond = region_entropy_of(provider, cond, base) if cond else 0
            total = total + (s_joint - s_cond)
        seen.update(block)
    return total
