"""Fundamental 3x3-cluster marginals over a finite window: storage, checks, derived marginals, file format.

A marginal set needs at least one 3x3 cluster, so its window is at least 3x3.

Every matrix file is one uncompressed ``.npz`` container, read with
``allow_pickle=False``.  A marginal file (``save_marginals``,
``MarginalSet.save``) holds the int64 members ``format_version`` (2),
``window`` (width, height), ``local_dim`` and ``anchors`` (k, 2) in canonical
order, and ``matrices`` (k, D, D) complex128 with D = 2 ** 9 = 512.  A state
file (``save_state``) holds ``format_version``, ``local_dim``, ``region``
(n, 2) and ``matrix``.  ``local_dim`` is always ``LOCAL_DIM`` (2): writers emit
it, and ``MarginalSet.load`` refuses any other value before it opens
``anchors`` or ``matrices``.  Readers ignore members they do not know, and
refuse a member from its ``.npy`` header, before any of its data is read, when
the header declares another dtype or shape; ``anchors`` must declare one row
per cluster of the window.

``matrices`` is written as a stream: each cluster's matrix goes to the file as
it is produced, so a writer holds one cluster at a time.  Every file is
written to a temporary sibling and renamed onto its path once complete, so a
write that fails leaves no file, and whatever stood at the path stays as it
was.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .lattice import (
    GeometryError,
    Region,
    Vertex,
    as_region,
    as_vertex,
    canonical_key,
    cluster_region,
    region_intersection,
    rotate_pi_local,
)
from .operator_core import (
    DENSE_DIM_GUARD,
    HERMITICITY_TOL,
    LOCAL_DIM,
    DensityOperator,
    StateError,
    certified_trace_distance,
    cmi,
    partial_trace,
)

FORMAT_VERSION = 2

# The four base conditions on a 3x3 cluster, in cluster-local coordinates
# (x, y) with (0, 0) the bottom-left site.  Triples are (A, B, C) asserting
# I(A:C|B) = 0 on the fundamental marginal; indices 4..7 are the pi-rotations.
_CM_BASE: tuple[tuple[tuple, tuple, tuple], ...] = (
    (((1, 0),), ((0, 0),), ((0, 1),)),
    (((2, 0), (2, 1)), ((1, 0), (1, 1)), ((0, 0), (0, 1), (0, 2), (1, 2))),
    (((0, 0), (1, 0), (2, 0), (2, 1)), ((0, 1), (1, 1)), ((0, 2), (1, 2))),
    (((0, 0), (1, 0), (2, 0), (0, 1), (0, 2)), ((1, 1), (2, 1), (1, 2)), ((2, 2),)),
)


class MarginalFileError(ValueError):
    """Unparseable or inconsistent marginal file."""


class MissingMarginalError(GeometryError):
    """Requested region is not contained in any stored cluster."""


@dataclass(frozen=True)
class Window:
    """A W x H block of sites with its bottom-left corner at the origin."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise GeometryError(f"window must be at least 1x1, got {self.width}x{self.height}")

    def sites(self) -> Region:
        return as_region([(x, y) for x in range(self.width) for y in range(self.height)])

    def contains(self, v) -> bool:
        x, y = as_vertex(v)
        return 0 <= x < self.width and 0 <= y < self.height

    def contains_region(self, region) -> bool:
        return all(self.contains(v) for v in region)

    def cluster_anchors(self) -> tuple[Vertex, ...]:
        """Anchors of the 3x3 clusters fully inside the window."""
        xs, ys = self._anchor_ranges()
        return tuple((x, y) for y in ys for x in xs)

    def cluster_count(self) -> int:
        """``len(self.cluster_anchors())``, without listing the anchors."""
        xs, ys = self._anchor_ranges()
        return len(xs) * len(ys)

    def _anchor_ranges(self) -> tuple[range, range]:
        return range(2, self.width), range(self.height - 2)


@dataclass(frozen=True)
class CmCondition:
    """One Markov condition I(A:C|B) = 0 on the 3x3 cluster anchored at ``anchor``."""

    anchor: Vertex
    index: int
    A: Region
    B: Region
    C: Region


def _embed_local(anchor: Vertex, local_sites) -> Region:
    ax, ay = anchor
    return as_region([(ax - 2 + lx, ay + ly) for lx, ly in local_sites])


def c_m_conditions(anchor, window: Window | None = None) -> list[CmCondition]:
    """The eight conditions of one cluster: four base diagrams plus their pi-rotations."""
    anchor = as_vertex(anchor)
    if window is not None and not window.contains_region(cluster_region(anchor, 3, 3)):
        raise GeometryError(f"3x3 cluster at {anchor} is not inside the window")
    out = []
    for offset, turn in ((0, lambda p: p), (4, rotate_pi_local)):
        for idx, parts in enumerate(_CM_BASE):
            a, b, c = (_embed_local(anchor, [turn(p) for p in part]) for part in parts)
            out.append(CmCondition(anchor, idx + offset, a, b, c))
    return out


@dataclass
class CheckRecord:
    check_id: str
    kind: str
    residual: float
    tol: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    """A flat list of per-condition records with summary maxima derived from them."""

    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, kind: str, residual: float, tol: float, **detail) -> CheckRecord:
        rec = CheckRecord(check_id, kind, float(residual), float(tol), float(residual) <= float(tol), detail)
        self.records.append(rec)
        return rec

    def add_distance(self, check_id: str, kind: str, a: DensityOperator, b: DensityOperator, tol: float,
                     **detail) -> CheckRecord:
        """Record ``certified_trace_distance(a, b, tol)``; its method is the last detail key."""
        distance, method = certified_trace_distance(a, b, tol)
        return self.add(check_id, kind, distance, tol, **detail, method=method)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def max_residual(self, kind: str | None = None) -> float:
        vals = [r.residual for r in self.records if kind is None or r.kind == kind]
        return max(vals) if vals else 0.0

    def summary(self) -> dict:
        kinds = sorted({r.kind for r in self.records})
        return {
            k: {
                "checks": sum(1 for r in self.records if r.kind == k),
                "failures": sum(1 for r in self.records if r.kind == k and not r.passed),
                "max_residual": self.max_residual(k),
            }
            for k in kinds
        }

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }


def _region_json(region: Region) -> list:
    return [[x, y] for x, y in region]


class Stack(NamedTuple):
    """A stacked member: ``shape[0]`` arrays of shape ``shape[1:]`` and ``dtype``, in the order ``arrays`` yields."""

    shape: tuple
    dtype: type
    arrays: Iterable[np.ndarray]


def _write_stack(fh, name: str, stack: Stack) -> None:
    """Write each array of ``stack`` as it is produced, after checking its shape and dtype, then the count."""
    count, shape, dtype = stack.shape[0], tuple(stack.shape[1:]), np.dtype(stack.dtype)
    written = 0
    for a in stack.arrays:
        a = np.asarray(a, order="C")
        if written == count:
            raise ValueError(f"member {name!r} declares {count} arrays, got more")
        if a.shape != shape or a.dtype != dtype:
            raise ValueError(
                f"member {name!r} stacks {dtype} arrays of shape {shape}, got {a.dtype} of shape {a.shape}"
            )
        fh.write(memoryview(a).cast("B"))
        written += 1
        del a  # so that the next array is built with this one released
    if written != count:
        raise ValueError(f"member {name!r} declares {count} arrays, got {written}")


def _write_container(path, **members) -> None:
    """Write ``members`` and the format version as an uncompressed .npz container at exactly ``path``.

    The bytes are those ``np.savez`` writes for the same C-ordered members.  A member given as a ``Stack`` is the
    stack of its arrays, each written right after the member's ``.npy`` header as it is produced, so neither the
    stack nor a chunk copy of it is formed; too few or too many arrays, or one of another shape or dtype, raise
    ValueError.  The container is written to a temporary sibling of ``path`` and renamed onto it once complete; on
    any exception the temporary file is removed and ``path`` is left as it was.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    zf = zipfile.ZipFile(tmp, "x", zipfile.ZIP_STORED, allowZip64=True)
    try:
        with zf:
            for name, value in {"format_version": FORMAT_VERSION, **members}.items():
                if not isinstance(value, Stack):
                    value = np.asarray(value, order="C")
                shape = tuple(map(int, value.shape))
                header = {"descr": np.lib.format.dtype_to_descr(np.dtype(value.dtype)), "fortran_order": False,
                          "shape": shape}
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array_header_1_0(fh, header)
                    if isinstance(value, Stack):
                        _write_stack(fh, name, value)
                    else:
                        fh.write(memoryview(value).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_marginals(path, window: Window, matrices: Iterable[np.ndarray]) -> None:
    """Write the marginal file of ``window`` from ``matrices``, one per 3x3 cluster in canonical anchor order.

    Each matrix is written as it is produced, so a generator that builds them holds one cluster at a time.
    """
    anchors = window.cluster_anchors()
    dim = LOCAL_DIM ** 9
    _write_container(
        path,
        window=np.array([window.width, window.height]),
        local_dim=LOCAL_DIM,
        anchors=np.array(anchors, dtype=np.int64).reshape(-1, 2),
        matrices=Stack((len(anchors), dim, dim), np.complex128, matrices),
    )


def save_state(state: DensityOperator, path) -> None:
    """Write a global or reconstructed state: ``local_dim``, ``region`` (n, 2) and ``matrix``."""
    _write_container(path, local_dim=LOCAL_DIM, region=np.array(state.region), matrix=state.matrix)


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


def _read_members(path, spec: dict, declared: Callable[[tuple], None] | None = None) -> dict:
    """Each member ``name`` of ``spec``, a map to ``(dtype, shape)``, read from the container at ``path``.

    A member is refused from its ``.npy`` header, before any of its data is read, when the header declares a dtype
    outside ``dtype`` or another shape; None in ``shape`` matches any length.  ``declared``, when given, is called
    with each member's declared shape after that check and before its data is read, and refuses it by raising
    MarginalFileError.  A missing member, or any read failure, is a MarginalFileError.
    """
    out = {}
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError(
                    "not an .npz container; JSON marginal files of format 1 are no longer read, "
                    "regenerate the file with `snakeweaver generate`"
                )
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                for name, (dtype, shape) in spec.items():
                    if name not in npz.files:
                        raise MarginalFileError(f"missing member {name!r}")
                    with npz.zip.open(f"{name}.npy") as member:
                        version = np.lib.format.read_magic(member)
                        if version not in _NPY_HEADER_READERS:
                            raise ValueError(f"member {name!r} has .npy format version {version}")
                        got_shape, _, got_dtype = _NPY_HEADER_READERS[version](member)
                    if (
                        not np.issubdtype(got_dtype, dtype)
                        or len(got_shape) != len(shape)
                        or any(want not in (None, got) for want, got in zip(shape, got_shape))
                    ):
                        raise MarginalFileError(
                            f"member {name!r} is {got_dtype} of shape {got_shape}, "
                            f"expected {dtype.__name__} of shape {shape}"
                        )
                    if declared is not None:
                        declared(got_shape)
                    out[name] = npz[name]
    except MarginalFileError:
        raise
    # zipfile and numpy report a damaged container through many unrelated exception types,
    # some with multi-line messages
    except Exception as exc:
        raise MarginalFileError(f"cannot read {path}: {' '.join(str(exc).split())}") from exc
    return out


def require_cluster(window: Window) -> int:
    """The number of 3x3 clusters in ``window``; a window without one has no marginal set and is refused."""
    clusters = window.cluster_count()
    if not clusters:
        raise MarginalFileError(f"a {window.width}x{window.height} window has no 3x3 cluster; it must be at least 3x3")
    return clusters


def _require_marginal_count(window: Window, count: int) -> None:
    """Refuse ``count`` marginals for ``window`` unless it is the window's nonzero cluster count, without listing
    anchors, so a crafted window costs nothing before it is refused."""
    clusters = require_cluster(window)
    if count != clusters:
        raise MarginalFileError(
            f"a {window.width}x{window.height} window has {clusters} 3x3 clusters, got {count} marginals"
        )


class MarginalSet:
    """The fundamental marginals of a window: one density operator per inside 3x3 cluster."""

    def __init__(self, window: Window, marginals: dict):
        self.window = window
        self.marginals: dict[Vertex, DensityOperator] = {}
        _require_marginal_count(window, len(marginals))
        expected = set(window.cluster_anchors())
        got = {as_vertex(a) for a in marginals}
        if got != expected:
            missing = sorted(expected - got, key=canonical_key)
            extra = sorted(got - expected, key=canonical_key)
            raise MarginalFileError(
                f"marginal anchors do not match the window: {len(missing)} missing, first {missing[:3]}; "
                f"{len(extra)} unexpected, first {extra[:3]}"
            )
        for a, op in marginals.items():
            a = as_vertex(a)
            want = cluster_region(a, 3, 3)
            if op.region != want:
                raise MarginalFileError(f"marginal at {a} lives on {op.region}, expected {want}")
            self.marginals[a] = op
        self._derived_cache: dict[Region, DensityOperator] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_global(cls, state: DensityOperator, window: Window) -> "MarginalSet":
        if state.region != window.sites():
            raise GeometryError("state region does not cover the window")
        margs = {
            a: partial_trace(state, cluster_region(a, 3, 3))
            for a in window.cluster_anchors()
        }
        return cls(window, margs)

    def anchors(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.marginals, key=canonical_key))

    # -- derived marginals ---------------------------------------------------

    def parents_of(self, region) -> list[Vertex]:
        region = as_region(region)
        if not region:
            raise MissingMarginalError("empty region has no parent cluster")
        xs = [v[0] for v in region]
        ys = [v[1] for v in region]
        out = []
        for ay in range(max(max(ys) - 2, 0), min(min(ys), self.window.height - 3) + 1):
            for ax in range(max(max(xs), 2), min(min(xs) + 2, self.window.width - 1) + 1):
                out.append((ax, ay))
        return sorted(out, key=canonical_key)

    def derived_marginal(self, region) -> DensityOperator:
        """Reduction of the stored marginal with the smallest parent anchor (y, then x), cached per region.

        The other parents are not read: the region lies in the overlap of any two, and partial trace does not grow
        the trace distance, so a full-pairwise ``check_local_consistency`` passing at ``tol`` certifies them all to
        ``tol``.  That check is the caller's; the CLI runs it before every command that reads derived marginals.
        """
        region = as_region(region)
        cached = self._derived_cache.get(region)
        if cached is not None:
            return cached
        out = self._derived_cache[region] = partial_trace(self._first_parent(region), region)
        return out

    def region_entropy(self, region) -> float:
        """Entropy in bits of the derived marginal, read from the first parent's own region-entropy cache, which the
        Markov checks fill too, so each (parent, region) spectrum is computed once."""
        region = as_region(region)
        return self._first_parent(region).region_entropy(region) if region else 0.0

    def _first_parent(self, region: Region) -> DensityOperator:
        """The stored marginal with the smallest anchor (y, then x) whose cluster contains ``region``."""
        parents = self.parents_of(region)
        if not parents:
            raise MissingMarginalError(f"region {region} is not contained in any inside 3x3 cluster")
        return self.marginals[parents[0]]

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        save_marginals(path, self.window, (self.marginals[a].matrix for a in self.anchors()))

    @classmethod
    def load(cls, path) -> "MarginalSet":
        """Read and validate a marginal file; every failure raises MarginalFileError.

        ``anchors`` is opened only once ``local_dim`` and the window pass, and each array member is refused from its
        header, so a crafted file is refused before any array it declares is allocated.
        """
        members = _read_members(path, {
            "format_version": (np.integer, ()),
            "window": (np.integer, (2,)),
            "local_dim": (np.integer, ()),
        })
        version = int(members["format_version"])
        if version != FORMAT_VERSION:
            raise MarginalFileError(f"unknown format_version {version}")
        local_dim = int(members["local_dim"])
        if local_dim != LOCAL_DIM:
            raise MarginalFileError(
                f"local_dim is {local_dim}, but only qubits (2) are supported: a 3x3 cluster of d >= 3 levels has "
                f"d^9 >= 19683 dims, past the dense guard of {DENSE_DIM_GUARD}"
            )
        width, height = members["window"].tolist()
        try:
            window = Window(width, height)
        except GeometryError as exc:
            raise MarginalFileError(f"malformed marginal file: {exc}") from exc
        anchors = _read_members(
            path, {"anchors": (np.integer, (None, 2))}, lambda shape: _require_marginal_count(window, shape[0])
        )["anchors"].tolist()
        dim = LOCAL_DIM ** 9
        matrices = _read_members(path, {"matrices": (np.complex128, (len(anchors), dim, dim))})["matrices"]
        if not np.isfinite(matrices).all():
            raise MarginalFileError("a marginal matrix has a non-finite entry")
        margs = {}
        for anchor, mat in zip(map(tuple, anchors), matrices):
            if anchor in margs:
                raise MarginalFileError(f"duplicate marginal anchor {anchor}")
            try:
                op = DensityOperator(cluster_region(anchor, 3, 3), mat)
                # Reductions are not symmetrized and sum up to 2^9 entries of the anti-Hermitian part, so a
                # marginal that could carry it past HERMITICITY_TOL is stored Hermitized; any other keeps its
                # exact bytes from the file.  The deviation is the one the operator measured when it was made.
                if op.hermiticity_deviation * op.dim > HERMITICITY_TOL:
                    op = DensityOperator(op.region, 0.5 * (mat + mat.conj().T))
                op.validate_spectrum()
            except StateError as exc:
                raise MarginalFileError(f"marginal at {anchor} is not a valid state: {exc}") from exc
            margs[anchor] = op
        return cls(window, margs)


def check_markov_conditions(ms: MarginalSet, tol: float = 1e-8) -> CheckReport:
    """Evaluate all eight conditions on every inside cluster; residuals are CMI values in bits."""
    report = CheckReport()
    for anchor in ms.anchors():
        for cond in c_m_conditions(anchor, ms.window):
            report.add(
                f"cmi:{anchor[0]},{anchor[1]}:{cond.index}",
                "cmi",
                cmi(ms.marginals[anchor], cond.A, cond.B, cond.C),
                tol,
                anchor=list(anchor),
                condition=cond.index,
                A=_region_json(cond.A),
                B=_region_json(cond.B),
                C=_region_json(cond.C),
            )
    return report


# The shifts (dx, dy) from one anchor to each later one, in canonical order, whose 3x3 clusters overlap: any two
# clusters less than 3 apart in both directions share a site.
_OVERLAP_SHIFTS = tuple((dx, dy) for dy in range(3) for dx in range(-2, 3) if (dy, dx) > (0, 0))


def check_local_consistency(
    ms: MarginalSet, tol: float = 1e-8, full_pairwise: bool = False
) -> CheckReport:
    """Trace distance of overlap reductions for adjacent cluster pairs, or for every overlapping pair.

    Each residual is ``certified_trace_distance`` at ``tol``, as in every
    record that compares a trace distance with a tolerance
    (``CheckReport.add_distance``): the Frobenius upper bound when it passes,
    else the exact distance.  So a pass is the exact verdict, a failing record
    holds the exact distance, and ``detail.method`` says which.

    Adjacent pairs bound the rest only up to a factor: two overlapping clusters
    (dx, dy) apart are linked through |dx| + |dy| adjacent steps whose clusters
    all contain their overlap; by monotonicity of the trace distance under
    partial trace each step moves the shared reduction by at most ``tol``, and
    the triangle inequality adds the steps up.  So passing certifies every
    overlapping pair to (|dx| + |dy|) * tol, up to 4 * tol, not to ``tol``.
    Set ``full_pairwise`` to check every overlapping pair to ``tol``, which
    certifies every derived marginal to ``tol`` too.  Pairs come in canonical
    order of their first anchor, then of their second.
    """
    report = CheckReport()
    for a in ms.anchors():
        for dx, dy in _OVERLAP_SHIFTS if full_pairwise else ((1, 0), (0, 1)):
            b = (a[0] + dx, a[1] + dy)
            if b not in ms.marginals:
                continue
            overlap = region_intersection(cluster_region(a, 3, 3), cluster_region(b, 3, 3))
            report.add_distance(
                f"consistency:{a[0]},{a[1]}|{b[0]},{b[1]}",
                "consistency",
                partial_trace(ms.marginals[a], overlap),
                partial_trace(ms.marginals[b], overlap),
                tol,
                anchors=[list(a), list(b)],
                overlap=_region_json(overlap),
            )
    return report
