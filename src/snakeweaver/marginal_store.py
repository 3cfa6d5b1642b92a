"""Fundamental 3x3-cluster marginals over a finite window: storage, checks, derived marginals, file format.

A marginal set needs at least one 3x3 cluster, so its window is at least 3x3.

A marginal file (``save_marginals``, ``MarginalSet.save``) is one
uncompressed ``.npz`` container, read with ``allow_pickle=False``, of the
int64 members ``format_version`` (2), ``window`` (width, height),
``local_dim`` and ``anchors`` (k, 2), which the writer emits in canonical
order and readers accept in any order, and ``matrices`` (k, D, D)
complex128 with D = 2 ** 9 = 512.  ``local_dim`` is always
``LOCAL_DIM`` (2): the writer emits it, and ``MarginalSet.load`` refuses any
other value before it opens ``anchors`` or ``matrices``.  Readers ignore
members they do not know, and refuse a member from its ``.npy`` header,
before any of its data is read, when the header declares another dtype or
shape; ``anchors`` must declare one row per cluster of the window.

``matrices`` is written and read as a stream.  ``save_marginals``, the one
writer, sends each cluster's matrix to the file as it is produced, and
``MarginalReader`` reads, validates and hands on one cluster at a time, in
the file's anchor order; so each holds one cluster at a time.  ``MarginalSet.load`` is that reader collected into a set.
The checks take one cluster at a time too: ``ConsistencyCheck`` and
``MarkovCheck`` are what ``check_local_consistency`` and
``check_markov_conditions`` run over a set, and ``RegionEntropies`` keeps the
entropies of regions listed beforehand from their first parents, so a command
can check and evaluate a file in the reader's one pass.  A file is written to
a temporary sibling and renamed onto its path once complete, so a write that
fails leaves no file, and whatever stood at the path stays as it was.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

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
    check_dim_guard,
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

    def check_dense_guard(self) -> None:
        """Raise DimensionGuardError when the dense state of the window is past the guard."""
        check_dim_guard(LOCAL_DIM ** (self.width * self.height))

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

    def parents_of(self, region) -> list[Vertex]:
        """Anchors, in canonical order, of the inside 3x3 clusters that contain the nonempty ``region``."""
        region = as_region(region)
        if not region:
            raise MissingMarginalError("empty region has no parent cluster")
        xs = [v[0] for v in region]
        ys = [v[1] for v in region]
        out = []
        for ay in range(max(max(ys) - 2, 0), min(min(ys), self.height - 3) + 1):
            for ax in range(max(max(xs), 2), min(min(xs) + 2, self.width - 1) + 1):
                out.append((ax, ay))
        return sorted(out, key=canonical_key)

    def first_parent(self, region) -> Vertex:
        """The smallest anchor (y, then x) of an inside 3x3 cluster that contains ``region``."""
        parents = self.parents_of(region)
        if not parents:
            raise MissingMarginalError(f"region {as_region(region)} is not contained in any inside 3x3 cluster")
        return parents[0]


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


def save_marginals(path, window: Window, matrices: Iterable[np.ndarray]) -> None:
    """Write the marginal file of ``window`` from ``matrices``, one per 3x3 cluster in canonical anchor order.

    The bytes are those ``np.savez`` writes for the same members.  Each matrix is written right after the
    ``matrices`` header as it is produced, so a generator that builds them holds one cluster at a time and no stack
    of them is formed; too few or too many matrices, or one that is not a (512, 512) complex128 array, raise
    ValueError.  The file is written to a temporary sibling of ``path``, under a name no other file has, and renamed
    onto it once complete; on any exception the temporary file is removed and ``path`` is left as it was.
    """
    anchors = window.cluster_anchors()
    count, shape = len(anchors), (LOCAL_DIM ** 9,) * 2
    clusters = f"a {window.width}x{window.height} window has {count} 3x3 clusters"
    members = {"format_version": FORMAT_VERSION, "window": np.array([window.width, window.height]),
               "local_dim": LOCAL_DIM, "anchors": np.array(anchors, dtype=np.int64).reshape(-1, 2)}
    head, tail = os.path.split(os.fspath(path))
    # a unique name, so a temporary file that a killed write left behind blocks no later write
    fd, tmp = tempfile.mkstemp(dir=head, prefix=f".{tail}.", suffix=".tmp")
    try:
        with open(fd, "wb") as out, zipfile.ZipFile(out, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name, value in members.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, np.asarray(value))
            with zf.open("matrices.npy", "w", force_zip64=True) as fh:
                descr = np.lib.format.dtype_to_descr(np.dtype(np.complex128))
                np.lib.format.write_array_header_1_0(fh, {"descr": descr, "fortran_order": False,
                                                          "shape": (count, *shape)})
                written = 0
                for m in matrices:
                    m = np.asarray(m, order="C")
                    if written == count:
                        raise ValueError(f"{clusters}, got more matrices")
                    if m.shape != shape or m.dtype != np.complex128:
                        raise ValueError(f"a cluster marginal is a complex128 matrix of shape {shape}, "
                                         f"got {m.dtype} of shape {m.shape}")
                    fh.write(memoryview(m).cast("B"))
                    written += 1
                    del m  # so that the next matrix is built with this one released
                if written != count:
                    raise ValueError(f"{clusters}, got {written} matrices")
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives a new file, not mkstemp's 0o600
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}
_READ_CHUNK = 1 << 18  # bytes per read into a cluster's array, so no whole-cluster copy is made beside it


@contextmanager
def _read_errors(path):
    """Raise every failure to read ``path`` as MarginalFileError; zipfile and numpy report a damaged container
    through many unrelated exception types, some with multi-line messages."""
    try:
        yield
    except MarginalFileError:
        raise
    except Exception as exc:
        raise MarginalFileError(f"cannot read {path}: {' '.join(str(exc).split())}") from exc


def _read_into(member, out: np.ndarray) -> None:
    """Fill the bytes of the contiguous ``out`` from ``member`` in chunks of ``_READ_CHUNK``; a member that ends
    first is refused."""
    flat = out.reshape(-1).view(np.uint8)
    done = 0
    while done < flat.size:
        chunk = member.read(min(_READ_CHUNK, flat.size - done))
        if not chunk:
            raise MarginalFileError(f"member data ends {flat.size - done} bytes early")
        flat[done:done + len(chunk)] = np.frombuffer(chunk, np.uint8)
        done += len(chunk)


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


def _require_window_anchors(window: Window, anchors: list[Vertex]) -> None:
    """Refuse ``anchors`` unless they are the window's cluster anchors, each once, in any order."""
    _require_marginal_count(window, len(anchors))
    got = set()
    for a in anchors:
        if a in got:
            raise MarginalFileError(f"duplicate marginal anchor {a}")
        got.add(a)
    expected = set(window.cluster_anchors())
    if got != expected:
        missing = sorted(expected - got, key=canonical_key)
        extra = sorted(got - expected, key=canonical_key)
        raise MarginalFileError(
            f"marginal anchors do not match the window: {len(missing)} missing, first {missing[:3]}; "
            f"{len(extra)} unexpected, first {extra[:3]}"
        )


def _cluster_state(anchor: Vertex, mat: np.ndarray) -> DensityOperator:
    """The marginal at ``anchor`` from its matrix as read, validated; an invalid one raises MarginalFileError."""
    if not np.isfinite(mat).all():
        raise MarginalFileError(f"marginal at {anchor} has a non-finite entry")
    try:
        op = DensityOperator(cluster_region(anchor, 3, 3), mat)
        # Reductions are not symmetrized and sum up to 2^9 entries of the anti-Hermitian part, so a marginal that
        # could carry it past HERMITICITY_TOL is stored Hermitized; any other keeps its exact bytes from the file.
        # The deviation is the one the operator measured when it was made.
        if op.hermiticity_deviation * op.dim > HERMITICITY_TOL:
            op = DensityOperator(op.region, 0.5 * (mat + mat.conj().T))
        op.validate_spectrum()
    except StateError as exc:
        raise MarginalFileError(f"marginal at {anchor} is not a valid state: {exc}") from exc
    return op


class MarginalReader:
    """One pass over a marginal file, holding one cluster at a time; every failure raises MarginalFileError.

    Opening it reads and checks the scalar members, then ``anchors``, into ``window`` and ``anchors`` (in file
    order, which need not be canonical): ``local_dim`` and the window pass before ``anchors`` is opened, and
    ``anchors`` must be the window's cluster anchors, each once.  ``feed`` then reads ``matrices`` cluster by
    cluster.  Each array member is refused from its header, so a crafted file is refused before any array it
    declares is allocated.  Use it as a context manager, which closes the file.
    """

    def __init__(self, path):
        self.path = path
        with _read_errors(path):
            self._file = open(path, "rb")
        try:
            with _read_errors(path):
                if self._file.read(4) != b"PK\x03\x04":
                    raise ValueError(
                        "not an .npz container; JSON marginal files of format 1 are no longer read, "
                        "regenerate the file with `snakeweaver generate`"
                    )
                self._zip = zipfile.ZipFile(self._file)
                self.window = self._read_header_members()
                anchors = self._read_small("anchors", np.integer, (None, 2),
                                           lambda shape: _require_marginal_count(self.window, shape[0]))
            self.anchors: tuple[Vertex, ...] = tuple(map(tuple, anchors.tolist()))
            _require_window_anchors(self.window, list(self.anchors))
        except BaseException:
            self._file.close()
            raise

    def __enter__(self) -> "MarginalReader":
        return self

    def __exit__(self, *exc) -> None:
        self._zip.close()
        self._file.close()

    def _open(self, name: str, dtype, shape: tuple, declared: Callable[[tuple], None] | None = None):
        """Member ``name`` opened past its ``.npy`` header, with its declared shape, order and dtype.

        It is refused from the header, before any of its data is read, when the header declares a dtype outside
        ``dtype`` or another shape; None in ``shape`` matches any length.  ``declared``, when given, is called with
        the declared shape after that check, and refuses it by raising MarginalFileError.
        """
        if f"{name}.npy" not in self._zip.namelist():
            raise MarginalFileError(f"missing member {name!r}")
        member = self._zip.open(f"{name}.npy")
        version = np.lib.format.read_magic(member)
        if version not in _NPY_HEADER_READERS:
            raise ValueError(f"member {name!r} has .npy format version {version}")
        got_shape, fortran_order, got_dtype = _NPY_HEADER_READERS[version](member)
        if (
            not np.issubdtype(got_dtype, dtype)
            or len(got_shape) != len(shape)
            or any(want not in (None, got) for want, got in zip(shape, got_shape))
        ):
            raise MarginalFileError(
                f"member {name!r} is {got_dtype} of shape {got_shape}, expected {dtype.__name__} of shape {shape}"
            )
        if declared is not None:
            declared(got_shape)
        return member, got_shape, fortran_order, got_dtype

    def _read_small(self, name: str, dtype, shape: tuple, declared=None) -> np.ndarray:
        """Member ``name``, header-checked as ``_open`` does, read whole."""
        member, got_shape, fortran_order, got_dtype = self._open(name, dtype, shape, declared)
        out = np.empty(got_shape, dtype=got_dtype, order="F" if fortran_order else "C")
        with member:
            _read_into(member, out.T if fortran_order else out)
        return out

    def _read_header_members(self) -> Window:
        """The window of the file, once ``format_version``, ``window`` and ``local_dim`` pass."""
        version = int(self._read_small("format_version", np.integer, ()))
        if version != FORMAT_VERSION:
            raise MarginalFileError(f"unknown format_version {version}")
        window = self._read_small("window", np.integer, (2,))
        local_dim = int(self._read_small("local_dim", np.integer, ()))
        if local_dim != LOCAL_DIM:
            raise MarginalFileError(
                f"local_dim is {local_dim}, but only qubits (2) are supported: a 3x3 cluster of d >= 3 levels has "
                f"d^9 >= 19683 dims, past the dense guard of {DENSE_DIM_GUARD}"
            )
        width, height = window.tolist()
        try:
            return Window(width, height)
        except GeometryError as exc:
            raise MarginalFileError(f"malformed marginal file: {exc}") from exc

    def feed(self, *consumers: Callable[[Vertex, DensityOperator], None]) -> None:
        """Read ``matrices`` one cluster at a time, in file order, and pass each cluster's validated marginal to
        every consumer as ``consumer(anchor, marginal)`` before the next cluster is read.

        A marginal is validated as it is read: finite, Hermitian, of trace one and no eigenvalue below
        -SPECTRUM_TOL.  The member is read to its end, so its CRC is verified before ``feed`` returns.  When it
        raises, the consumers have taken clusters of a refused file, and nothing they took may be reported.
        """
        dim = LOCAL_DIM ** 9
        with _read_errors(self.path):
            member, _, fortran_order, dtype = self._open("matrices", np.complex128, (len(self.anchors), dim, dim))
            if fortran_order:
                raise MarginalFileError("member 'matrices' is stored in Fortran order, which cannot be read by cluster")
        with member:
            for anchor in self.anchors:
                mat = np.empty((dim, dim), dtype=dtype)
                with _read_errors(self.path):
                    _read_into(member, mat)
                op = _cluster_state(anchor, mat)
                del mat
                for consume in consumers:
                    consume(anchor, op)
                del op  # so that the next cluster is read with this one released
            with _read_errors(self.path):
                if member.read(1):
                    raise MarginalFileError("member 'matrices' holds more data than its header declares")


class MarginalSet:
    """The fundamental marginals of a window: one density operator per inside 3x3 cluster."""

    def __init__(self, window: Window, marginals: dict):
        self.window = window
        self.marginals: dict[Vertex, DensityOperator] = {}
        _require_window_anchors(window, [as_vertex(a) for a in marginals])
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
        return self.marginals[self.window.first_parent(region)]

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        save_marginals(path, self.window, (self.marginals[a].matrix for a in self.anchors()))

    @classmethod
    def load(cls, path) -> "MarginalSet":
        """Read and validate a marginal file through ``MarginalReader``, keeping every cluster; every failure raises
        MarginalFileError."""
        marginals = {}
        with MarginalReader(path) as reader:
            reader.feed(marginals.__setitem__)
        return cls(reader.window, marginals)


class RegionEntropies:
    """Entropies in bits of given nonempty regions of a window, each taken from its first parent cluster as that
    cluster is added, in any order of anchors; ``region_entropy`` then answers for them as
    ``MarginalSet.region_entropy`` does, bit for bit, with no marginal held."""

    def __init__(self, window: Window, regions: Iterable):
        self._wanted: dict[Vertex, list[Region]] = {}
        for region in set(map(as_region, regions)):
            self._wanted.setdefault(window.first_parent(region), []).append(region)
        self._values: dict[Region, float] = {}

    def add(self, anchor: Vertex, op: DensityOperator) -> None:
        for region in self._wanted.pop(anchor, ()):
            self._values[region] = op.region_entropy(region)

    def region_entropy(self, region) -> float:
        return self._values[as_region(region)]


def _run_on_set(check, ms: MarginalSet) -> CheckReport:
    """Add every cluster of ``ms`` to ``check`` in canonical order, then return its report."""
    for anchor in ms.anchors():
        check.add(anchor, ms.marginals[anchor])
    return check.report()


class MarkovCheck:
    """The eight Markov conditions of each cluster, recorded as the cluster is added, in any order of anchors;
    residuals are CMI values in bits."""

    def __init__(self, window: Window, tol: float):
        self.window, self.tol = window, tol
        self._report = CheckReport()

    def add(self, anchor: Vertex, op: DensityOperator) -> None:
        for cond in c_m_conditions(anchor, self.window):
            self._report.add(
                f"cmi:{anchor[0]},{anchor[1]}:{cond.index}",
                "cmi",
                cmi(op, cond.A, cond.B, cond.C),
                self.tol,
                anchor=list(anchor),
                condition=cond.index,
                A=_region_json(cond.A),
                B=_region_json(cond.B),
                C=_region_json(cond.C),
            )

    def report(self) -> CheckReport:
        """The records in canonical order of their anchors, then of their conditions."""
        self._report.records.sort(key=lambda r: (canonical_key(r.detail["anchor"]), r.detail["condition"]))
        return self._report


def check_markov_conditions(ms: MarginalSet, tol: float = 1e-8) -> CheckReport:
    """Evaluate all eight conditions on every inside cluster; residuals are CMI values in bits."""
    return _run_on_set(MarkovCheck(ms.window, tol), ms)


# The shifts (dx, dy) from one anchor to each later one, in canonical order, whose 3x3 clusters overlap: any two
# clusters less than 3 apart in both directions share a site.
_OVERLAP_SHIFTS = tuple((dx, dy) for dy in range(3) for dx in range(-2, 3) if (dy, dx) > (0, 0))


class ConsistencyCheck:
    """The overlap records of ``check_local_consistency``, taken as clusters are added, in any order of anchors.

    The first cluster of a pair to come leaves its overlap reduction, and the second records the pair and drops
    it, so only the reductions of pairs whose partner is still to come are held: in canonical order, those of
    about one row of anchors, each of at most 6 sites.
    """

    def __init__(self, window: Window, tol: float, full_pairwise: bool = False):
        self.tol = tol
        self._shifts = _OVERLAP_SHIFTS if full_pairwise else ((1, 0), (0, 1))
        self._anchors = set(window.cluster_anchors())
        self._pending: dict[tuple[Vertex, Vertex], DensityOperator] = {}
        self._report = CheckReport()

    def add(self, anchor: Vertex, op: DensityOperator) -> None:
        x, y = anchor
        for dx, dy in self._shifts:
            for a, b in ((anchor, (x + dx, y + dy)), ((x - dx, y - dy), anchor)):
                if not {a, b} <= self._anchors:
                    continue
                overlap = region_intersection(cluster_region(a, 3, 3), cluster_region(b, 3, 3))
                reduction = partial_trace(op, overlap)
                other = self._pending.pop((a, b), None)
                if other is None:
                    self._pending[a, b] = reduction
                    continue
                self._report.add_distance(
                    f"consistency:{a[0]},{a[1]}|{b[0]},{b[1]}",
                    "consistency",
                    *((reduction, other) if anchor == a else (other, reduction)),
                    self.tol,
                    anchors=[list(a), list(b)],
                    overlap=_region_json(overlap),
                )

    def report(self) -> CheckReport:
        """The records in canonical order of their first anchor, then of their second."""
        self._report.records.sort(key=lambda r: [canonical_key(v) for v in r.detail["anchors"]])
        return self._report


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
    return _run_on_set(ConsistencyCheck(ms.window, tol, full_pairwise), ms)
