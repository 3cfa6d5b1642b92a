"""Fundamental 3x3-cluster marginals over a finite window: storage, checks, derived marginals, file format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

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
    region_union,
    rotate_pi_local,
)
from .operator_core import (
    DensityOperator,
    StateError,
    cmi,
    entropy,
    partial_trace,
    trace_distance,
)

FORMAT_VERSION = 1

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


class InconsistentMarginalsError(StateError):
    """Two stored clusters reduce to different states on a region they share."""


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
        return tuple(
            (x, y)
            for y in range(self.height - 2)
            for x in range(2, self.width)
        )


@dataclass(frozen=True)
class CmCondition:
    """One Markov condition I(A:C|B) = 0 on the 3x3 cluster anchored at ``anchor``."""

    anchor: Vertex
    index: int
    A: Region
    B: Region
    C: Region

    @property
    def support(self) -> Region:
        return region_union(self.A, self.B, self.C)


def _embed_local(anchor: Vertex, local_sites) -> Region:
    ax, ay = anchor
    return as_region([(ax - 2 + lx, ay + ly) for lx, ly in local_sites])


def c_m_conditions(anchor, window: Window | None = None) -> list[CmCondition]:
    """The eight conditions of one cluster: four base diagrams plus their pi-rotations."""
    anchor = as_vertex(anchor)
    if window is not None and not window.contains_region(cluster_region(anchor, 3, 3)):
        raise GeometryError(f"3x3 cluster at {anchor} is not inside the window")
    out = []
    for idx, (a, b, c) in enumerate(_CM_BASE):
        out.append(
            CmCondition(anchor, idx, _embed_local(anchor, a), _embed_local(anchor, b), _embed_local(anchor, c))
        )
    for idx, (a, b, c) in enumerate(_CM_BASE):
        ra = [rotate_pi_local(p) for p in a]
        rb = [rotate_pi_local(p) for p in b]
        rc = [rotate_pi_local(p) for p in c]
        out.append(
            CmCondition(anchor, idx + 4, _embed_local(anchor, ra), _embed_local(anchor, rb), _embed_local(anchor, rc))
        )
    for cond in out:
        sa, sb, sc = set(cond.A), set(cond.B), set(cond.C)
        assert not (sa & sb or sa & sc or sb & sc), "condition table produced overlapping parts"
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
        return {
            "check_id": self.check_id,
            "kind": self.kind,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class CheckReport:
    """A flat list of per-condition records with summary maxima derived from them."""

    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, kind: str, residual: float, tol: float, **detail) -> CheckRecord:
        rec = CheckRecord(check_id, kind, float(residual), float(tol), float(residual) <= float(tol), detail)
        self.records.append(rec)
        return rec

    def extend(self, other: "CheckReport") -> "CheckReport":
        self.records.extend(other.records)
        return self

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


def matrix_to_json(mat: np.ndarray) -> list:
    """Rows of [re, im] pairs: how every snakeweaver JSON file stores a matrix."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """Inverse of ``matrix_to_json``; ValueError unless ``rows`` is a grid of finite [re, im] pairs."""
    raw = np.asarray(rows, dtype=float)
    if raw.ndim != 3 or raw.shape[2] != 2:
        raise ValueError(f"expected rows of [re, im] pairs, got an array of shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError("matrix has a non-finite entry")
    return raw[..., 0] + 1j * raw[..., 1]


class MarginalSet:
    """The fundamental marginals of a window: one density operator per inside 3x3 cluster."""

    def __init__(self, window: Window, local_dim: int, marginals: dict, log_base: float = 2.0):
        self.window = window
        self.local_dim = int(local_dim)
        self.log_base = float(log_base)
        self.marginals: dict[Vertex, DensityOperator] = {}
        expected = set(window.cluster_anchors())
        got = {as_vertex(a) for a in marginals}
        if got != expected:
            missing = sorted(expected - got, key=canonical_key)
            extra = sorted(got - expected, key=canonical_key)
            raise MarginalFileError(
                f"marginal anchors do not match the window: missing {missing}, unexpected {extra}"
            )
        for a, op in marginals.items():
            a = as_vertex(a)
            want = cluster_region(a, 3, 3)
            if op.region != want:
                raise MarginalFileError(f"marginal at {a} lives on {op.region}, expected {want}")
            if op.local_dim != self.local_dim:
                raise MarginalFileError(f"marginal at {a} has local_dim {op.local_dim}")
            self.marginals[a] = op
        self._derived_cache: dict[Region, DensityOperator] = {}
        self._entropy_cache: dict[tuple, float] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_global(cls, state: DensityOperator, window: Window, log_base: float = 2.0) -> "MarginalSet":
        if state.region != window.sites():
            raise GeometryError("state region does not cover the window")
        margs = {
            a: partial_trace(state, cluster_region(a, 3, 3))
            for a in window.cluster_anchors()
        }
        return cls(window, state.local_dim, margs, log_base)

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
        """Reduction of the stored marginal with the smallest parent anchor (y, then x).

        Every other containing parent is reduced too and must agree within 1e-8
        in trace distance; results are cached, so each distinct region pays for
        validation once.
        """
        region = as_region(region)
        cached = self._derived_cache.get(region)
        if cached is not None:
            return cached
        parents = self.parents_of(region)
        if not parents:
            raise MissingMarginalError(f"region {region} is not contained in any inside 3x3 cluster")
        out = partial_trace(self.marginals[parents[0]], region)
        for other in parents[1:]:
            dist = trace_distance(out, partial_trace(self.marginals[other], region))
            if dist > 1e-8:
                raise InconsistentMarginalsError(
                    f"parents {parents[0]} and {other} disagree on {region}: "
                    f"trace distance {dist:.3e} exceeds 1e-08"
                )
        self._derived_cache[region] = out
        return out

    def region_entropy(self, region, base: float = 2.0) -> float:
        region = as_region(region)
        if not region:
            return 0.0
        key = (region, base)
        if key not in self._entropy_cache:
            self._entropy_cache[key] = entropy(self.derived_marginal(region), base=base)
        return self._entropy_cache[key]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "window": {"width": self.window.width, "height": self.window.height},
            "local_dim": self.local_dim,
            "log_base": self.log_base,
            "marginals": [
                {"anchor": [a[0], a[1]], "matrix": matrix_to_json(self.marginals[a].matrix)}
                for a in self.anchors()
            ],
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, data: dict) -> "MarginalSet":
        try:
            version = data["format_version"]
        except (TypeError, KeyError):
            raise MarginalFileError("missing format_version")
        if version != FORMAT_VERSION:
            raise MarginalFileError(f"unknown format_version {version!r}")
        try:
            window = Window(int(data["window"]["width"]), int(data["window"]["height"]))
            local_dim = int(data["local_dim"])
            log_base = float(data.get("log_base", 2.0))
            entries = data["marginals"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MarginalFileError(f"malformed marginal file: {exc}") from exc
        if local_dim < 2:
            raise MarginalFileError(f"local_dim must be >= 2, got {local_dim}")
        if not isinstance(entries, list):
            raise MarginalFileError(f"marginals must be a list, got {type(entries).__name__}")
        dim = local_dim ** 9
        margs = {}
        for entry in entries:
            try:
                anchor = as_vertex(entry["anchor"])
                mat = matrix_from_json(entry["matrix"])
            except (KeyError, TypeError, ValueError, GeometryError) as exc:
                raise MarginalFileError(f"malformed marginal entry: {exc}") from exc
            if mat.shape != (dim, dim):
                raise MarginalFileError(
                    f"marginal at {anchor} has matrix shape {mat.shape}, expected {(dim, dim)}"
                )
            if anchor in margs:
                raise MarginalFileError(f"duplicate marginal anchor {anchor}")
            try:
                op = DensityOperator(cluster_region(anchor, 3, 3), local_dim, mat)
                op.validate_spectrum()
            except StateError as exc:
                raise MarginalFileError(f"marginal at {anchor} is not a valid state: {exc}") from exc
            margs[anchor] = op
        return cls(window, local_dim, margs, log_base)

    @classmethod
    def load(cls, path) -> "MarginalSet":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MarginalFileError(f"cannot read marginal file: {exc}") from exc
        return cls.from_dict(data)


def check_markov_conditions(ms: MarginalSet, tol: float = 1e-8, base: float | None = None) -> CheckReport:
    """Evaluate all eight conditions on every inside cluster; residuals are CMI values."""
    base = ms.log_base if base is None else base
    report = CheckReport()
    for anchor in ms.anchors():
        marg = ms.marginals[anchor]
        cache: dict[Region, float] = {}

        def s(region: Region) -> float:
            if not region:
                return 0.0
            if region not in cache:
                cache[region] = entropy(partial_trace(marg, region), base=base)
            return cache[region]

        for cond in c_m_conditions(anchor, ms.window):
            residual = (
                s(region_union(cond.A, cond.B))
                + s(region_union(cond.B, cond.C))
                - s(cond.B)
                - s(cond.support)
            )
            report.add(
                f"cmi:{anchor[0]},{anchor[1]}:{cond.index}",
                "cmi",
                residual,
                tol,
                anchor=list(anchor),
                condition=cond.index,
                A=_region_json(cond.A),
                B=_region_json(cond.B),
                C=_region_json(cond.C),
            )
    return report


def check_local_consistency(
    ms: MarginalSet, tol: float = 1e-8, full_pairwise: bool = False
) -> CheckReport:
    """Trace distance of overlap reductions for adjacent cluster pairs.

    Adjacent pairs bound the rest only up to a factor: two overlapping clusters
    (dx, dy) apart are linked through |dx| + |dy| adjacent steps whose clusters
    all contain their overlap; by monotonicity of the trace distance under
    partial trace each step moves the shared reduction by at most ``tol``, and
    the triangle inequality adds the steps up.  So passing certifies every
    overlapping pair to (|dx| + |dy|) * tol, up to 4 * tol, not to ``tol``.
    Set ``full_pairwise`` to check every overlapping pair to ``tol``.
    """
    report = CheckReport()
    anchors = ms.anchors()
    pairs = []
    if full_pairwise:
        for i, a in enumerate(anchors):
            for b in anchors[i + 1:]:
                if region_intersection(cluster_region(a, 3, 3), cluster_region(b, 3, 3)):
                    pairs.append((a, b))
    else:
        for a in anchors:
            for shift in ((1, 0), (0, 1)):
                b = (a[0] + shift[0], a[1] + shift[1])
                if b in ms.marginals:
                    pairs.append((a, b))
    for a, b in pairs:
        overlap = region_intersection(cluster_region(a, 3, 3), cluster_region(b, 3, 3))
        dist = trace_distance(
            partial_trace(ms.marginals[a], overlap),
            partial_trace(ms.marginals[b], overlap),
        )
        report.add(
            f"consistency:{a[0]},{a[1]}|{b[0]},{b[1]}",
            "consistency",
            dist,
            tol,
            anchors=[list(a), list(b)],
            overlap=_region_json(overlap),
        )
    return report
