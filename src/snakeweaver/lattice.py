"""Integer-lattice geometry: vertices, canonically ordered regions, anchored clusters, block paths.

Coordinates are plain integer pairs (x, y).  Adjacency is the square-lattice
rule |dx| + |dy| == 1; the sheared drawing of the lattice enters no computation.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Sequence

Vertex = tuple[int, int]
Region = tuple[Vertex, ...]
BlockPath = tuple[Region, ...]


class GeometryError(ValueError):
    """Ill-formed vertex, region, cluster, or block path."""


def as_vertex(v) -> Vertex:
    x, y = v
    if int(x) != x or int(y) != y:
        raise GeometryError(f"vertex coordinates must be integers, got {v!r}")
    return (int(x), int(y))


def canonical_key(v: Vertex) -> tuple[int, int]:
    """Sort key of the canonical site order: y ascending, then x ascending."""
    return (v[1], v[0])


def as_region(sites: Iterable) -> Region:
    """Canonicalize an iterable of vertices into an ordered, duplicate-free region."""
    verts = [as_vertex(v) for v in sites]
    if len(set(verts)) != len(verts):
        raise GeometryError(f"region contains duplicate vertices: {verts!r}")
    return tuple(sorted(verts, key=canonical_key))


def region_union(*regions: Iterable) -> Region:
    out: set[Vertex] = set()
    for r in regions:
        out.update(as_vertex(v) for v in r)
    return tuple(sorted(out, key=canonical_key))


def region_intersection(a: Iterable, b: Iterable) -> Region:
    sb = {as_vertex(v) for v in b}
    return as_region([v for v in a if as_vertex(v) in sb])


def region_difference(a: Iterable, b: Iterable) -> Region:
    sb = {as_vertex(v) for v in b}
    return as_region([v for v in a if as_vertex(v) not in sb])


def cluster_region(anchor, n: int, m: int) -> Region:
    """The n-wide, m-tall cluster whose bottom-right member is ``anchor``."""
    ax, ay = as_vertex(anchor)
    if n < 1 or m < 1:
        raise GeometryError(f"cluster dimensions must be positive, got {n}x{m}")
    return as_region([(ax - n + i, ay + j) for i in range(1, n + 1) for j in range(m)])


def neighbors(v) -> Region:
    x, y = as_vertex(v)
    return as_region([(x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)])


def region_neighborhood(region: Iterable) -> Region:
    """Union of the sites' neighbors, minus the region itself."""
    r = set(as_region(region))
    out = {u for v in r for u in neighbors(v)}
    return tuple(sorted(out - r, key=canonical_key))


def rotate_pi_local(p) -> tuple[int, int]:
    """Rotate a 3x3-local coordinate by pi about the cluster center; an involution."""
    x, y = p
    if x not in (0, 1, 2) or y not in (0, 1, 2):
        raise GeometryError(f"local coordinate out of range: {p!r}")
    return (2 - x, 2 - y)


def validate_block_path(path: Sequence[Iterable]) -> BlockPath:
    """Check the growth rule: blocks are disjoint and each touches the neighborhood so far."""
    blocks = tuple(as_region(b) for b in path)
    if not blocks:
        raise GeometryError("block path must contain at least one block")
    seen: set[Vertex] = set()
    # the neighbors of the sites seen, grown block by block: a block disjoint from ``seen`` touches the
    # neighborhood of ``seen`` exactly where it meets this
    reach: set[Vertex] = set()
    for k, block in enumerate(blocks):
        if not block:
            raise GeometryError(f"block {k} is empty")
        if not seen.isdisjoint(block):
            raise GeometryError(f"block {k} overlaps an earlier block")
        if k > 0 and reach.isdisjoint(block):
            raise GeometryError(f"block {k} is not adjacent to the blocks before it")
        seen.update(block)
        reach.update(u for v in block for u in neighbors(v))
    return blocks


def site_path(sites: Iterable) -> BlockPath:
    """Single-site blocks in canonical (row-major) order."""
    return tuple((v,) for v in as_region(sites))


def column_blocks(region: Iterable) -> BlockPath:
    """Blocks of constant x, ordered left to right; sites within a block in canonical order."""
    r = sorted(as_region(region), key=lambda v: (v[0], v[1]))
    return tuple(as_region(g) for _, g in ((x, list(grp)) for x, grp in groupby(r, key=lambda v: v[0])))
