"""Geometry layer: clusters, adjacency, rotation, canonical ordering, block paths."""

import json
import time

import numpy as np
import pytest

from snakeweaver.lattice import (
    GeometryError,
    as_region,
    canonical_key,
    cluster_region,
    column_blocks,
    neighbors,
    region_neighborhood,
    rotate_pi_local,
    site_path,
    validate_block_path,
)


def test_cluster_region_examples():
    assert cluster_region((0, 0), 1, 1) == ((0, 0),)
    assert cluster_region((0, 0), 2, 2) == ((-1, 0), (0, 0), (-1, 1), (0, 1))
    assert cluster_region((2, 0), 3, 3) == (
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2),
    )


def test_cluster_region_rejects_bad_dims():
    with pytest.raises(GeometryError):
        cluster_region((0, 0), 0, 2)
    with pytest.raises(GeometryError):
        cluster_region((0, 0), 2, -1)


def test_cluster_contains_anchor_and_size():
    rng = np.random.default_rng(0)
    for _ in range(50):
        anchor = tuple(rng.integers(-5, 5, 2))
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        region = cluster_region(anchor, n, m)
        assert anchor in region
        assert len(region) == n * m


def test_neighbors_examples():
    assert neighbors((0, 0)) == ((0, -1), (-1, 0), (1, 0), (0, 1))
    assert neighbors((5, 3)) == ((5, 2), (4, 3), (6, 3), (5, 4))


def test_region_neighborhood_example():
    assert region_neighborhood([(0, 0), (1, 0)]) == (
        (0, -1), (1, -1), (-1, 0), (2, 0), (0, 1), (1, 1),
    )


def test_rotate_pi_local():
    assert rotate_pi_local((1, 1)) == (1, 1)
    assert rotate_pi_local((0, 0)) == (2, 2)
    assert rotate_pi_local((2, 1)) == (0, 1)
    for x in range(3):
        for y in range(3):
            assert rotate_pi_local(rotate_pi_local((x, y))) == (x, y)
    with pytest.raises(GeometryError):
        rotate_pi_local((3, 0))


def test_region_canonical_order_is_deterministic():
    scrambled = [(2, 1), (0, 0), (1, 0), (0, 1)]
    region = as_region(scrambled)
    assert region == as_region(region)  # re-sorting is idempotent
    assert list(region) == sorted(region, key=canonical_key)
    # serialize as [x, y] pairs and parse back
    wire = json.dumps([[x, y] for x, y in region])
    parsed = as_region([tuple(v) for v in json.loads(wire)])
    assert parsed == region


def test_region_rejects_duplicates():
    with pytest.raises(GeometryError):
        as_region([(0, 0), (0, 0)])


def test_block_path_validation():
    path = [((0, 0),), ((1, 0),), ((1, 1), (2, 1))]
    assert validate_block_path(path)
    with pytest.raises(GeometryError):
        validate_block_path([((0, 0),), ((0, 0), (1, 0))])  # overlap
    with pytest.raises(GeometryError):
        validate_block_path([((0, 0),), ((5, 5),)])  # not adjacent
    with pytest.raises(GeometryError):
        validate_block_path([])


def test_block_path_validation_grows_the_neighborhood_block_by_block():
    path = site_path([(x, y) for x in range(40) for y in range(40)])
    start = time.perf_counter()
    assert validate_block_path(path) == path
    # about 0.01 s; recomputing the neighborhood of every block so far took about 5 s
    assert time.perf_counter() - start < 0.5
    for blocks, message in (
        ([((0, 0),), ()], "block 1 is empty"),
        ([((0, 0),), ((1, 0),), ((1, 0), (2, 0))], "block 2 overlaps an earlier block"),
        ([((0, 0),), ((1, 0),), ((3, 0),)], "block 2 is not adjacent to the blocks before it"),
    ):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            validate_block_path(blocks)


def test_site_path_and_column_blocks():
    sites = [(x, y) for x in range(3) for y in range(2)]
    path = site_path(sites)
    assert [b[0] for b in path] == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    cols = column_blocks(sites)
    assert cols == (((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1)))
