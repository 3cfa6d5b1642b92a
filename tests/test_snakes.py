"""Snake builders, variant equalities, splitting, entropy decomposition, level drops."""

import numpy as np
import pytest

from snakeweaver.lattice import GeometryError, as_region
from snakeweaver.marginal_store import Window
from snakeweaver.operator_core import DimensionGuardError, entropy, partial_trace, trace_distance
from snakeweaver.oracles import gen_product, gen_repetition_rows, gen_row_markov, ghz_row_source
from snakeweaver.snakes import (
    SnakeSpec,
    build_snake,
    level_drop_check,
    max_span_for_guard,
    plain_factor_regions,
    snake_entropy_med,
    snake_marginal_report,
    split_check,
    verify_is_snake,
)

V, U = (0, 0), (2, 0)


@pytest.fixture(scope="module")
def ms33():
    return gen_row_markov(Window(3, 3), seed=21).marginal_set()


@pytest.fixture(scope="module")
def src33():
    return gen_row_markov(Window(3, 3), seed=21)


def test_spec_validation():
    with pytest.raises(GeometryError):
        SnakeSpec(1, (0, 0), (1, 0))  # v.x must be < u.x - 1
    with pytest.raises(GeometryError):
        SnakeSpec(2, (0, 0), (3, 1))  # rows differ
    with pytest.raises(GeometryError):
        SnakeSpec(1, (0, 0), (3, 0), variant="flat_up")  # level-1 has no variants
    with pytest.raises(GeometryError):
        SnakeSpec(2, (0, 0), (3, 0), variant="flat_up", order="reversed")
    with pytest.raises(GeometryError):
        SnakeSpec(4, (0, 0), (3, 0))
    spec = SnakeSpec(2, V, U)
    assert SnakeSpec.from_dict(spec.to_dict()) == spec


def test_plain_factor_regions():
    fwd = plain_factor_regions(2, (0, 0), (3, 0))
    assert len(fwd) == 3
    assert fwd[0] == as_region([(0, 0), (1, 0), (0, 1), (1, 1)])
    rev = plain_factor_regions(2, (0, 0), (3, 0), order="reversed")
    assert rev[0] == as_region([(2, 0), (3, 0), (2, 1), (3, 1)])
    assert set(map(tuple, fwd)) == set(map(tuple, rev))


def test_support_geometry():
    spec = SnakeSpec(3, (1, 2), (4, 2))
    sup = spec.support()
    assert len(sup) == 12
    assert min(v[1] for v in sup) == 2 and max(v[1] for v in sup) == 4


def test_build_on_product_marginals_gives_product():
    src = gen_product(Window(4, 3), seed=3)
    ms = src.marginal_set()
    for spec in (
        SnakeSpec(1, (0, 0), (3, 0)),
        SnakeSpec(2, (0, 1), (3, 1), variant="flat_down"),
        SnakeSpec(2, (0, 0), (3, 0), variant="hooked_up"),
    ):
        built = build_snake(ms, spec)
        assert trace_distance(built, src.marginal(spec.support())) < 1e-11


@pytest.mark.parametrize("level", [2, 3])
def test_variants_agree_on_markov_data(ms33, src33, level):
    plain = build_snake(ms33, SnakeSpec(level, V, U))
    for variant in ("flat_up", "flat_down", "hooked_up", "hooked_down"):
        alt = build_snake(ms33, SnakeSpec(level, V, U, variant=variant))
        assert trace_distance(plain, alt) <= 1e-7, variant
    # and all of them match the source's own marginal
    assert trace_distance(plain, src33.marginal(plain.region)) <= 1e-7


@pytest.mark.parametrize("level", [1, 2, 3])
def test_forward_matches_reversed(ms33, level):
    fwd = build_snake(ms33, SnakeSpec(level, V, U))
    rev = build_snake(ms33, SnakeSpec(level, V, U, order="reversed"))
    assert trace_distance(fwd, rev) <= 1e-7


@pytest.mark.parametrize("level", [1, 2, 3])
def test_verify_is_snake_on_markov_data(ms33, level):
    rep = verify_is_snake(ms33, SnakeSpec(level, V, U), tol=1e-9)
    assert rep.passed, rep.summary()
    assert all(r.residual == 0.0 for r in rep.records if r.kind == "support_disjoint")


def test_verify_is_snake_fails_on_ghz_row():
    gm, _ = ghz_row_source(Window(3, 3))
    rep = verify_is_snake(gm, SnakeSpec(1, (0, 2), (2, 2)), tol=1e-8)
    assert not rep.passed
    cmis = [r.residual for r in rep.records if r.kind == "cmi"]
    assert max(cmis) == pytest.approx(1.0, abs=1e-9)


def test_split_property():
    ms = gen_row_markov(Window(5, 3), seed=22).marginal_set()
    for level in (1, 2):
        rep = split_check(ms, level, (0, 0), (2, 0), (4, 0), tol=1e-7)
        assert rep.passed, rep.summary()
        assert len(rep.records) == 2  # both merge orders


def test_split_check_rejects_bad_geometry():
    ms = gen_row_markov(Window(5, 3), seed=22).marginal_set()
    with pytest.raises(GeometryError):
        split_check(ms, 1, (0, 0), (1, 0), (4, 0))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_snake_entropy_med_matches_state_entropy(ms33, level):
    spec = SnakeSpec(level, V, U)
    built = build_snake(ms33, spec)
    assert snake_entropy_med(ms33, spec) == pytest.approx(entropy(built), abs=1e-7)


def test_snake_entropy_med_additive_for_mixed_marginals():
    w = Window(5, 3)
    src = gen_product(w, site_states={v: np.eye(2) / 2 for v in w.sites()})
    ms = src.marginal_set()
    spec = SnakeSpec(1, (0, 0), (4, 0))
    assert snake_entropy_med(ms, spec) == pytest.approx(5.0, abs=1e-10)


def test_level_drop_identities():
    for orientation, seed in (("rows", 23), ("columns", 24)):
        ms = gen_row_markov(Window(4, 3), seed=seed, orientation=orientation).marginal_set()
        rep = level_drop_check(ms, (0, 1), (3, 1), tol=1e-7)
        assert rep.passed, rep.summary()


def test_marginal_reproduction(ms33):
    for level in (1, 2, 3):
        rep = snake_marginal_report(ms33, SnakeSpec(level, V, U), tol=1e-7)
        assert rep.passed, rep.summary()
        if level == 3:
            assert any("3x3" in r.check_id for r in rep.records)


def test_dimension_guard_names_span():
    ms = gen_row_markov(Window(5, 3), seed=25).marginal_set()
    with pytest.raises(DimensionGuardError) as err:
        build_snake(ms, SnakeSpec(3, (0, 0), (4, 0)))
    assert "maximal span" in str(err.value)
    assert max_span_for_guard(3, 2) == 3


def test_window_containment():
    ms = gen_row_markov(Window(4, 3), seed=26).marginal_set()
    with pytest.raises(GeometryError):
        build_snake(ms, SnakeSpec(3, (0, 1), (3, 1)))  # rows 1..3 leave the window
