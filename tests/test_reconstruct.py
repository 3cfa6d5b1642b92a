"""Reconstruction, the closed-form maximum-entropy value, vertical checks, uniqueness."""

import math
import warnings

import numpy as np
import pytest

from snakeweaver.lattice import GeometryError, as_region, site_path
from snakeweaver.marginal_store import Window
from snakeweaver.operator_core import (
    DensityOperator,
    DimensionGuardError,
    entropy,
    med,
    partial_trace,
    trace_distance,
)
from snakeweaver.oracles import (
    ClassicalChain,
    RowMarkovSource,
    gen_product,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
    ghz_state,
    repetition_rows,
)
from snakeweaver.reconstruct import (
    expectation_from_marginals,
    max_entropy_formula,
    max_entropy_terms,
    reconstruct_global,
    row_major_med,
    uniqueness_certificate,
    vertical_markov_check,
)


def test_reconstruct_product_marginals():
    src = gen_product(Window(4, 3), seed=1)
    res = reconstruct_global(src.marginal_set())
    assert res.precheck.passed
    assert res.marginal_report.passed
    assert trace_distance(res.state, src.global_state()) < 1e-10
    # step CMIs ride on 12-qubit eigendecompositions, so noise sits near 1e-8
    assert max(abs(r) for _, r in res.step_cmis) < 1e-6


def test_reconstruct_single_cluster_window():
    src = gen_row_markov(Window(3, 3), seed=2)
    ms = src.marginal_set()
    res = reconstruct_global(ms)
    assert trace_distance(res.state, ms.marginals[(2, 0)]) < 1e-9
    assert res.entropy == pytest.approx(max_entropy_formula(ms), abs=1e-8)


def test_reconstruct_warns_on_contaminated_input():
    ms, _ = ghz_row_source(Window(3, 3))
    with pytest.warns(UserWarning):
        res = reconstruct_global(ms)
    assert not res.precheck.passed
    assert not res.marginal_report.passed  # GHZ coherences cannot be rebuilt


def test_reconstruct_rejects_small_windows_and_guard():
    ms = gen_row_markov(Window(5, 3), seed=3).marginal_set()
    with pytest.raises(DimensionGuardError):  # 15 qubits: dimension 2^15 > the 2^14 guard
        reconstruct_global(ms)


@pytest.mark.parametrize("orientation,seed", [("rows", 4), ("columns", 5)])
def test_vertical_markov_check(orientation, seed):
    ms = gen_row_markov(Window(3, 4), seed=seed, orientation=orientation).marginal_set()
    rep = vertical_markov_check(ms, tol=1e-8)
    assert rep.passed
    assert len(rep.records) == 2  # two three-row slabs in a 3x4 window
    assert rep.max_residual() <= 1e-10


def test_formula_product_cases():
    w = Window(5, 4)
    mixed = gen_product(w, site_states={v: np.eye(2) / 2 for v in w.sites()})
    assert max_entropy_formula(mixed, w) == pytest.approx(20.0, abs=1e-10)
    pure = gen_product(w, site_states={v: np.diag([1.0, 0.0]) for v in w.sites()})
    assert max_entropy_formula(pure, w) == pytest.approx(0.0, abs=1e-10)
    generic = gen_product(w, seed=6)
    expect = generic.region_entropy(w.sites())
    assert max_entropy_formula(generic, w) == pytest.approx(expect, abs=1e-9)


def test_formula_repetition_rows_exact_integers():
    st = repetition_rows(Window(4, 3))
    value = max_entropy_formula(st, Window(4, 3))
    assert value == 3 and isinstance(value, int)
    terms = max_entropy_terms(st, Window(4, 3))
    assert all(isinstance(t, int) for _, t in terms)
    assert sum(t for _, t in terms) == 3


def test_formula_against_row_med_and_oracle_entropy():
    for orientation, seed in (("rows", 7), ("columns", 8)):
        w = Window(4, 4)
        src = gen_row_markov(w, seed=seed, orientation=orientation)
        f = max_entropy_formula(src, w)
        m = row_major_med(src, w)
        assert m >= f - 1e-9
        assert abs(m - f) <= 1e-6
        # maximality: no state with these marginals beats the formula
        assert f >= src.region_entropy(w.sites()) - 1e-9


def test_formula_from_marginal_set_matches_source():
    w = Window(4, 3)
    src = gen_row_markov(w, seed=9)
    ms = src.marginal_set()
    assert max_entropy_formula(ms) == pytest.approx(max_entropy_formula(src, w), abs=1e-9)


def test_uniqueness_certificate_identical_states():
    src = gen_row_markov(Window(4, 1), seed=10)
    op = src.global_state()
    rep = uniqueness_certificate(op, op, site_path(op.region), tol=1e-9)
    assert rep.passed
    bound = [r for r in rep.records if r.kind == "distance_bound"]
    assert len(bound) == 1
    assert bound[0].residual == 0.0


def test_uniqueness_certificate_hypothesis_failure():
    # repetition chain vs coherent GHZ: same pair marginals along the path, but
    # the GHZ entropy (0) sits below its decomposition (1), so no bound is claimed
    rep_src = RowMarkovSource(
        Window(4, 1), unitaries="none", chains=[ClassicalChain.repetition(4)]
    )
    chain = rep_src.global_state()
    ghz = ghz_state(chain.region)
    rep = uniqueness_certificate(chain, ghz, site_path(chain.region), tol=1e-7)
    assert not rep.passed
    assert all(r.passed for r in rep.records if r.kind == "marginal_match")
    med_fails = [r for r in rep.records if r.kind == "med_equality" and not r.passed]
    assert len(med_fails) == 1
    assert not any(r.kind == "distance_bound" for r in rep.records)


def test_uniqueness_certificate_region_mismatch():
    a = ghz_state(as_region([(0, 0), (1, 0)]))
    b = ghz_state(as_region([(0, 0), (2, 0)]))
    with pytest.raises(GeometryError):
        uniqueness_certificate(a, b, site_path(a.region))


def test_expectation_from_marginals():
    w = Window(3, 3)
    src = gen_product(w, seed=11)
    ms = src.marginal_set()
    z = np.diag([1.0, -1.0])
    site = (1, 1)
    got = expectation_from_marginals(ms, [(as_region([site]), z)])
    expect = float(np.trace(z @ src.site_states[site]).real)
    assert got == pytest.approx(expect, abs=1e-12)
    two = expectation_from_marginals(
        ms, [(as_region([site]), z), (as_region([(0, 0)]), np.eye(2))]
    )
    assert two == pytest.approx(expect + 1.0, abs=1e-12)


def test_row_med_equals_formula_for_repetition_rows():
    src = gen_repetition_rows(Window(4, 3))
    w = Window(4, 3)
    assert row_major_med(src, w) == pytest.approx(3.0, abs=1e-10)
    assert max_entropy_formula(src, w) == pytest.approx(3.0, abs=1e-10)
