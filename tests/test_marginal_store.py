"""Marginal sets: condition tables, consistency/Markov checks, derived marginals, file format."""

import json

import numpy as np
import pytest

from snakeweaver.lattice import cluster_region
from snakeweaver.marginal_store import (
    CheckReport,
    InconsistentMarginalsError,
    MarginalFileError,
    MarginalSet,
    MissingMarginalError,
    Window,
    c_m_conditions,
    check_local_consistency,
    check_markov_conditions,
)
from snakeweaver.operator_core import partial_trace, trace_distance
from snakeweaver.oracles import (
    depolarize_marginal,
    gen_product,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
)


def test_condition_table_first_diagram():
    conds = c_m_conditions((2, 0))
    assert len(conds) == 8
    first = conds[0]
    assert first.A == ((1, 0),)
    assert first.B == ((0, 0),)
    assert first.C == ((0, 1),)
    assert len(first.support) == 3  # this condition touches three sites only


def test_condition_table_rotations():
    conds = c_m_conditions((2, 0))
    rot1 = conds[4]
    assert rot1.A == ((1, 2),)
    assert rot1.B == ((2, 2),)
    assert rot1.C == ((2, 1),)
    rot4 = conds[7]
    assert set(rot4.A) == {(2, 2), (1, 2), (0, 2), (2, 1), (2, 0)}
    assert set(rot4.B) == {(1, 1), (0, 1), (1, 0)}
    assert rot4.C == ((0, 0),)


def test_condition_table_translates_with_anchor():
    base = c_m_conditions((2, 0))
    shifted = c_m_conditions((4, 5))
    for b, s in zip(base, shifted):
        assert {(x + 2, y + 5) for x, y in b.A} == set(s.A)
        assert {(x + 2, y + 5) for x, y in b.B} == set(s.B)


def test_condition_count_scales_with_window():
    w = Window(5, 4)
    total = sum(len(c_m_conditions(a, w)) for a in w.cluster_anchors())
    assert total == 8 * (w.width - 2) * (w.height - 2)


def test_markov_checks_pass_on_oracle_sources():
    for src in (
        gen_product(Window(4, 3), seed=0),
        gen_row_markov(Window(4, 3), seed=1),
        gen_row_markov(Window(3, 4), seed=2, orientation="columns"),
    ):
        ms = src.marginal_set()
        rep = check_markov_conditions(ms, tol=1e-9)
        assert rep.passed, rep.summary()
        assert rep.max_residual() <= 1e-12
        cons = check_local_consistency(ms, tol=1e-10)
        assert cons.passed
        assert cons.max_residual() <= 1e-12


def test_markov_checks_fail_on_ghz_row():
    ms, _ = ghz_row_source(Window(3, 3))
    rep = check_markov_conditions(ms, tol=1e-8)
    assert not rep.passed
    worst = max(r.residual for r in rep.failures())
    assert worst >= 0.5
    # the GHZ row sits on top, so the fourth diagram (index 3) is among the failures
    assert any(r.detail["condition"] == 3 for r in rep.failures())


def test_consistency_localizes_depolarized_marginal():
    ms = gen_repetition_rows(Window(4, 4)).marginal_set()
    bad = depolarize_marginal(ms, (2, 0), 1e-3)
    rep = check_local_consistency(bad, tol=1e-10)
    failing = {r.check_id for r in rep.failures()}
    assert failing == {"consistency:2,0|3,0", "consistency:2,0|2,1"}
    # hand-computed residuals: eps * T(I/64, overlap reduction) with the overlap
    # carrying 3 repetition pairs (0.875) resp. 2 repetition triples (0.9375)
    by_id = {r.check_id: r.residual for r in rep.records}
    assert by_id["consistency:2,0|3,0"] == pytest.approx(0.875e-3, rel=1e-9)
    assert by_id["consistency:2,0|2,1"] == pytest.approx(0.9375e-3, rel=1e-9)
    # both land inside the advertised 7.5e-4 +- 50% envelope
    for check_id in failing:
        assert 3.75e-4 <= by_id[check_id] <= 1.125e-3


def test_consistency_vacuous_on_single_cluster():
    ms = gen_row_markov(Window(3, 3), seed=3).marginal_set()
    rep = check_local_consistency(ms)
    assert rep.passed and len(rep.records) == 0
    full = check_local_consistency(ms, full_pairwise=True)
    assert len(full.records) == 0


def test_full_pairwise_covers_more_pairs():
    ms = gen_row_markov(Window(5, 4), seed=4, unitaries="none").marginal_set()
    adj = check_local_consistency(ms)
    full = check_local_consistency(ms, full_pairwise=True)
    assert len(full.records) > len(adj.records)
    assert full.passed


def test_derived_marginal_full_cluster_and_parent_choice():
    ms = gen_row_markov(Window(4, 4), seed=5).marginal_set()
    anchor = (2, 0)
    got = ms.derived_marginal(cluster_region(anchor, 3, 3))
    assert trace_distance(got, ms.marginals[anchor]) < 1e-12
    # 2x2 cluster anchored at (1, 1): canonical parent is the (2, 0) cluster
    region = cluster_region((1, 1), 2, 2)
    assert ms.parents_of(region)[0] == (2, 0)
    expect = partial_trace(ms.marginals[(2, 0)], region)
    assert trace_distance(ms.derived_marginal(region), expect) < 1e-12


def test_derived_marginal_shared_site_agrees_across_parents():
    ms = gen_row_markov(Window(4, 4), seed=6).marginal_set()
    region = ((2, 1),)
    parents = ms.parents_of(region)
    assert len(parents) == 4
    canonical = ms.derived_marginal(region)  # cross-validates internally
    for p in parents:
        assert trace_distance(partial_trace(ms.marginals[p], region), canonical) < 1e-10


def test_derived_marginal_cross_validation_failure():
    ms = gen_repetition_rows(Window(4, 3)).marginal_set()
    bad = depolarize_marginal(ms, (2, 0), 1e-3)
    # an in-row pair seen by both the clean and the depolarized parent
    with pytest.raises(InconsistentMarginalsError):
        bad.derived_marginal(((1, 0), (2, 0)))


def test_derived_marginal_missing():
    ms = gen_row_markov(Window(4, 3), seed=7).marginal_set()
    with pytest.raises(MissingMarginalError):
        ms.derived_marginal([(0, 0), (3, 0)])  # spans all four columns


def test_file_round_trip_is_bit_exact(tmp_path):
    ms = gen_row_markov(Window(3, 3), seed=8).marginal_set()
    path = tmp_path / "m.json"
    ms.save(path)
    back = MarginalSet.load(path)
    assert back.window == ms.window
    assert back.local_dim == ms.local_dim
    for a in ms.anchors():
        assert np.array_equal(back.marginals[a].matrix, ms.marginals[a].matrix)


def test_file_parser_rejections(tmp_path):
    ms = gen_row_markov(Window(3, 3), seed=9).marginal_set()
    good = ms.to_dict()

    def reject(mutate):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(MarginalFileError):
            MarginalSet.from_dict(data)

    reject(lambda d: d.__setitem__("format_version", 2))
    reject(lambda d: d.pop("format_version"))
    reject(lambda d: d["marginals"][0]["matrix"].pop())  # dimension mismatch
    reject(lambda d: d["marginals"].pop())  # missing anchor
    reject(lambda d: d["marginals"][0].__setitem__("anchor", [0, 0]))  # outside anchor set
    reject(lambda d: d.__setitem__("local_dim", 1))

    def unnormalize(d):
        d["marginals"][0]["matrix"][0][0] = [5.0, 0.0]

    def nan_entry(d):
        d["marginals"][0]["matrix"][3][3] = [float("nan"), 0.0]

    reject(unnormalize)
    reject(nan_entry)
    reject(lambda d: d.__setitem__("marginals", 5))

    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(good)[:200])
    with pytest.raises(MarginalFileError):
        MarginalSet.load(path)


def test_check_report_summary_matches_records():
    rep = CheckReport()
    rep.add("a", "cmi", 1e-3, 1e-8)
    rep.add("b", "cmi", 1e-12, 1e-8)
    rep.add("c", "consistency", 2e-4, 1e-8)
    summary = rep.summary()
    assert summary["cmi"]["max_residual"] == max(
        r.residual for r in rep.records if r.kind == "cmi"
    )
    assert summary["cmi"]["failures"] == 1
    assert not rep.passed
    assert rep.max_residual() == 1e-3
