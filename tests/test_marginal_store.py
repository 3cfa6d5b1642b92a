"""Marginal sets: condition tables, consistency/Markov checks, derived marginals, file format."""

import os
import stat
import tracemalloc
import zipfile
from itertools import combinations

import numpy as np
import pytest

from snakeweaver.cli import main
from snakeweaver.lattice import as_region, cluster_region, region_intersection, region_union
from snakeweaver.marginal_store import (
    CheckReport,
    MarginalFileError,
    MarginalSet,
    MissingMarginalError,
    Window,
    c_m_conditions,
    check_local_consistency,
    check_markov_conditions,
    save_marginals,
)
from snakeweaver.operator_core import DensityOperator, _eigvalsh as eigvalsh, cmi, partial_trace, trace_distance
from snakeweaver.oracles import (
    depolarize_marginal,
    gen_product,
    gen_repetition_rows,
    gen_row_markov,
    ghz_row_source,
)
from snakeweaver.reconstruct import max_entropy_terms, row_major_med


def test_condition_table_first_diagram():
    conds = c_m_conditions((2, 0))
    assert len(conds) == 8
    first = conds[0]
    assert first.A == ((1, 0),)
    assert first.B == ((0, 0),)
    assert first.C == ((0, 1),)
    assert len(first.A + first.B + first.C) == 3  # this condition touches three sites only


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


def test_markov_checks_take_one_spectrum_per_distinct_region_per_cluster(monkeypatch):
    ms = gen_row_markov(Window(4, 4), seed=1).marginal_set()
    spectra = []

    def counting(mat):
        spectra.append(mat.shape[0])
        return eigvalsh(mat)

    monkeypatch.setattr("snakeweaver.operator_core._eigvalsh", counting)
    check_markov_conditions(ms)
    regions = {
        a: {r for c in c_m_conditions(a) for r in (region_union(c.A, c.B), region_union(c.B, c.C), c.B,
                                                 region_union(c.A, c.B, c.C))}
        for a in ms.anchors()
    }
    assert len(spectra) == sum(map(len, regions.values())) == 4 * len(regions[(2, 0)])
    # every later CMI of those regions reads the entropies the operators cached
    check_markov_conditions(ms)
    for a in ms.anchors():
        for cond in c_m_conditions(a):
            cmi(ms.marginals[a], cond.A, cond.B, cond.C)
    assert len(spectra) == sum(map(len, regions.values()))
    # the formula reads each region's entropy from its first parent's cache, which the checks filled
    asked = []
    read = ms.region_entropy
    monkeypatch.setattr(ms, "region_entropy", lambda r: asked.append(as_region(r)) or read(r))
    spectra.clear()
    max_entropy_terms(ms)
    taken = {(a, r) for a, rs in regions.items() for r in rs}
    wanted = {(ms.window.parents_of(r)[0], r) for r in asked}
    assert wanted & taken  # the formula shares regions with the checks
    assert len(spectra) == len(wanted - taken)


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
    # a failing record holds the exact distance; a passing one may hold the Frobenius bound
    assert {r.check_id for r in rep.records if r.detail["method"] == "exact"} == failing


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


def test_full_pairwise_pairs_are_the_overlapping_pairs_in_canonical_order():
    ms = gen_row_markov(Window(6, 5), seed=4, unitaries="none").marginal_set()
    anchors = ms.anchors()
    overlapping = [
        f"consistency:{a[0]},{a[1]}|{b[0]},{b[1]}"
        for i, a in enumerate(anchors)
        for b in anchors[i + 1:]
        if region_intersection(cluster_region(a, 3, 3), cluster_region(b, 3, 3))
    ]
    assert len(overlapping) < len(anchors) * (len(anchors) - 1) // 2  # clusters 3 columns apart share no site
    assert [r.check_id for r in check_local_consistency(ms, full_pairwise=True).records] == overlapping


class _RegionRecorder:
    """An entropy provider that records each region read through it."""

    def __init__(self, ms: MarginalSet):
        self.ms, self.window, self.regions = ms, ms.window, set()

    def region_entropy(self, region) -> float:
        self.regions.add(as_region(region))
        return self.ms.region_entropy(region)


@pytest.mark.parametrize(
    "make",
    [
        lambda: depolarize_marginal(gen_row_markov(Window(4, 4), seed=5).marginal_set(), (2, 0), 1e-3),
        lambda: gen_row_markov(Window(4, 4), seed=6, orientation="columns").marginal_set(),
    ],
    ids=["depolarized", "column-markov"],
)
def test_full_pairwise_residuals_bound_every_parent_disagreement(make):
    # a derived region lies in the overlap of any two of its parents, and partial trace does not grow the trace
    # distance, so each pair's record bounds the pair's disagreement on every region the entropy formulas read
    ms = make()
    full = check_local_consistency(ms, full_pairwise=True)
    residual = {tuple(tuple(a) for a in r.detail["anchors"]): r.residual for r in full.records}
    reader = _RegionRecorder(ms)
    max_entropy_terms(reader)
    row_major_med(reader, ms.window)
    worst = 0.0
    for region in reader.regions:
        parents = ms.window.parents_of(region)
        for a, b in combinations(parents, 2):
            dist = trace_distance(partial_trace(ms.marginals[a], region), partial_trace(ms.marginals[b], region))
            assert dist <= residual[(a, b)] + 1e-15  # rounding, where both distances vanish in exact arithmetic
            worst = max(worst, dist)
    assert worst <= full.max_residual() + 1e-15
    if full.max_residual() > 1e-8:
        assert worst > 1e-8  # the depolarized set has regions whose parents disagree


def test_derived_marginal_full_cluster_and_parent_choice():
    ms = gen_row_markov(Window(4, 4), seed=5).marginal_set()
    anchor = (2, 0)
    got = ms.derived_marginal(cluster_region(anchor, 3, 3))
    assert trace_distance(got, ms.marginals[anchor]) < 1e-12
    # 2x2 cluster anchored at (1, 1): canonical parent is the (2, 0) cluster
    region = cluster_region((1, 1), 2, 2)
    assert ms.window.parents_of(region)[0] == (2, 0)
    expect = partial_trace(ms.marginals[(2, 0)], region)
    assert trace_distance(ms.derived_marginal(region), expect) < 1e-12


def test_derived_marginal_shared_site_agrees_across_parents():
    ms = gen_row_markov(Window(4, 4), seed=6).marginal_set()
    region = ((2, 1),)
    parents = ms.window.parents_of(region)
    assert len(parents) == 4
    canonical = ms.derived_marginal(region)  # read from the first parent alone
    for p in parents:
        assert trace_distance(partial_trace(ms.marginals[p], region), canonical) < 1e-10


def test_derived_marginal_missing():
    ms = gen_row_markov(Window(4, 3), seed=7).marginal_set()
    with pytest.raises(MissingMarginalError):
        ms.derived_marginal([(0, 0), (3, 0)])  # spans all four columns


def _with_npy_version(path, version):
    """A copy of the container at ``path`` whose members all carry ``.npy`` headers of ``version``."""
    with np.load(path) as npz:
        members = dict(npz)
    out = path.with_name(f"npy{version[0]}.npz")
    with zipfile.ZipFile(out, "w") as zf:
        for name, value in members.items():
            with zf.open(f"{name}.npy", "w") as fh:
                # np.asarray keeps a 0-d member 0-d; np.ascontiguousarray would make it shape (1,)
                np.lib.format.write_array(fh, np.asarray(value), version=version)
    return out


def test_file_round_trip_is_bit_exact(tmp_path):
    ms = gen_row_markov(Window(4, 3), seed=8, unitaries="none").marginal_set()
    margs = {}
    for a, op in ms.marginals.items():
        mat = op.matrix.copy()
        mat.imag[...] = -0.0  # signed zeros survive only a bit-exact format
        margs[a] = DensityOperator(op.region, mat)
    ms = MarginalSet(ms.window, margs)
    path = tmp_path / "m.npz"
    ms.save(path)
    assert path.exists()  # written at exactly this path, with no suffix added
    # the writer's headers are 1.0; numpy writes 2.0 for a header past 64 KiB, and the reader takes both
    for back in (MarginalSet.load(path), MarginalSet.load(_with_npy_version(path, (2, 0)))):
        assert back.window == ms.window
        assert back.anchors() == ms.anchors()
        for a in ms.anchors():
            assert np.signbit(back.marginals[a].matrix.imag).all()
            assert back.marginals[a].matrix.tobytes() == ms.marginals[a].matrix.tobytes()


def test_file_parser_rejections(tmp_path):
    ms = gen_row_markov(Window(3, 3), seed=9).marginal_set()
    good = tmp_path / "good.npz"
    ms.save(good)
    with np.load(good) as npz:
        members = dict(npz)

    def reject(mutate, match=None):
        data = {name: arr.copy() for name, arr in members.items()}
        mutate(data)
        path = tmp_path / "bad.npz"
        np.savez(path, **data)
        with pytest.raises(MarginalFileError, match=match):
            MarginalSet.load(path)

    def reject_matrices_bytes(resize, match):
        # the `matrices` member's data changed behind its header, in a container whose CRCs hold
        path = tmp_path / "resized.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(path, "w") as zf:
            for name in src.namelist():
                data = src.read(name)
                zf.writestr(name, resize(data) if name == "matrices.npy" else data)
        with pytest.raises(MarginalFileError, match=match):
            MarginalSet.load(path)

    reject(lambda d: d.__setitem__("format_version", np.int64(1)))
    reject(lambda d: d.pop("format_version"))
    reject(lambda d: d.__setitem__("matrices", d["matrices"][:, :-1]))  # dimension mismatch
    reject(lambda d: d.update(anchors=d["anchors"][:0], matrices=d["matrices"][:0]))  # missing anchor
    reject(lambda d: d.__setitem__("anchors", np.array([[0, 0]])))  # outside anchor set
    reject(lambda d: d.update(anchors=d["anchors"].repeat(2, axis=0), matrices=d["matrices"].repeat(2, axis=0)))
    reject(lambda d: d.__setitem__("local_dim", np.int64(1)))
    reject(lambda d: d.__setitem__("local_dim", np.int64(3)))
    reject(lambda d: d.__setitem__("window", np.array([3, 3, 3])))
    reject(lambda d: d.__setitem__("window", np.array([0, 3])), match="malformed marginal file")
    reject(lambda d: d.update(window=np.array([4, 3]), anchors=np.array([[2, 0], [2, 0]]),
                              matrices=d["matrices"].repeat(2, axis=0)), match=r"duplicate marginal anchor \(2, 0\)")
    reject_matrices_bytes(lambda data: data[:-16], "member data ends 16 bytes early")
    reject_matrices_bytes(lambda data: data + bytes(16), "holds more data than its header declares")
    reject(lambda d: d.__setitem__("matrices", d["matrices"].astype(np.complex64)))
    reject(lambda d: d.__setitem__("matrices", np.asfortranarray(d["matrices"])))  # not readable cluster by cluster

    def unnormalize(d):
        d["matrices"][0, 0, 0] = 5.0

    def nan_entry(d):
        d["matrices"][0, 3, 3] = np.nan

    def unhermitian(d):
        d["matrices"][0, 0, 1] += 1e-3

    def negative(d):
        d["matrices"][0] = np.diag([1.1, -0.1] + [0.0] * 510)

    reject(unnormalize)
    reject(nan_entry)
    reject(unhermitian)
    reject(negative)
    reject(lambda d: d.__setitem__("matrices", np.int64(5)))

    with pytest.raises(MarginalFileError, match=r"has \.npy format version \(3, 0\)"):
        MarginalSet.load(_with_npy_version(good, (3, 0)))

    path = tmp_path / "trunc.npz"
    path.write_bytes(good.read_bytes()[:200])
    with pytest.raises(MarginalFileError):
        MarginalSet.load(path)


@pytest.mark.parametrize(
    "matrices",
    [
        lambda m: [m],  # too few for the two clusters of a 4x3 window
        lambda m: [m] * 3,  # too many
        lambda m: [m, m[:, :-1]],
        lambda m: [m, m.astype(np.complex64)],
    ],
    ids=["too-few", "too-many", "shape", "dtype"],
)
def test_save_marginals_refuses_wrong_matrices_and_leaves_no_file(matrices, tmp_path):
    with pytest.raises(ValueError, match="got"):
        save_marginals(tmp_path / "m.npz", Window(4, 3), iter(matrices(np.eye(512, dtype=np.complex128) / 512)))
    assert list(tmp_path.iterdir()) == []


def test_a_temporary_file_left_by_a_killed_write_blocks_no_later_write(tmp_path):
    # a write killed before its rename leaves its temporary sibling; one named as this process would name it
    # stands in for it
    path, ms = tmp_path / "stale.npz", gen_row_markov(Window(3, 3), seed=1).marginal_set()
    stale = tmp_path / f".stale.npz.{os.getpid()}.tmp"
    stale.write_bytes(b"a killed write")
    ms.save(path)
    assert np.array_equal(MarginalSet.load(path).marginals[(2, 0)].matrix, ms.marginals[(2, 0)].matrix)
    assert stale.read_bytes() == b"a killed write"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, path.name]
    # the file gets the mode a new file gets from open(), not that of a private temporary file
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_save_marginals_writes_the_bytes_of_np_savez(tmp_path):
    window = Window(4, 3)
    matrices = [np.full((512, 512), i, dtype=np.complex128) for i in range(2)]
    save_marginals(tmp_path / "m.npz", window, iter(matrices))
    np.savez(tmp_path / "ref.npz", format_version=2, window=np.array([4, 3]), local_dim=2,
             anchors=np.array(window.cluster_anchors()), matrices=np.stack(matrices))
    assert (tmp_path / "m.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()


def _crafted_container(path, crafted: str, descr: str, shape: tuple, **members) -> None:
    """A 3x3-window marginal container whose member ``crafted`` declares ``descr`` of ``shape`` over 4 KB of data;
    ``members`` replace or add to the others."""
    members = {"format_version": np.int64(2), "window": np.array([3, 3]), "local_dim": np.int64(2),
               "anchors": np.array([[2, 0]]), **members}
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in members.items():
            if name != crafted:
                with zf.open(f"{name}.npy", "w") as fh:
                    np.lib.format.write_array(fh, value)
        with zf.open(f"{crafted}.npy", "w") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": descr, "fortran_order": False, "shape": shape})
            fh.write(bytes(4096))


def _traced_peak(call):
    """``call()`` and the tracemalloc peak, in bytes, of the allocations it made."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _refuse_load(path, match):
    with pytest.raises(MarginalFileError, match=match):
        MarginalSet.load(path)


def test_a_matrices_header_declaring_a_huge_shape_is_refused_before_any_allocation(tmp_path):
    # (1, 8192, 8192) complex128 is 1 GiB; the member holds 4 KB of it
    path = tmp_path / "huge.npz"
    _crafted_container(path, "matrices", "<c16", (1, 8192, 8192))
    _, peak = _traced_peak(lambda: _refuse_load(path, "matrices"))
    assert peak < 16 * 2 ** 20


def test_an_anchors_header_declaring_too_many_rows_is_refused_before_any_allocation(tmp_path):
    # (50_000_000, 2) int64 is 800 MB; the member holds 4 KB of it, and a 3x3 window has one cluster
    path = tmp_path / "anchors.npz"
    _crafted_container(path, "anchors", "<i8", (50_000_000, 2), matrices=np.zeros((1, 512, 512), complex))
    _, peak = _traced_peak(lambda: _refuse_load(path, "has 1 3x3 clusters, got 50000000 marginals"))
    assert peak < 10 * 2 ** 20


def test_a_file_of_qutrits_is_refused_from_its_local_dim_before_its_matrices_are_read(tmp_path, capsys):
    # 3^9 = 19683: a matching matrices header declares 6.2 GB for the one cluster; the member holds 4 KB of it
    path = tmp_path / "qutrits.npz"
    _crafted_container(path, "matrices", "<c16", (1, 3 ** 9, 3 ** 9), local_dim=np.int64(3))
    code, peak = _traced_peak(lambda: main(["check", str(path)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "local_dim is 3" in err and "dense guard" in err
    assert peak < 10 * 2 ** 20


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
