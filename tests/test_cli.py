"""End-to-end CLI behavior: generation, checks, reconstruction, reports, exit codes."""

import argparse
import json
import math
import re
import resource
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from snakeweaver import cli
from snakeweaver.cli import main
from snakeweaver.marginal_store import (
    MarginalSet,
    Window,
    check_local_consistency,
    check_markov_conditions,
    save_marginals,
)
from snakeweaver.operator_core import DensityOperator, StateError
from snakeweaver.oracles import RowMarkovSource, depolarize_marginal, gen_product, gen_row_markov, ghz_row_source
from snakeweaver.reconstruct import max_entropy_formula, max_entropy_terms, row_major_med


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def row_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "row33.npz"
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "3",
               "--seed", "1", "--out", str(path)) == 0
    return path


def test_generate_then_check_passes(row_file, capsys):
    assert run("check", str(row_file)) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_check_json_report(row_file, capsys):
    assert run("check", str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 6
    assert payload["command"] == "check"
    assert payload["checks"]["markov"]["passed"] is True
    assert payload["checks"]["markov"]["summary"]["cmi"]["checks"] == 8


def test_ghz_row_fails_check(tmp_path):
    path = tmp_path / "ghz.npz"
    ghz_row_source(Window(3, 3))[0].save(path)
    assert run("check", str(path)) == 1


def _depolarized_row_markov(path, eps):
    """The 4x3 row-Markov set of seed 2 without unitaries, its first cluster (2, 0) depolarized by ``eps``."""
    depolarize_marginal(gen_row_markov(Window(4, 3), seed=2, unitaries="none").marginal_set(), (2, 0), eps).save(path)
    return path


# tolerances above any residual: a trace distance is at most 1, though a computed one can round past it, and a CMI on
# a 3x3 cluster is at most 2 * 5 = 10 bits
_LOOSE = ("--tol-consistency", "2", "--tol-cmi", "20")


@pytest.fixture(scope="module")
def depolarized_file(tmp_path_factory):
    return _depolarized_row_markov(tmp_path_factory.mktemp("cli") / "dep.npz", 1e-3)


def test_depolarized_marginals_fail_consistency(depolarized_file, capsys):
    assert run("check", str(depolarized_file), "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [
        r["check_id"]
        for r in payload["checks"]["consistency"]["records"]
        if not r["passed"]
    ]
    assert failing and all("2,0" in f for f in failing)
    # entropy reads derived marginals only after its own full-pairwise check: a failed check, not a traceback
    assert run("entropy", str(depolarized_file), "--json") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: consistency:2,0|3,0 fails") and captured.err.count("\n") == 1
    # the refused run still reports its check, and no entropy
    refused = json.loads(captured.out)
    assert list(refused) == ["schema_version", "command", "config", "checks", "peak_rss_mb"]
    assert list(refused["checks"]) == ["consistency"] and not refused["checks"]["consistency"]["passed"]


def test_reconstruct_under_loose_tolerances_rebuilds_inconsistent_marginals(depolarized_file, capsys):
    # tolerances above any residual let reconstruct rebuild input that fails its checks at the defaults
    assert run("reconstruct", str(depolarized_file), *_LOOSE, "--json") == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    checks = json.loads(captured.out)["checks"]
    by_id = {r["check_id"]: r for r in checks["consistency"]["records"]}
    assert by_id["consistency:2,0|3,0"]["residual"] > 1e-8  # fails at the default --tol-consistency
    assert not checks["marginal_fidelity"]["passed"]


def test_check_and_reconstruct_agree_at_the_users_tolerance(tmp_path, capsys):
    path = _depolarized_row_markov(tmp_path / "dep5.npz", 1e-5)
    tols = ("--tol-consistency", "1e-4", "--tol-cmi", "1e-4")
    check = _json_run(capsys, "check", str(path), *tols)
    # the reconstruction reproduces each marginal to about the depolarization, 2.5e-6, so its tolerance is 1e-4 too
    recon = _json_run(capsys, "reconstruct", str(path), *tols, "--tol-reconstruction", "1e-4")
    for name in ("consistency", "markov"):
        assert check["checks"][name]["passed"]
        assert recon["checks"][name] == check["checks"][name]
    assert recon["checks"]["consistency"]["summary"]["consistency"]["max_residual"] > 1e-8


def _members(path) -> dict:
    with np.load(path) as npz:
        return dict(npz)


def test_malformed_and_truncated_files_exit_2(tmp_path, row_file):
    good = row_file.read_bytes()
    for name, data in (("bad", b'{"nope": 1}'), ("empty", b""), ("head", good[:500]), ("tail", good[:-1])):
        path = tmp_path / name
        path.write_bytes(data)
        assert run("check", str(path)) == 2, name
    members = _members(row_file)
    members["matrices"][0, 0, 0] = np.nan
    nan = tmp_path / "nan.npz"
    np.savez(nan, **members)
    assert run("check", str(nan)) == 2


def test_format_1_json_file_exits_2_with_one_error_line(tmp_path, capsys):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"format_version": 1, "window": {"width": 3, "height": 3}, "local_dim": 2,
                                  "marginals": []}))
    assert run("check", str(legacy)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "snakeweaver generate" in err


def test_round_trip_is_bit_exact(row_file, tmp_path):
    ms = MarginalSet.load(row_file)
    copy = tmp_path / "copy.npz"
    ms.save(copy)
    again = MarginalSet.load(copy)
    for a in ms.anchors():
        assert np.array_equal(ms.marginals[a].matrix, again.marginals[a].matrix)


@pytest.mark.parametrize(
    "kind,unitaries",
    [("row-markov", "haar"), ("row-markov", "real"), ("row-markov", "none"), ("column-markov", "haar"),
     ("column-markov", "real"), ("column-markov", "none"), ("product", "haar")],
)
def test_generate_writes_the_bytes_of_the_saved_marginal_set(kind, unitaries, tmp_path):
    window, seed = Window(4, 3), 6
    streamed, saved = tmp_path / "streamed.npz", tmp_path / "saved.npz"
    options = ("--seed", str(seed)) + (() if kind == "product" else ("--unitaries", unitaries))
    assert run("generate", "--kind", kind, *options, "--width", "4", "--height", "3", "--out", str(streamed)) == 0
    if kind == "product":
        ms = gen_product(window, seed=seed).marginal_set()
    else:
        orientation = "columns" if kind == "column-markov" else "rows"
        ms = gen_row_markov(window, seed=seed, orientation=orientation, unitaries=unitaries).marginal_set()
    ms.save(saved)
    assert streamed.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize("width", [4, 8])
def test_generate_holds_one_cluster_at_a_time(width, tmp_path):
    # a 512-dim cluster marginal is 4 MiB; building one holds its input and output, so the peak stays near two of
    # them however many clusters the window has
    cluster_bytes = 512 * 512 * 16
    tracemalloc.start()
    try:
        assert run("generate", "--kind", "row-markov", "--width", str(width), "--height", "4", "--seed", "1",
                   "--out", str(tmp_path / "m.npz")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * cluster_bytes


@pytest.mark.parametrize("command", ["check", "entropy"])
@pytest.mark.parametrize("width", [4, 8])
def test_check_and_entropy_hold_one_cluster_at_a_time(command, width, tmp_path):
    # the reader validates one cluster, hands it to the checks and releases it before it reads the next, so the peak
    # stays near one cluster and its validation's temporaries however many clusters the window has (1.2-1.5 of them
    # on these windows); a cluster kept while the next is read would take it past 2
    cluster_bytes = 512 * 512 * 16
    path = tmp_path / "m.npz"
    assert run("generate", "--kind", "row-markov", "--width", str(width), "--height", "4", "--seed", "1",
               "--out", str(path)) == 0
    tracemalloc.start()
    try:
        assert run(command, str(path)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * cluster_bytes


@pytest.fixture(scope="module")
def row44_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "row44.npz"
    gen_row_markov(Window(4, 4), seed=1).marginal_set().save(path)
    return path


def _flip_a_low_bit_of_the_last_cluster(members, path):
    # the last byte of the file's last cluster is the low byte of the imaginary part of its last diagonal entry, so
    # the flip moves that entry by one unit in its last place and leaves a valid state that only the CRC refuses
    np.savez(path, **members)
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("matrices.npy")
    name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26:info.header_offset + 30])
    end = info.header_offset + 30 + name_len + extra_len + info.file_size
    data[end - 8] ^= 1
    path.write_bytes(bytes(data))


def _non_psd(m):
    m[-1] = np.diag([1.1, -0.1] + [0.0] * 510)


def _non_finite(m):
    m[-1, 3, 3] = np.nan


def _non_hermitian(m):
    m[-1, 0, 1] += 1e-3


@pytest.mark.parametrize("damage", [_non_psd, _non_finite, _non_hermitian, None])
@pytest.mark.parametrize("command", ["check", "entropy"])
def test_a_damaged_last_cluster_is_refused_after_the_others_were_checked(damage, command, row44_file, tmp_path,
                                                                        capsys):
    members = _members(row44_file)
    path = tmp_path / "bad.npz"
    if damage is None:
        _flip_a_low_bit_of_the_last_cluster(members, path)
    else:
        damage(members["matrices"])
        np.savez(path, **members)
    assert run(command, str(path), "--json") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ("marginal at (3, 1)" if damage else "Bad CRC-32") in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("width,height", [(4, 4), (5, 4), (4, 3), (3, 4)])
def test_reports_do_not_depend_on_the_anchor_order_and_equal_the_marginal_set_checks(width, height, tmp_path,
                                                                                    capsys):
    window = Window(width, height)
    ms = gen_row_markov(window, seed=3).marginal_set()
    canonical, reversed_ = tmp_path / "canonical.npz", tmp_path / "reversed.npz"
    ms.save(canonical)
    anchors = ms.anchors()[::-1]
    np.savez(reversed_, format_version=2, window=np.array([width, height]), local_dim=2, anchors=np.array(anchors),
             matrices=np.stack([ms.marginals[a].matrix for a in anchors]))
    assert list(MarginalSet.load(reversed_).marginals) == list(anchors)
    # reconstruct refuses windows past the dense guard, 4x4 and 5x4, from the header
    commands = [("check",), ("check", "--full-pairwise"), ("entropy",)]
    if width * height <= 14:
        commands.append(("reconstruct",))
    for command, *options in commands:
        outputs = []
        for path in (canonical, reversed_):
            assert run(command, str(path), *options, "--json") == 0
            outputs.append(capsys.readouterr().out)
        prefixes = [out.split('"peak_rss_mb"')[0] for out in outputs]
        assert prefixes[0] == prefixes[1]  # byte for byte up to the last key, peak_rss_mb
        payload = json.loads(outputs[0])
        checks = payload["checks"]
        if command == "check":
            assert checks["consistency"] == check_local_consistency(ms, full_pairwise=bool(options)).to_dict()
            assert checks["markov"] == check_markov_conditions(ms).to_dict()
        elif command == "reconstruct":
            assert checks["consistency"] == check_local_consistency(ms, full_pairwise=True).to_dict()
            assert checks["markov"] == check_markov_conditions(ms).to_dict()
            assert checks["marginal_fidelity"]["passed"]
        else:
            assert checks["consistency"] == check_local_consistency(ms, full_pairwise=True).to_dict()
            terms = max_entropy_terms(ms)
            assert payload["terms"] == [{"anchor": list(a), "term": float(t)} for a, t in terms]
            assert payload["max_entropy_formula"] == float(sum(t for _, t in terms))
            assert payload["row_path_med"] == float(row_major_med(ms, window))


def test_a_failed_generate_leaves_no_file_and_keeps_the_old_one(tmp_path, monkeypatch, capsys):
    built = []
    real = RowMarkovSource.marginal

    def fail_on_the_third_cluster(self, region):
        built.append(region)
        if len(built) == 3:
            raise StateError("third cluster refused")
        return real(self, region)

    monkeypatch.setattr(RowMarkovSource, "marginal", fail_on_the_third_cluster)
    out = tmp_path / "m.npz"
    argv = ("generate", "--kind", "row-markov", "--width", "4", "--height", "4", "--seed", "1", "--out", str(out))
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: third cluster refused\n"
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"an earlier file")
    built.clear()
    assert run(*argv) == 2
    assert list(tmp_path.iterdir()) == [out] and out.read_bytes() == b"an earlier file"


def test_reconstruct_small_window(row_file, capsys):
    assert run("reconstruct", str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["entropy"] - payload["max_entropy_formula"]) < 1e-6
    assert payload["checks"]["marginal_fidelity"]["passed"] is True
    assert payload["entropy_method"] == "chain"
    [step] = payload["step_cmis"]
    assert step["method"] == "bound"
    assert abs(step["trace_before_renorm"] - 1.0) <= 1e-10 and 0.0 <= step["negative_weight"] <= 1e-10


def test_reconstruct_reports_the_exact_path_for_a_random_pure_state(tmp_path, capsys):
    window = Window(3, 3)
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    psi /= np.linalg.norm(psi)
    path = tmp_path / "pure.npz"
    MarginalSet.from_global(DensityOperator(window.sites(), np.outer(psi, psi.conj())), window).save(path)
    assert run("reconstruct", str(path), *_LOOSE, "--json") == 1  # a pure state is not Markov
    payload = json.loads(capsys.readouterr().out)
    assert payload["entropy_method"] == "exact"
    assert [step["method"] for step in payload["step_cmis"]] == ["exact"]


@pytest.fixture(scope="module")
def tall_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tall.npz"
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "5",
               "--unitaries", "none", "--seed", "3", "--out", str(path)) == 0
    return path


def test_reconstruct_guard_exit_3(tall_file, capsys):
    capsys.readouterr()
    assert run("reconstruct", str(tall_file)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "guard" in err and "snakeweaver entropy" in err
    # entropy gives the formula of a window past the guard
    payload = _json_run(capsys, "entropy", str(tall_file))
    assert payload["max_entropy_formula"] == float(max_entropy_formula(MarginalSet.load(tall_file)))


def test_reconstruct_refuses_a_window_past_the_guard_before_reading_a_cluster(tall_file, tmp_path, capsys):
    members = _members(tall_file)
    _non_finite(members["matrices"])
    path = tmp_path / "bad.npz"
    np.savez(path, **members)
    assert run("check", str(path)) == 2  # the last cluster is refused once it is read
    capsys.readouterr()
    assert run("reconstruct", str(path), "--json") == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and "guard" in captured.err
    assert captured.out == ""


def test_reconstruct_on_overlaps_of_disjoint_support_is_refused_with_its_checks(tmp_path, capsys):
    # cluster (2,0) is |0..0><0..0| and cluster (3,0) is |1..1><1..1|, so no merge of them has a trace
    path, window = tmp_path / "disjoint.npz", Window(4, 3)
    zeros, ones = np.zeros((512, 512), complex), np.zeros((512, 512), complex)
    zeros[0, 0] = ones[-1, -1] = 1.0
    save_marginals(path, window, [zeros, ones])
    assert window.cluster_anchors() == ((2, 0), (3, 0))
    assert run("reconstruct", str(path), *_LOOSE, "--json") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot reconstruct: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["checks"]["consistency"]["summary"]["consistency"]["max_residual"] == 1.0  # fails at the default tolerance
    assert "entropy" not in payload


def test_reconstruct_refuses_input_that_fails_its_checks(tmp_path, capsys):
    path = tmp_path / "ghz.npz"
    ghz_row_source(Window(3, 3))[0].save(path)
    assert run("reconstruct", str(path), "--json") == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: marginals fail their checks at --tol-consistency and --tol-cmi; raise them to "
                            "reconstruct anyway\n")
    # the refused run still reports its checks, and nothing of a reconstruction
    payload = json.loads(captured.out)
    assert list(payload) == ["schema_version", "command", "config", "checks", "peak_rss_mb"]
    assert list(payload["checks"]) == ["consistency", "markov"] and not payload["checks"]["markov"]["passed"]
    assert run("reconstruct", str(path), *_LOOSE) == 1  # proceeds, fidelity still fails


def test_entropy_command(row_file, capsys):
    assert run("entropy", str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["max_entropy_formula"] - payload["row_path_med"]) < 1e-6
    assert payload["terms"]
    assert payload["checks"]["consistency"]["passed"] is True  # a single cluster has no pair to check


def _json_run(capsys, *argv):
    assert run(*argv, "--json") == 0
    return json.loads(capsys.readouterr().out)


def test_an_extra_member_is_ignored(row_file, tmp_path, capsys):
    members = _members(row_file)
    assert "log_base" not in members
    extra = tmp_path / "extra.npz"
    np.savez(extra, **members, log_base=np.float64(math.e))
    assert run("check", str(extra), "--json") == 0
    with_extra = capsys.readouterr().out
    assert run("check", str(row_file), "--json") == 0
    assert capsys.readouterr().out == with_extra


def _assert_peak_rss(payload):
    # ru_maxrss only grows, so the value at emit time is at most the one read now
    assert 0.0 < payload["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_generate_json_prints_its_report(tmp_path, capsys):
    assert run("generate", "--kind", "product", "--width", "3", "--height", "3",
               "--out", str(tmp_path / "p.npz"), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["schema_version", "command", "peak_rss_mb"]
    assert (payload["schema_version"], payload["command"]) == (6, "generate")
    _assert_peak_rss(payload)


@pytest.mark.parametrize("command", ["check", "entropy", "reconstruct"])
def test_every_json_report_carries_the_peak_rss(command, row_file, capsys):
    assert run(command, str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == command and list(payload)[-1] == "peak_rss_mb"
    _assert_peak_rss(payload)


@pytest.mark.parametrize(
    "argv",
    [
        # every entropy, CMI and CMI tolerance is in bits
        ("check", "--log-base", "e"),
        ("entropy", "--log-base", "e"),
        ("reconstruct", "--log-base", "e"),
        ("generate", "--kind", "product", "--log-base", "e"),
        ("entropy", "--tol-cmi", "1e-6"),
        # BLAS threads are capped by the BLAS library's environment variables, not by an option
        ("check", "--threads", "2"),
        ("generate", "--kind", "product", "--threads", "2"),
        # `entropy` gives the formula alone, for any window
        ("reconstruct", "--formula-only"),
        # the CLI writes marginal files and JSON reports only
        ("generate", "--kind", "product", "--global-out", "g.npz"),
        ("reconstruct", "--state-out", "s.npz"),
        # input that fails the checks is built with the library; reconstruct rebuilds it under loose tolerances
        ("generate", "--kind", "ghz-row"),
        ("generate", "--kind", "depolarized"),
        ("generate", "--kind", "row-markov", "--eps", "0.1"),
        ("generate", "--kind", "row-markov", "--anchor", "2", "0"),
        ("reconstruct", "--force"),
        # a report goes to stdout under --json
        ("check", "--report", "r.json"),
        ("reconstruct", "--report", "r.json"),
        ("entropy", "--report", "r.json"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(argv, row_file, tmp_path, capsys):
    target = ("--out", str(tmp_path / "x.npz")) if argv[0] == "generate" else (str(row_file),)
    with pytest.raises(SystemExit) as exc:
        run(*argv, *target)
    assert exc.value.code == 2
    removed_kind = argv[1:3] in (("--kind", "ghz-row"), ("--kind", "depolarized"))
    assert ("invalid choice" if removed_kind else "unrecognized arguments") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _subcommands() -> argparse._SubParsersAction:
    [action] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_the_help_gives_the_loose_tolerances_these_tests_use():
    # a computed trace distance rounds past 1, so --tol-consistency 1 does not pass every overlap
    [reconstruct] = [a.help for a in _subcommands()._choices_actions if a.dest == "reconstruct"]
    for text in (reconstruct, cli.__doc__):
        values = re.findall(r"--tol-consistency ([\d.e+-]+) --tol-cmi ([\d.e+-]+)", " ".join(text.split()))
        assert values == [(_LOOSE[1], _LOOSE[3])]


def test_each_command_takes_exactly_its_options():
    options = {name: [flag for a in sub._actions for flag in a.option_strings if flag not in ("-h", "--help")]
               for name, sub in _subcommands().choices.items()}
    assert options == {
        "check": ["--full-pairwise", "--tol-cmi", "--tol-consistency", "--json"],
        "reconstruct": ["--tol-reconstruction", "--tol-cmi", "--tol-consistency", "--json"],
        "entropy": ["--json"],
        "generate": ["--kind", "--width", "--height", "--out", "--unitaries", "--seed", "--json"],
    }


def test_no_environment_variable_of_its_own_changes_a_run(row_file, monkeypatch, capsys):
    monkeypatch.setenv("SNAKEWEAVER_THREADS", "abc")
    assert run("check", str(row_file)) == 0
    assert capsys.readouterr().err == ""


def test_generate_rejects_bad_params(tmp_path):
    assert run("generate", "--kind", "row-markov", "--width", "0", "--height", "3",
               "--out", str(tmp_path / "x.npz")) == 2


def test_generate_refuses_an_option_its_kind_does_not_read(tmp_path, capsys):
    out = tmp_path / "x.npz"
    assert run("generate", "--kind", "product", "--width", "3", "--height", "3", "--unitaries", "none",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--unitaries" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "one"])
def test_a_seed_that_is_not_a_non_negative_integer_exits_2_naming_the_flag(seed, tmp_path, capsys):
    out = tmp_path / "x.npz"
    with pytest.raises(SystemExit) as exc:
        run("generate", "--kind", "row-markov", "--width", "3", "--height", "3", "--seed", seed, "--out", str(out))
    assert exc.value.code == 2
    [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert "--seed" in line and repr(seed) in line and "integer >= 0" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--kind", "row-markov", "--width", "2", "--height", "3"),
        ("generate", "--kind", "row-markov", "--width", "3", "--height", "2"),
        ("generate", "--kind", "product", "--width", "2", "--height", "3"),
        ("generate", "--kind", "column-markov", "--width", "3", "--height", "2"),
        ("check",),
        ("entropy",),
        ("reconstruct",),
    ],
)
def test_a_window_without_a_cluster_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "x.npz"
    if argv[0] == "generate":
        argv = (*argv, "--out", str(path))
    else:
        np.savez(path, format_version=2, window=np.array([2, 3]), local_dim=2,
                 anchors=np.zeros((0, 2), dtype=np.int64), matrices=np.zeros((0, 512, 512), dtype=np.complex128))
        argv = (*argv, str(path))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no 3x3 cluster" in err
    assert path.exists() == (argv[0] != "generate")


@pytest.mark.parametrize("flag", ["--tol-cmi", "--tol-consistency", "--tol-reconstruction"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_a_tolerance_that_cannot_be_checked_exits_2(flag, value, row_file, monkeypatch, capsys):
    # under a NaN step tolerance `reconstruct` takes a 0.19-bit step bound as certified; under -1 every check fails
    ran = []
    for name in ("MarginalReader", "reconstruct_global"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: ran.append(_name))
    with pytest.raises(SystemExit) as exc:
        run("reconstruct", str(row_file), flag, value)
    assert exc.value.code == 2
    [line] = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert flag in line and repr(value) in line and "finite number >= 0" in line
    assert ran == []


def test_an_unwritable_output_path_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "missing" / "x.npz")
    ran = []
    real = cli.gen_row_markov
    monkeypatch.setattr(cli, "gen_row_markov", lambda *a, **k: ran.append("gen_row_markov") or real(*a, **k))
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "3", "--out", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    # refused before any cluster is built, and no output is left behind
    assert ran == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("height", [2, 3])
def test_generate_onto_a_dangling_link_exits_2_and_creates_no_file(height, tmp_path, capsys):
    # the probe opens an existing path without creating anything: a link to a missing target stays dangling
    link = tmp_path / "link.npz"
    link.symlink_to(tmp_path / "target.npz")
    assert run("generate", "--kind", "product", "--width", "3", "--height", str(height), "--out", str(link)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(link) in err
    assert list(tmp_path.iterdir()) == [link] and link.is_symlink()


def test_a_crafted_huge_window_is_refused_at_once_with_a_short_error(tmp_path, capsys):
    # 996,004 clusters declared, none given: refused from the count, before any anchor list is built
    path = tmp_path / "huge.npz"
    np.savez(path, format_version=2, window=np.array([1000, 1000]), local_dim=2,
             anchors=np.zeros((0, 2), dtype=np.int64), matrices=np.zeros((0, 512, 512), dtype=np.complex128))
    assert run("check", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 1024
    assert "996004 3x3 clusters" in err


def test_a_marginal_admitted_with_an_anti_hermitian_part_still_checks(row_file, tmp_path, capsys):
    # 4e-11 * (Y' x I) on the first site: 8e-11 from Hermitian, under the 1e-10 load bound, but 256 times
    # that in its one-site reduction unless the marginal is Hermitized where it is read
    members = _members(row_file)
    members["matrices"][0] += 4e-11 * np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(256))
    path = tmp_path / "skew.npz"
    np.savez(path, **members)
    for command in ("check", "entropy"):
        assert run(command, str(path)) == 0, command
    assert capsys.readouterr().err == ""
