"""End-to-end CLI behavior: generation, checks, reconstruction, reports, exit codes."""

import json

import numpy as np
import pytest

from snakeweaver.cli import main
from snakeweaver.marginal_store import MarginalSet, Window, matrix_from_json
from snakeweaver.oracles import gen_row_markov
from snakeweaver.reconstruct import reconstruct_global


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def row_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "row33.json"
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "3",
               "--seed", "1", "--out", str(path)) == 0
    return path


def test_generate_then_check_passes(row_file, capsys):
    assert run("check", str(row_file)) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_check_json_report(row_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run("check", str(row_file), "--json", "--report", str(report_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["command"] == "check"
    assert payload["checks"]["markov"]["passed"] is True
    assert payload["checks"]["markov"]["summary"]["cmi"]["checks"] == 8
    on_disk = json.loads(report_path.read_text())
    assert on_disk == payload


def test_ghz_row_fails_check(tmp_path):
    path = tmp_path / "ghz.json"
    assert run("generate", "--kind", "ghz-row", "--width", "3", "--height", "3",
               "--out", str(path)) == 0
    assert run("check", str(path)) == 1


def test_depolarized_kind_fails_consistency(tmp_path, capsys):
    path = tmp_path / "dep.json"
    assert run("generate", "--kind", "depolarized", "--width", "4", "--height", "3",
               "--seed", "2", "--unitaries", "none", "--eps", "1e-3",
               "--out", str(path)) == 0
    capsys.readouterr()  # drop the generate banner
    assert run("check", str(path), "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [
        r["check_id"]
        for r in payload["checks"]["consistency"]["records"]
        if not r["passed"]
    ]
    assert failing and all("2,0" in f for f in failing)
    # the disagreeing parents stop the derived marginals: a failed check, not a traceback
    for argv in (("entropy", str(path)), ("reconstruct", str(path), "--force")):
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parents") and err.count("\n") == 1
        assert "Traceback" not in err


def test_malformed_and_truncated_files_exit_2(tmp_path, row_file):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    assert run("check", str(bad)) == 2
    trunc = tmp_path / "trunc.json"
    trunc.write_text(row_file.read_text()[:500])
    assert run("check", str(trunc)) == 2
    data = json.loads(row_file.read_text())
    data["marginals"][0]["matrix"][0][0] = [float("nan"), 0.0]
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(data))
    assert run("check", str(nan)) == 2


def test_round_trip_is_bit_exact(row_file, tmp_path):
    ms = MarginalSet.load(row_file)
    copy = tmp_path / "copy.json"
    ms.save(copy)
    again = MarginalSet.load(copy)
    for a in ms.anchors():
        assert np.array_equal(ms.marginals[a].matrix, again.marginals[a].matrix)


def test_global_and_state_files_hold_the_exact_matrices(tmp_path):
    marginals, global_out, state_out = (tmp_path / f for f in ("m.json", "g.json", "s.json"))
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "3", "--seed", "4",
               "--out", str(marginals), "--global-out", str(global_out)) == 0
    assert run("reconstruct", str(marginals), "--state-out", str(state_out)) == 0
    source = gen_row_markov(Window(3, 3), seed=4)
    written = json.loads(global_out.read_text())
    assert np.array_equal(matrix_from_json(written["matrix"]), source.global_state().matrix)
    result = reconstruct_global(MarginalSet.load(marginals))
    written = json.loads(state_out.read_text())
    assert np.array_equal(matrix_from_json(written["matrix"]), result.state.matrix)


def test_reconstruct_small_window(row_file, capsys):
    assert run("reconstruct", str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["entropy"] - payload["max_entropy_formula"]) < 1e-6
    assert payload["checks"]["marginal_fidelity"]["passed"] is True


def test_reconstruct_guard_exit_3(tmp_path):
    path = tmp_path / "tall.json"
    assert run("generate", "--kind", "row-markov", "--width", "3", "--height", "5",
               "--unitaries", "none", "--seed", "3", "--out", str(path)) == 0
    assert run("reconstruct", str(path)) == 3
    assert run("reconstruct", str(path), "--formula-only") == 0


def test_reconstruct_refuses_failing_input_without_force(tmp_path):
    path = tmp_path / "ghz.json"
    run("generate", "--kind", "ghz-row", "--width", "3", "--height", "3", "--out", str(path))
    assert run("reconstruct", str(path)) == 1
    assert run("reconstruct", str(path), "--force") == 1  # proceeds, fidelity still fails


def test_entropy_command(row_file, capsys):
    assert run("entropy", str(row_file), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["max_entropy_formula"] - payload["row_path_med"]) < 1e-6
    assert payload["terms"]


def test_entropy_nats(row_file, capsys):
    assert run("entropy", str(row_file), "--json", "--log-base", "e") == 0
    nats = json.loads(capsys.readouterr().out)["max_entropy_formula"]
    assert run("entropy", str(row_file), "--json") == 0
    bits = json.loads(capsys.readouterr().out)["max_entropy_formula"]
    assert nats == pytest.approx(bits * np.log(2.0), abs=1e-9)


@pytest.mark.parametrize(
    "argv", [("generate", "--kind", "product", "--log-base", "e"), ("entropy", "--tol-cmi", "1e-6")]
)
def test_flags_a_command_does_not_read_are_rejected(argv, row_file, tmp_path, capsys):
    target = ("--out", str(tmp_path / "x.json")) if argv[0] == "generate" else (str(row_file),)
    with pytest.raises(SystemExit) as exc:
        run(*argv, *target)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_generate_rejects_bad_params(tmp_path):
    assert run("generate", "--kind", "row-markov", "--width", "0", "--height", "3",
               "--out", str(tmp_path / "x.json")) == 2
