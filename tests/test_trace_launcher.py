"""The benchmark's traced launcher runs CLI commands, and each check runs once per command.

``perfbench/tracer.py`` resolves every name it traces when it starts, so a
rename or deletion of a traced function fails here as well as in the benchmark.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snakeweaver.marginal_store import MarginalSet, Window
from snakeweaver.oracles import gen_row_markov

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def row_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "row33.npz"
    gen_row_markov(Window(3, 3), seed=1).marginal_set().save(path)
    return path


def _spans(tmp_path, *argv) -> list:
    spans = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "--", *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_traced_command_runs_each_check_once(command, row_file, tmp_path):
    counts = collections.Counter(span["name"] for span in _spans(tmp_path, command, str(row_file), "--json"))
    assert counts[f"cli.{command}"] == 1
    # both commands run both checks on each cluster as the reader streams it, so neither loads a set or calls a
    # set-wide check
    assert counts["marginal_store.MarginalSet.load"] == 0
    assert counts["marginal_store.check_local_consistency"] == 0
    assert counts["marginal_store.check_markov_conditions"] == 0
    if command == "check":
        assert counts["operator_core.cmi"] == 8  # the one cluster's eight conditions, each once
    assert counts["reconstruct.reconstruct_global"] == (command == "reconstruct")


def test_traced_generate_streams_its_clusters(tmp_path):
    out = tmp_path / "row43.npz"
    argv = ("generate", "--kind", "row-markov", "--width", "4", "--height", "3", "--seed", "1", "--out", str(out))
    counts = collections.Counter(span["name"] for span in _spans(tmp_path, *argv, "--json"))
    assert counts["cli.generate"] == 1
    # each cluster goes to the file as it is built: no marginal set is formed or saved
    assert counts["oracles.RowMarkovSource.marginal_set"] == counts["marginal_store.MarginalSet.save"] == 0
    assert MarginalSet.load(out).anchors() == Window(4, 3).cluster_anchors()


def test_reconstruct_forms_no_dense_window_state(row_file, tmp_path):
    spans = _spans(tmp_path, "reconstruct", str(row_file), "--json")
    dims = [s["dim"] for s in spans if s["name"] == "merge.right_merge_info"]
    assert dims  # the level-2 strips are still built by merges
    assert max(dims) < 2 ** 9  # 2^(3*3): the whole window


@pytest.mark.parametrize("height", [3, 4])
def test_each_merge_step_builds_one_petz_factor(height, tmp_path):
    # the strips' own merges take smaller roots; a 64-dim one is the Petz factor of a step's 64-dim strip.
    # On 3x4 the first step carries sigma on, which takes the dense merge from the step's own call.
    path = tmp_path / "row.npz"
    gen_row_markov(Window(3, height), seed=1).marginal_set().save(path)
    spans = _spans(tmp_path, "reconstruct", str(path), "--json")
    assert [s["dim"] for s in spans if s["name"] == "operator_core.sqrt_psd"].count(2 ** 6) == height - 2
