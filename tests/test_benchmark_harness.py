"""The benchmark harness runs each workload end to end from a fresh copy of the sources, as a benchmark run does.

``--quick`` shrinks every workload to a 3x3 window, so each run takes a few seconds and still goes through every
command, output gate and metric that a full run reports.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["recon-4x3", "survey-4x4"])
def test_a_quick_benchmark_run_is_correct_and_reports_the_declared_metrics(workload, tmp_path):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", workload, "--quick", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    declared = json.loads((tmp_path / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
