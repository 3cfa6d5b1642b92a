"""Self-test of the benchmark harness: every workload's code path and gates on 3x3 windows.

    python3 perfbench/selftest.py

Runs ``run.py --quick`` for each workload untraced on two seeds and traced on
one, and requires a correct result whose metrics are exactly the ones
``BENCHMARK.json`` declares.  Then copies only ``BENCHMARK.json`` and this
directory into ``.perfbench/bare/`` and requires ``run.py`` to fail there
without printing a result.  Takes about a minute; exits non-zero on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            res = run(ROOT, "--workload", wl, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick")
            label = f"{wl} seed {seed} trace {trace}"
            before = len(problems)
            if res.returncode != 0:
                problems.append(f"{label}: exit {res.returncode}: {res.stderr[-500:]}")
                continue
            out = json.loads(res.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: not correct: {out['attempted']} attempted, {out['failed']} failed")
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(("ok " if len(problems) == before else "FAILED ") + label)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    res = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    if res.returncode == 0 or '"correct"' in res.stdout:
        problems.append(f"without sources: exit {res.returncode}, stdout {res.stdout[-200:]!r}")
    else:
        print("ok refuses to run without sources")
    shutil.rmtree(bare)

    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
