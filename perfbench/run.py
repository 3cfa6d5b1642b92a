"""Benchmark of the snakeweaver pipeline, driven from outside the program.

    python3 perfbench/run.py --workload recon-4x3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload survey-4x4 --trace 1
    python3 perfbench/run.py --workload recon-4x3 --quick   # 3x3 window, a few seconds

Run it from a checkout of the repository; it imports and runs ``src/snakeweaver``
from that checkout and writes only under ``.perfbench/`` there.

Each run sets up ``SETUPS`` times: ``snakeweaver generate`` writes the input
file from ``--seed``.  Then it runs the workload's measured CLI commands as
child processes, one at a time (closed loop, one command in flight), in whole
passes until ``--seconds`` of measuring have elapsed; every output is checked
against oracles computed here.  Child processes get
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` of at most 2.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer
metrics, from one pass with every process run under ``tracer.py``.  The line
before it is a detail record: environment, per-step times, gate results and,
when traced, every span aggregate in seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PY = sys.executable

DEFAULT_SEED = 1
THREADS = min(2, os.cpu_count() or 1)
SETUPS = 3             # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170.0    # children still running past this point of a run are killed
ENTROPY_TOL = 1e-6     # reported entropies against the exact source entropy, in bits


@dataclass(frozen=True)
class Workload:
    width: int
    height: int
    unitaries: str
    steps: tuple[str, ...]


WORKLOADS = {
    "recon-4x3": Workload(4, 3, "haar", ("check", "reconstruct")),
    "survey-4x4": Workload(4, 4, "haar", ("check", "entropy")),
}
QUICK_SIZE = (3, 3)


@dataclass
class Step:
    """One child process: what it ran, how long it took, and whether its outputs passed their gates."""

    name: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    ok: bool
    why: str = ""
    info: dict = field(default_factory=dict)


class Harness:
    """Runs one workload's child processes in sequence and keeps their records."""

    def __init__(self, name: str, wl: Workload, seed: int, traced: bool, env: dict, deadline: float):
        self.name, self.wl, self.seed, self.traced = name, wl, seed, traced
        self.env, self.deadline = env, deadline
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.file = self.dir / "marginals.json"
        self.steps: list[Step] = []
        self.span_files: list[Path] = []
        self.exact = exact_entropy(wl, seed)

    # -- children ------------------------------------------------------------

    def _spawn(self, label: str, argv: list[str]) -> tuple[int, float, float, int, str]:
        out_path, err_path = self.dir / f"{label}.out", self.dir / f"{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss, out_path.read_text()

    def run(self, step: str) -> Step:
        label = f"{step}-{len(self.steps)}"
        spans = self.dir / f"{label}.spans.json"
        cli = self._cli_args(step)
        if step == "generate":
            self.file.unlink(missing_ok=True)  # every set-up writes a new file, as a first one does
        if self.traced:
            argv = [PY, str(BENCH_DIR / "tracer.py"), str(spans), "--", *cli]
        else:
            argv = [PY, "-m", "snakeweaver.cli", *cli]
        code, wall, cpu, rss, out = self._spawn(label, argv)
        rec = Step(step, wall, cpu, rss, False)
        if code != 0:
            rec.why = f"exit code {code}; see {self.dir / (label + '.err')}"
        else:
            try:
                rec.ok, rec.why, rec.info = GATES[step](self, out)
            except (ValueError, KeyError, TypeError) as exc:
                rec.why = f"unreadable output: {exc!r}"
        if self.traced:
            self.span_files.append(spans)
        self.steps.append(rec)
        if not rec.ok:
            print(f"{self.name}: {label} failed: {rec.why}", file=sys.stderr)
        return rec

    def _cli_args(self, step: str) -> list[str]:
        if step == "generate":
            return [
                "generate", "--kind", "row-markov", "--unitaries", self.wl.unitaries,
                "--width", str(self.wl.width), "--height", str(self.wl.height),
                "--seed", str(self.seed), "--out", str(self.file), "--json",
            ]
        return [step, str(self.file), "--json"]


# -- output gates ----------------------------------------------------------------


def _entropy_gate(h: Harness, **values) -> tuple[bool, str]:
    bad = {k: v for k, v in values.items() if not abs(v - h.exact) <= ENTROPY_TOL}
    if bad:
        return False, f"{bad} differ from the exact entropy {h.exact!r} by more than {ENTROPY_TOL}"
    return True, ""


def expected_records(wl: Workload) -> dict:
    """Record counts of the CLI check reports: 8 Markov conditions per cluster, one per adjacent cluster pair."""
    nx, ny = wl.width - 2, wl.height - 2
    return {"markov": 8 * nx * ny, "consistency": (nx - 1) * ny + nx * (ny - 1), "marginal_fidelity": nx * ny}


def _reports_gate(h: Harness, checks: dict, names) -> tuple[bool, str]:
    for name in names:
        rep = checks[name]
        want = expected_records(h.wl)[name]
        if len(rep["records"]) != want:
            return False, f"check report {name} has {len(rep['records'])} records, expected {want}"
        failed = [r["check_id"] for r in rep["records"] if not r["passed"]]
        if failed or not rep["passed"]:
            return False, f"check report {name} failed: {failed[:5]}"
    return True, ""


def gate_generate(h: Harness, out: str):
    size = h.file.stat().st_size if h.file.exists() else 0
    return size > 0, "" if size else "no marginal file written", {"input_bytes": size}


def gate_check(h: Harness, out: str):
    ok, why = _reports_gate(h, json.loads(out)["checks"], ("consistency", "markov"))
    return ok, why, {}


def gate_reconstruct(h: Harness, out: str):
    payload = json.loads(out)
    ok, why = _reports_gate(h, payload["checks"], ("consistency", "markov", "marginal_fidelity"))
    if ok:
        ok, why = _entropy_gate(h, entropy=payload["entropy"], max_entropy_formula=payload["max_entropy_formula"])
    return ok, why, {"entropy": payload["entropy"], "max_entropy_formula": payload["max_entropy_formula"]}


def gate_entropy(h: Harness, out: str):
    payload = json.loads(out)
    values = {"max_entropy_formula": payload["max_entropy_formula"], "row_path_med": payload["row_path_med"]}
    ok, why = _entropy_gate(h, **values)
    return ok, why, values


GATES = {
    "generate": gate_generate,
    "check": gate_check,
    "reconstruct": gate_reconstruct,
    "entropy": gate_entropy,
}


# -- oracle and environment ------------------------------------------------------


def _shannon_bits(p) -> float:
    import numpy as np

    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def exact_entropy(wl: Workload, seed: int) -> float:
    """Entropy of the generated source in bits: H(x_0) + sum_c H(x_{c+1} | x_c), summed over chains."""
    from snakeweaver.marginal_store import Window
    from snakeweaver.oracles import gen_row_markov

    source = gen_row_markov(Window(wl.width, wl.height), seed=seed, unitaries=wl.unitaries)
    total = 0.0
    for chain in source.chains:
        p = chain.initial
        total += _shannon_bits(p)
        for t in chain.transitions:
            total += sum(p[i] * _shannon_bits(row) for i, row in enumerate(t))
            p = p @ t
    return float(total)


def _blas_threads() -> dict:
    """The BLAS library numpy uses and the thread count it reports in this environment."""
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*")) + glob.glob(str(site / "scipy_openblas64" / "lib" / "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(lib).name, "threads_in_effect": fn()}
    return {"library": None, "threads_in_effect": None}


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None, "note": "not a git checkout"}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"rev": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"rev": rev, "dirty": bool(status.strip())}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {}
    blas.update(_blas_threads())
    blas["threads_env"] = THREADS
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threadpoolctl": "installed" if importlib.util.find_spec("threadpoolctl") else "not installed",
        "nproc": os.cpu_count(),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "git": _git(),
        "src_sha256": _src_digest(),
    }


# -- trace aggregation -------------------------------------------------------------


def aggregate_spans(span_lists: list[list[dict]], process_s: float) -> dict:
    """Per-function calls, total and self seconds and counters, and the time no span covers.

    Shares divide by ``process_s``, the wall time of the traced processes, so
    that interpreter start-up and imports (outside every span) and command time
    outside every wrapped function (``other``) show up instead of vanishing.
    """
    from tracer import BUCKETS, COUNTERS, TARGETS, span_key

    agg: dict[str, float] = {}
    for module, attr, rule, _ in TARGETS:
        for bucket in BUCKETS[rule]:
            key = span_key(module, attr, bucket)
            for stat in ("calls", "total_s", "self_s"):
                agg[f"{key}.{stat}"] = 0
        if attr in COUNTERS:
            agg[f"{module}.{attr}.{COUNTERS[attr]}"] = 0
    span_s = other_s = 0.0
    n_spans = 0
    for spans in span_lists:
        n_spans += len(spans)
        covered = [0.0] * len(spans)
        children = [0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["t1"] - s["t0"]
                children[s["parent"]] += 1
        for i, s in enumerate(spans):
            dur = s["t1"] - s["t0"]
            own = dur - covered[i]
            if s["parent"] is None:  # one CLI command or one library step
                for stat, value in (("total_s", dur), ("other_s", own)):
                    agg[f"{s['name']}.{stat}"] = agg.get(f"{s['name']}.{stat}", 0.0) + value
                span_s += dur
                other_s += own
                continue
            key = s["name"] + (f".{s['bucket']}" if s.get("bucket") else "")
            agg[f"{key}.calls"] += 1
            agg[f"{key}.total_s"] += dur
            agg[f"{key}.self_s"] += own
            for counter, value in s.get("counters", {}).items():
                agg[f"{s['name']}.{counter}"] += value
            if s["name"] == "marginal_store.MarginalSet.derived_marginal" and children[i]:
                agg["marginal_store.MarginalSet.derived_marginal.misses"] += 1
    agg["trace.process_s"] = process_s
    agg["trace.span_s"] = span_s
    agg["trace.other_s"] = other_s
    agg["trace.outside_s"] = process_s - span_s
    for key in [k for k in agg if k.endswith((".self_s", ".total_s", ".other_s", ".outside_s"))]:
        agg[key[:-2] + "_share"] = agg[key] / process_s
    agg["trace.spans"] = n_spans
    return agg


# -- runs ----------------------------------------------------------------------------


def measured_run(h: Harness, seconds: float) -> dict:
    """``SETUPS`` set-ups, then whole passes of the measured steps until ``seconds`` have elapsed."""
    gens = [h.run("generate") for _ in range(SETUPS)]
    if not all(g.ok for g in gens):
        return {}
    passes = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        steps = [h.run(s) for s in h.wl.steps]
        passes.append(steps)
        if not all(s.ok for s in steps):
            break
        now = time.monotonic()
        if now - t0 >= seconds or now + (now - start) > h.deadline:
            break
    if not all(s.ok for s in h.steps):
        return {}
    per_step = {f"{s}_s": statistics.median(p[i].wall_s for p in passes) for i, s in enumerate(h.wl.steps)}
    return {
        "setup_s": statistics.median(g.wall_s for g in gens),
        "answer_s": statistics.median(sum(s.wall_s for s in p) for p in passes),
        "peak_rss_mb": max(s.rss_kb for s in h.steps) / 1024.0,
        "passes": len(passes),
        "setup_all_s": [g.wall_s for g in gens],
        "answer_all_s": [sum(s.wall_s for s in p) for p in passes],
        **per_step,
    }


def traced_run(h: Harness) -> dict:
    """Set-up and one pass of the measured steps, every process traced.

    ``trace.overhead_ratio`` is traced process time over the same time less
    what the tracers measured of their own cost.
    """
    for step in ("generate", *h.wl.steps):
        if not h.run(step).ok:
            return {}
    traces = [json.loads(p.read_text()) for p in h.span_files]
    process_s = sum(s.wall_s for s in h.steps)
    agg = aggregate_spans([t["spans"] for t in traces], process_s)
    agg["trace.cost_s"] = sum(t["cost_s"] for t in traces)
    agg["trace.overhead_ratio"] = process_s / (process_s - agg["trace.cost_s"])
    agg["by_process"] = {
        f"{s.name}-{i}": {
            k: v
            for k, v in aggregate_spans([t["spans"]], s.wall_s).items()
            if v and (k.endswith(("self_s", "calls")) or k.startswith("cli."))
        }
        for i, (s, t) in enumerate(zip(h.steps, traces))
    }
    return agg


def main() -> int:
    parser = argparse.ArgumentParser(description="snakeweaver benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measure whole passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="3x3 windows: exercise every path and gate in seconds")
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "snakeweaver" / "__init__.py").is_file():
        print(f"error: no snakeweaver sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2

    # Children inherit this; set before numpy loads here so the probe sees the same BLAS set-up.
    os.environ.update({k: str(THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the sources alike
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    if args.quick:
        wl = Workload(*QUICK_SIZE, wl.unitaries, wl.steps)
    h = Harness(args.workload, wl, args.seed, bool(args.trace), dict(os.environ), started + RUN_LIMIT_S)
    try:
        metrics = traced_run(h) if args.trace else measured_run(h, args.seconds)
    finally:
        h.file.unlink(missing_ok=True)

    failed = sum(not s.ok for s in h.steps)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared} if metrics else {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "window": [wl.width, wl.height],
        "unitaries": wl.unitaries,
        "exact_entropy_bits": h.exact,
        "input_bytes": h.steps[0].info.get("input_bytes") if h.steps else None,
        "environment": environment(),
        "steps": [
            {"step": s.name, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
             "rss_mb": s.rss_kb / 1024.0, "ok": s.ok, "why": s.why, **s.info}
            for s in h.steps
        ],
        "metrics": metrics,
        "run_s": time.monotonic() - started,
    }
    (h.dir / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(h.steps), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
