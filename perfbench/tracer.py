"""Per-layer spans for snakeweaver, recorded by wrapping its public functions from outside.

A ``Tracer`` replaces each function listed in ``TARGETS`` with a timing
wrapper, in every ``snakeweaver.*`` module namespace that binds it (modules
import each other by name), and methods on their class.  Each call becomes a
span: name, bucket, start, end, parent span, operand dimension and optional
counters.  ``DensityOperator.eigenvalues`` is a cache accessor: its calls are
counted with zero duration, so the spectrum it computes stays in the self
time of its caller (``entropy``, ``MarginalSet.load``).  Spans stay in memory
until ``dump``.

Used as a launcher, it runs one traced CLI command in this process:

    python3 perfbench/tracer.py SPANS.json -- check marginals.json --json

The command's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

SMALL_DIM_MAX = 512  # operands up to one 3x3 cluster of qubits count as "small"


def _first_dim(args, result):
    return args[0].dim


def _matrix_dim(args, result):
    return args[0].shape[0]


def _result_dim(args, result):
    return result[0].dim if isinstance(result, tuple) else result.dim


def _embed_dim(args, result):
    return result.shape[0]


def _no_dim(args, result):
    return None


# module, attribute, bucket rule ("dim", "level" or None), operand dimension
TARGETS = (
    ("operator_core", "partial_trace", "dim", _first_dim),
    ("operator_core", "entropy", "dim", _first_dim),
    ("operator_core", "trace_distance", "dim", _first_dim),
    ("operator_core", "cmi", None, _first_dim),
    ("operator_core", "sqrt_psd", None, _matrix_dim),
    ("operator_core", "pinv_sqrt_psd", None, _matrix_dim),
    ("operator_core", "embed_operator", None, _embed_dim),
    ("operator_core", "DensityOperator.eigenvalues", None, _first_dim),
    ("merge", "right_merge_info", "dim", _result_dim),
    ("merge", "right_merge", "dim", _result_dim),
    ("marginal_store", "MarginalSet.save", None, _no_dim),
    ("marginal_store", "MarginalSet.load", None, _no_dim),
    ("marginal_store", "MarginalSet.derived_marginal", None, _result_dim),
    ("marginal_store", "MarginalSet.region_entropy", None, _no_dim),
    ("marginal_store", "check_local_consistency", None, _no_dim),
    ("marginal_store", "check_markov_conditions", None, _no_dim),
    ("snakes", "build_snake", "level", _result_dim),
    ("snakes", "level_drop_check", None, _no_dim),
    ("reconstruct", "reconstruct_global", None, _no_dim),
    ("reconstruct", "max_entropy_terms", None, _no_dim),
    ("reconstruct", "row_major_med", None, _no_dim),
    ("oracles", "RowMarkovSource.marginal_set", None, _no_dim),
)

BUCKETS = {"dim": ("small", "large"), "level": ("L1", "L2", "L3"), None: (None,)}

# Counters besides calls and times.  ``misses`` of derived_marginal is counted
# when aggregating: a call that has child spans computed its reduction.
COUNTERS = {
    "MarginalSet.save": "bytes",
    "MarginalSet.load": "bytes",
    "check_local_consistency": "records",
    "check_markov_conditions": "records",
    "DensityOperator.eigenvalues": "computed",
    "MarginalSet.derived_marginal": "misses",
}


def span_key(module: str, attr: str, bucket) -> str:
    return f"{module}.{attr}" + (f".{bucket}" if bucket else "")


def _bucket(rule, args, dim):
    if rule == "dim":
        return "small" if dim <= SMALL_DIM_MAX else "large"
    if rule == "level":
        return f"L{args[1].level}"
    return None


def _counters(attr: str, args, result) -> dict:
    """Per-call counters that only the boundary can see."""
    if attr in ("MarginalSet.save", "MarginalSet.load"):  # (self or cls, path)
        return {"bytes": os.path.getsize(args[1])}
    if attr in ("check_local_consistency", "check_markov_conditions"):
        return {"records": len(result.records)}
    return {}


class Tracer:
    """Collects spans from wrapped snakeweaver functions in this process.

    ``cost_s`` is the time the tracer itself adds: wrapping at start, the
    bookkeeping in every wrapper outside the wrapped call, and ``dump``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cost_s = 0.0

    @contextmanager
    def span(self, name: str):
        """A span around code that is not a wrapped function, such as one CLI command."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> dict:
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["t0"] = time.perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["t1"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module: str, attr: str, rule, dim_of, fn):
        tracer = self
        name = f"{module}.{attr}"
        count_only = attr == "DensityOperator.eigenvalues"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = time.perf_counter()
            if count_only:
                # Read before the call, which fills the cache.
                cached = getattr(args[0], "_eigvals_cache", None) is not None
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                parent = tracer._stack[-1] if tracer._stack else None
                rec = {"name": name, "parent": parent, "t0": t1, "t1": t1}
                tracer.spans.append(rec)
            else:
                rec = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
                t0, t1 = rec["t0"], rec["t1"]
            dim = dim_of(args, result)
            rec["dim"] = dim
            rec["bucket"] = _bucket(rule, args, dim)
            counters = _counters(attr, args, result)
            if count_only:
                counters["computed"] = 0 if cached else 1
            if counters:
                rec["counters"] = counters
            tracer.cost_s += (time.perf_counter() - w0) - (t1 - t0)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target with its wrapper; call before running any snakeweaver code."""
        importlib.import_module("snakeweaver")  # the program's own cost, untraced runs pay it too
        w0 = time.perf_counter()
        loaded = [m for n, m in sys.modules.items() if n == "snakeweaver" or n.startswith("snakeweaver.")]
        for module, attr, rule, dim_of in TARGETS:
            mod = importlib.import_module(f"snakeweaver.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(module, attr, rule, dim_of, raw.__func__))
                else:
                    wrapped = self._wrap(module, attr, rule, dim_of, raw)
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(module, attr, rule, dim_of, original)
            for m in loaded:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)
        self.cost_s += time.perf_counter() - w0

    def dump(self, path) -> None:
        """Write the spans and the tracer's own cost, including this write."""
        w0 = time.perf_counter()
        text = json.dumps(self.spans)
        cost = self.cost_s + time.perf_counter() - w0
        with open(path, "w") as fh:
            fh.write('{"cost_s": %r, "spans": %s}' % (cost, text))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_OUT -- SNAKEWEAVER_ARGS...", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from snakeweaver import cli

    code = 1
    try:
        with tracer.span(f"cli.{cli_argv[0]}"):
            code = cli.main(cli_argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
