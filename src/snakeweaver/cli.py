"""Command-line surface: generate marginal files, run checks, reconstruct, evaluate entropies.

Every entropy, CMI and CMI tolerance is in bits.

Exit codes: 0 success, 1 a check failed, 2 unusable input or an OS-level I/O
failure (such as an output path that cannot be written), 3 ``reconstruct``'s
resource guard.

The outputs are the marginal file that ``generate`` writes and, under
``--json``, the JSON report that every command prints to stdout (``--json >
PATH`` keeps it).  A command that fails leaves no partial marginal
file: it is written to a temporary sibling and renamed onto its path once
complete, so a failed write leaves whatever stood at the path as it was.
``generate`` writes it one cluster at a time, as each is built.  The other
commands read it in one ``MarginalReader`` pass: the reader validates each
cluster and the checks and entropies take what they need from it; ``check``
and ``entropy`` release it before the next is read, and ``reconstruct``
keeps it for its merges.  The whole file is read, its CRC included, before
any report is written, so a file refused at its last cluster leaves no
report; input refused by the checks still gets its ``checks`` report, with
no entropy, before exit 1.  ``reconstruct`` continues only when its checks
pass at ``--tol-consistency`` and ``--tol-cmi``; to rebuild failing input,
raise them past any residual: ``--tol-consistency 2 --tol-cmi 20`` (a trace
distance is at most 1, but a computed one can round past it; a cluster CMI
is at most 10 bits).  It refuses a window whose dense state is past the guard
from the file's header, before any cluster is read, so it exits 3 even where
the checks would fail; ``entropy`` takes any window.

BLAS threads are capped by the BLAS library's own environment variables,
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, set
before the command starts; no option of this module sets them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys

from .lattice import GeometryError, cluster_region
from .marginal_store import (
    ConsistencyCheck,
    MarginalFileError,
    MarginalReader,
    MarginalSet,
    MarkovCheck,
    RegionEntropies,
    Window,
    require_cluster,
    save_marginals,
)
from .merge import SupportMismatchError
from .operator_core import DimensionGuardError, StateError
from .oracles import gen_product, gen_row_markov
from .reconstruct import formula_regions, max_entropy_formula, max_entropy_terms, reconstruct_global, row_major_med

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD = 3

SCHEMA_VERSION = 6


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    """Options of the commands that read a marginal file and report on it."""
    parser.add_argument("file")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report to stdout instead of the summary")


def _parse_tolerance(text: str) -> float:
    """A finite number >= 0: every comparison with a NaN is false, and a negative tolerance fails every check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def _parse_seed(text: str) -> int:
    """A non-negative integer, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return value


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    """Check tolerances of the commands that run the consistency and Markov checks."""
    for flag, what in (("--tol-cmi", "CMI tolerance in bits"),
                       ("--tol-consistency", "overlap trace-distance tolerance; a record holds the Frobenius upper "
                        "bound 1/2 sqrt(D) ||X||_F on the distance when it passes, else the exact distance, and its "
                        "detail names the method")):
        parser.add_argument(flag, type=_parse_tolerance, default=1e-8, help=f"{what} (default 1e-8)")


def _probe_output(args) -> None:
    """Open ``generate``'s ``--out`` for appending and remove what that created, so an unwritable path fails before
    any cluster is built."""
    if "out" not in args:
        return
    existed = os.path.lexists(args.out)
    open(args.out, "ab").close()
    if not existed:
        os.remove(args.out)


def _emit(args, payload: dict) -> None:
    """Print ``payload`` under ``--json``, with the process's peak resident set so far, ``peak_rss_mb``
    (``ru_maxrss``, kB on Linux)."""
    if args.json:
        payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(payload, indent=2))


def _report_payload(command: str, args, reports: dict, extra: dict | None = None) -> dict:
    config = {key: getattr(args, key) for key in ("tol_cmi", "tol_consistency") if key in args}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "checks": {name: rep.to_dict() for name, rep in reports.items()},
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_check(args) -> int:
    with MarginalReader(args.file) as reader:
        consistency = ConsistencyCheck(reader.window, args.tol_consistency, args.full_pairwise)
        markov = MarkovCheck(reader.window, args.tol_cmi)
        reader.feed(consistency.add, markov.add)
    consistency, markov = consistency.report(), markov.report()
    ok = consistency.passed and markov.passed
    payload = _report_payload("check", args, {"consistency": consistency, "markov": markov})
    _emit(args, payload)
    if not args.json:
        print(
            f"consistency: {len(consistency.records)} checks, "
            f"max residual {consistency.max_residual():.3e}, "
            f"{'pass' if consistency.passed else 'FAIL'}"
        )
        print(
            f"markov:      {len(markov.records)} checks, "
            f"max residual {markov.max_residual():.3e}, "
            f"{'pass' if markov.passed else 'FAIL'}"
        )
        for rec in (consistency.failures() + markov.failures())[:10]:
            print(f"  failed {rec.check_id}: residual {rec.residual:.3e} > {rec.tol:.0e}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reconstruct(args) -> int:
    with MarginalReader(args.file) as reader:
        try:
            reader.window.check_dense_guard()
        except DimensionGuardError as exc:
            print(f"error: {exc} (`snakeweaver entropy` gives the formula of a big window)", file=sys.stderr)
            return EXIT_GUARD
        consistency = ConsistencyCheck(reader.window, args.tol_consistency, full_pairwise=True)
        markov = MarkovCheck(reader.window, args.tol_cmi)
        marginals = {}
        reader.feed(consistency.add, markov.add, marginals.__setitem__)
    ms = MarginalSet(reader.window, marginals)
    reports = {"consistency": consistency.report(), "markov": markov.report()}
    if not all(rep.passed for rep in reports.values()):
        _emit(args, _report_payload("reconstruct", args, reports))
        print("error: marginals fail their checks at --tol-consistency and --tol-cmi; raise them to reconstruct "
              "anyway", file=sys.stderr)
        return EXIT_CHECK_FAILED

    formula = float(max_entropy_formula(ms))
    try:
        result = reconstruct_global(ms, tol=args.tol_reconstruction)
    except SupportMismatchError as exc:  # only overlaps that disagree, so only under a loose --tol-consistency
        _emit(args, _report_payload("reconstruct", args, reports))
        print(f"error: cannot reconstruct: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    reports["marginal_fidelity"] = result.marginal_report
    extra = {
        "max_entropy_formula": formula,
        "entropy": result.entropy,
        "entropy_method": result.entropy_method,
        "step_cmis": [s._asdict() for s in result.steps],
    }
    if not args.json:
        print(f"reconstruction entropy: {result.entropy:.9f} ({result.entropy_method})")
        print(f"max-entropy formula:    {formula:.9f}")
        print(
            f"marginal fidelity: max residual "
            f"{result.marginal_report.max_residual():.3e}, "
            f"{'pass' if result.marginal_report.passed else 'FAIL'}"
        )
    _emit(args, _report_payload("reconstruct", args, reports, extra))
    return EXIT_OK if all(rep.passed for rep in reports.values()) else EXIT_CHECK_FAILED


def cmd_entropy(args) -> int:
    with MarginalReader(args.file) as reader:
        window = reader.window
        consistency = ConsistencyCheck(window, 1e-8, full_pairwise=True)
        entropies = RegionEntropies(window, formula_regions(window))
        reader.feed(consistency.add, entropies.add)
    consistency = consistency.report()
    if not consistency.passed:
        _emit(args, _report_payload("entropy", args, {"consistency": consistency}))
        rec = consistency.failures()[0]
        print(f"error: {rec.check_id} fails: trace distance {rec.residual:.3e} > {rec.tol:.0e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    terms = max_entropy_terms(entropies, window)
    formula = sum(t for _, t in terms)
    med_value = row_major_med(entropies, window)
    payload = _report_payload(
        "entropy",
        args,
        {"consistency": consistency},
        {
            "max_entropy_formula": float(formula),
            "row_path_med": float(med_value),
            "terms": [{"anchor": list(a), "term": float(t)} for a, t in terms],
        },
    )
    _emit(args, payload)
    if not args.json:
        print(f"max-entropy formula: {float(formula):.9f}")
        print(f"row-path MED:        {float(med_value):.9f}")
        print("per-anchor terms (nonzero):")
        for a, t in terms:
            if abs(t) > 1e-12:
                print(f"  anchor ({a[0]:3d},{a[1]:3d}): {t:+.9f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.unitaries is not None and args.kind == "product":
            raise ValueError("--unitaries is not read by --kind product; only by row-markov, column-markov")
        window = Window(args.width, args.height)
        require_cluster(window)
        if args.kind == "product":
            source = gen_product(window, seed=args.seed)
        else:
            orientation = "columns" if args.kind == "column-markov" else "rows"
            source = gen_row_markov(window, seed=args.seed, orientation=orientation, unitaries=args.unitaries or "haar")
        # one cluster is built, written and released at a time
        save_marginals(args.out, window, (source.marginal(cluster_region(a, 3, 3)).matrix
                                          for a in window.cluster_anchors()))
    except (GeometryError, StateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.json:
        _emit(args, {"schema_version": SCHEMA_VERSION, "command": "generate"})
    else:
        print(f"wrote {args.kind} marginals for a {args.width}x{args.height} window to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakeweaver",
        description="Check, reconstruct, and score 3x3-cluster marginal sets on 2D windows. BLAS threads are "
        "capped by OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS, set before the command starts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run local-consistency and Markov-condition checks")
    p.add_argument(
        "--full-pairwise",
        action="store_true",
        help="check every overlapping cluster pair to --tol-consistency; by default only adjacent "
        "pairs are checked, which bounds a pair (dx, dy) apart by (|dx|+|dy|) times the tolerance",
    )
    _add_tolerances(p)
    _add_report_options(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "reconstruct",
        help="check every overlapping cluster pair and the Markov conditions, rebuild the global state by row "
        "merges, take its entropy by the certified row chain rule (exact spectrum when a step's bound exceeds "
        "--tol-reconstruction), compare with the formula; the dense state is formed only for that exact path, "
        "failing checks stop it (--tol-consistency 2 --tol-cmi 20 pass any residual, so they rebuild "
        "failing input), and a window past the dense guard is refused (`snakeweaver entropy` gives its formula)",
    )
    p.add_argument(
        "--tol-reconstruction",
        type=_parse_tolerance,
        default=1e-6,
        help="marginal-fidelity trace-distance tolerance, and the largest chain-rule step bound, in bits, "
        "accepted without an exact CMI (default 1e-6); a fidelity record holds the Frobenius upper bound "
        "1/2 sqrt(D) ||X||_F on the trace distance when it passes this tolerance, else the exact distance, "
        "and its detail names the method",
    )
    _add_tolerances(p)
    _add_report_options(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("entropy", help="check every overlapping cluster pair to 1e-8, then evaluate the max-entropy "
                       "formula and the row-path MED")
    _add_report_options(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("generate", help="emit marginal files from the built-in oracles")
    p.add_argument("--kind", required=True, choices=["product", "row-markov", "column-markov"])
    p.add_argument("--width", type=int, default=4, help="window width, at least 3: a window needs a 3x3 cluster")
    p.add_argument("--height", type=int, default=4, help="window height, at least 3: a window needs a 3x3 cluster")
    p.add_argument(
        "--out",
        required=True,
        help="marginal file to write, an uncompressed .npz container with members format_version, window, "
        "local_dim (always 2: every site is a qubit), anchors (k,2) and matrices (k,512,512) complex128, "
        "one 3x3-cluster marginal per anchor",
    )
    p.add_argument("--unitaries", choices=["haar", "real", "none"],
                   help="local unitaries of the row-markov and column-markov kinds (default haar)")
    p.add_argument("--seed", type=_parse_seed, default=0, help="random seed (default 0)")
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable report (schema_version, command, peak_rss_mb) instead of the banner")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _probe_output(args)
        return args.func(args)
    except (MarginalFileError, OSError) as exc:  # any OS-level I/O failure; open's names the path it could not write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
