"""Command-line surface: generate marginal files, run checks, reconstruct, evaluate entropies.

Exit codes: 0 success, 1 a check failed, 2 unusable input, 3 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from .lattice import GeometryError
from .marginal_store import (
    InconsistentMarginalsError,
    MarginalFileError,
    MarginalSet,
    Window,
    check_local_consistency,
    check_markov_conditions,
    matrix_to_json,
)
from .operator_core import DimensionGuardError, StateError
from .oracles import depolarize_marginal, gen_product, gen_row_markov, ghz_row_source
from .reconstruct import max_entropy_formula, max_entropy_terms, reconstruct_global, row_major_med

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_GUARD = 3

SCHEMA_VERSION = 1


def _parse_log_base(text: str) -> float:
    if text in ("2", "bits"):
        return 2.0
    if text in ("e", "nats"):
        return math.e
    raise argparse.ArgumentTypeError(f"log base must be '2' or 'e', got {text!r}")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Options of every command."""
    parser.add_argument("--json", action="store_true", help="print the machine-readable report to stdout")
    parser.add_argument("--threads", type=int, default=None, help="BLAS thread cap (SNAKEWEAVER_THREADS)")


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    """Options of the commands that read a marginal file and report on it."""
    parser.add_argument("file")
    parser.add_argument("--log-base", type=_parse_log_base, default=2.0, help="'2' for bits, 'e' for nats")
    parser.add_argument("--report", metavar="PATH", help="also write the JSON report to this path")
    _add_run_options(parser)


def _add_tolerances(parser: argparse.ArgumentParser) -> None:
    """Check tolerances of the commands that run the consistency and Markov checks."""
    parser.add_argument("--tol-cmi", type=float, default=1e-8, help="CMI tolerance (default 1e-8)")
    parser.add_argument(
        "--tol-consistency", type=float, default=1e-8, help="overlap trace-distance tolerance (default 1e-8)"
    )


def _apply_threads(args) -> None:
    n = args.threads
    if n is None:
        env = os.environ.get("SNAKEWEAVER_THREADS")
        n = int(env) if env else None
    if n:
        try:
            from threadpoolctl import threadpool_limits

            threadpool_limits(limits=n)
        except Exception as exc:  # pragma: no cover - environment specific
            print(f"warning: could not cap threads: {exc}", file=sys.stderr)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    if args.json:
        print(text)


def _report_payload(command: str, args, reports: dict, extra: dict | None = None) -> dict:
    config = {key: getattr(args, key) for key in ("tol_cmi", "tol_consistency") if key in args}
    config["log_base"] = "e" if args.log_base == math.e else args.log_base
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
    ms = MarginalSet.load(args.file)
    consistency = check_local_consistency(ms, tol=args.tol_consistency, full_pairwise=args.full_pairwise)
    markov = check_markov_conditions(ms, tol=args.tol_cmi, base=args.log_base)
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
    ms = MarginalSet.load(args.file)
    consistency = check_local_consistency(ms, tol=args.tol_consistency)
    markov = check_markov_conditions(ms, tol=args.tol_cmi, base=args.log_base)
    if not (consistency.passed and markov.passed) and not args.force:
        print(
            "error: marginals fail their checks; rerun with --force to reconstruct anyway",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED

    formula = max_entropy_formula(ms, base=args.log_base)
    extra = {"max_entropy_formula": float(formula)}
    reports = {"consistency": consistency, "markov": markov}
    if not args.formula_only:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = reconstruct_global(
                    ms, tol=args.tol_reconstruction, precheck_tol=args.tol_cmi, base=args.log_base
                )
        except DimensionGuardError as exc:
            print(f"error: {exc} (use --formula-only for big windows)", file=sys.stderr)
            return EXIT_GUARD
        reports["marginal_fidelity"] = result.marginal_report
        extra["entropy"] = result.entropy
        extra["step_cmis"] = [{"shared_row": y, "residual": r} for y, r in result.step_cmis]
        if args.state_out:
            with open(args.state_out, "w") as fh:
                json.dump(result.to_dict(), fh)
        if not args.json:
            print(f"reconstruction entropy: {result.entropy:.9f}")
            print(f"max-entropy formula:    {float(formula):.9f}")
            print(
                f"marginal fidelity: max residual "
                f"{result.marginal_report.max_residual():.3e}, "
                f"{'pass' if result.marginal_report.passed else 'FAIL'}"
            )
    elif not args.json:
        print(f"max-entropy formula: {float(formula):.9f}")
    payload = _report_payload("reconstruct", args, reports, extra)
    _emit(args, payload)
    ok = all(rep.passed for rep in reports.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_entropy(args) -> int:
    ms = MarginalSet.load(args.file)
    terms = max_entropy_terms(ms, base=args.log_base)
    formula = sum(t for _, t in terms)
    med_value = row_major_med(ms, ms.window, base=args.log_base)
    payload = _report_payload(
        "entropy",
        args,
        {},
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
        window = Window(args.width, args.height)
        if args.kind == "product":
            source = gen_product(window, seed=args.seed)
            ms = source.marginal_set()
        elif args.kind in ("row-markov", "column-markov"):
            orientation = "rows" if args.kind == "row-markov" else "columns"
            source = gen_row_markov(window, seed=args.seed, orientation=orientation, unitaries=args.unitaries)
            ms = source.marginal_set()
        elif args.kind == "ghz-row":
            ms, _ = ghz_row_source(window)
            source = None
        elif args.kind == "depolarized":
            source = gen_row_markov(window, seed=args.seed, unitaries=args.unitaries)
            ms = source.marginal_set()
            anchor = ms.anchors()[0] if args.anchor is None else tuple(args.anchor)
            ms = depolarize_marginal(ms, anchor, args.eps)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(args.kind)
    except (GeometryError, StateError, DimensionGuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    ms.save(args.out)
    if args.global_out:
        if source is None:
            print("error: no global state is defined for this kind", file=sys.stderr)
            return EXIT_INPUT_ERROR
        state = source.global_state()
        with open(args.global_out, "w") as fh:
            json.dump(
                {
                    "region": [[x, y] for x, y in state.region],
                    "local_dim": state.local_dim,
                    "matrix": matrix_to_json(state.matrix),
                },
                fh,
            )
    if not args.json:
        print(f"wrote {args.kind} marginals for a {args.width}x{args.height} window to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakeweaver",
        description="Check, reconstruct, and score 3x3-cluster marginal sets on 2D windows.",
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

    p = sub.add_parser("reconstruct", help="rebuild the global state and compare entropies")
    p.add_argument("--force", action="store_true", help="reconstruct even when checks fail")
    p.add_argument("--formula-only", action="store_true", help="skip the dense state, print only the formula")
    p.add_argument("--state-out", metavar="PATH", help="dump the reconstructed state as JSON")
    p.add_argument("--tol-reconstruction", type=float, default=1e-6)
    _add_tolerances(p)
    _add_report_options(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("entropy", help="evaluate the max-entropy formula and the row-path MED")
    _add_report_options(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("generate", help="emit marginal files from the built-in oracles")
    p.add_argument("--kind", required=True, choices=["product", "row-markov", "column-markov", "ghz-row", "depolarized"])
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--global-out", metavar="PATH", help="also dump the global state (guarded)")
    p.add_argument("--unitaries", choices=["haar", "real", "none"], default="haar")
    p.add_argument("--eps", type=float, default=1e-3, help="depolarization strength for kind=depolarized")
    p.add_argument("--anchor", type=int, nargs=2, default=None, help="anchor to depolarize")
    p.add_argument("--seed", type=int, default=0)
    _add_run_options(p)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_threads(args)
    try:
        return args.func(args)
    except MarginalFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InconsistentMarginalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
