"""Command-line front end.

Subcommands: ``eval`` (indices on a matrix or label file), ``audit``
(condition audits with optional expected-verdict check), ``bounds``
(closed-form value bounds), ``simulate`` (distortion experiments from a JSON
spec).  Exit codes: 0 success, 1 usage error, 2 input or validation error,
3 expected-verdict mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import audit as audit_mod
from . import io as io_mod
from . import lab as lab_mod
from .confusion import ingest_labels
from .registry import (
    ALL_INDEX_IDS,
    BINARY_INDEX_IDS,
    MULTI_INDEX_IDS,
    UnknownIndexError,
    applicable_index_ids,
    default_seed,
    evaluate,
    get_index,
    theoretical_bounds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3

_INDEX_GROUPS = {
    "all": ALL_INDEX_IDS,
    "binary": BINARY_INDEX_IDS,
    "multiclass": MULTI_INDEX_IDS,
}


def _parse_indices(raw: str | None, class_count: int | None = None) -> tuple[str, ...]:
    if raw is None:
        if class_count is None:
            return ALL_INDEX_IDS
        return applicable_index_ids(class_count)
    out: list[str] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token in _INDEX_GROUPS:
            out.extend(_INDEX_GROUPS[token])
        else:
            get_index(token)
            out.append(token)
    if not out:
        raise UnknownIndexError("no index ids given")
    return tuple(dict.fromkeys(out))


def _parse_c_range(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if ".." in raw:
        lo_s, hi_s = raw.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty class-count range {raw!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _format_value(value: float | None, digits: int | None) -> str:
    if value is None:
        return "UNDEFINED"
    if digits is None:
        return repr(value)
    return f"{value:.{digits}f}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imbindex",
        description="Confusion-matrix performance indices for imbalanced "
        "classification: evaluation, invariance audits, bounds, and "
        "distortion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate indices on a matrix or label file")
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="CSV of integer counts, one row per true class")
    src.add_argument("--labels", help="CSV of true,predicted label pairs")
    p_eval.add_argument("--classes", help="comma-separated class order for --labels")
    p_eval.add_argument(
        "--indices", "--index",
        help="comma-separated index ids or groups (all, binary, multiclass); "
        "default: every index applicable to the matrix size",
    )
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("--output", help="write the table here instead of stdout")
    p_eval.add_argument("--save-matrix", help="also write the (tallied) matrix as CSV")
    p_eval.add_argument("--digits", type=int, default=6, help="decimal places (default 6)")
    p_eval.add_argument(
        "--full-precision", action="store_true", help="print full float precision"
    )

    p_audit = sub.add_parser("audit", help="audit indices against the three conditions")
    which = p_audit.add_mutually_exclusive_group(required=True)
    which.add_argument("--indices", "--index", help="comma-separated index ids")
    which.add_argument(
        "--all", action="store_true",
        help="audit the thirteen indices with expected-verdict rows",
    )
    p_audit.add_argument(
        "--conditions", "--cond", default="1,2,3",
        help="which conditions to audit, e.g. 1 or 1,3 (default 1,2,3)",
    )
    p_audit.add_argument("--trials", type=int, default=audit_mod.DEFAULT_TRIALS)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument(
        "--class-count", type=int, default=audit_mod.DEFAULT_CLASS_COUNT,
        help="class count for randomized multi-class sampling and the collapse family "
        f"(default {audit_mod.DEFAULT_CLASS_COUNT})",
    )
    c_range = ",".join(map(str, audit_mod.DEFAULT_C_RANGE))
    p_audit.add_argument(
        "--c-range", "--c", default=c_range,
        help=f"class counts for the bound audit, e.g. 2..6 or 2,4 (default {c_range})",
    )
    p_audit.add_argument("--output", help="write the JSON report here instead of stdout")
    p_audit.add_argument(
        "--check-paper", action="store_true",
        help="compare verdicts against the built-in table of proven expected "
        "verdicts; exit 3 on any mismatch",
    )

    p_bounds = sub.add_parser("bounds", help="closed-form value bounds of an index")
    p_bounds.add_argument("index")
    p_bounds.add_argument("class_count", type=int)
    p_bounds.add_argument(
        "--profile", help="per-class test counts, e.g. 2,3,4 (needed for auroc_ova)"
    )

    p_sim = sub.add_parser("simulate", help="run a distortion experiment from a JSON spec")
    p_sim.add_argument("spec", help="path to the experiment spec JSON")
    p_sim.add_argument("--output-dir", default=".", help="where to write the CSVs")

    return parser


def _cmd_eval(args) -> int:
    if args.digits < 0:
        raise ValueError(f"--digits must be non-negative, got {args.digits}")
    if args.matrix and args.classes is not None:
        raise ValueError("--classes applies only to --labels")
    labels = None
    if args.matrix:
        matrix, labels = io_mod.read_matrix_csv(args.matrix)
    else:
        pairs = io_mod.read_label_pairs(args.labels)
        class_list = None
        if args.classes is not None:
            class_list = [tok.strip() for tok in args.classes.split(",") if tok.strip()]
        matrix = ingest_labels(pairs, class_list)
        labels = tuple(class_list) if class_list else None
    if args.save_matrix:
        io_mod.write_matrix_csv(args.save_matrix, matrix, labels)

    index_ids = _parse_indices(args.indices, matrix.class_count)
    results = [evaluate(i, matrix) for i in index_ids]
    digits = None if args.full_precision else args.digits

    if args.format == "json":
        text = io_mod.to_json(results) + "\n"
    else:
        lines = ["index,value,reason"]
        for r in results:
            lines.append(f"{r.index},{_format_value(r.value, digits)},{r.reason or ''}")
        text = "\n".join(lines) + "\n"

    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_audit(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    conditions = tuple(int(tok) for tok in str(args.conditions).split(",") if tok.strip())
    c_range = _parse_c_range(args.c_range)
    index_ids = None if args.all else _parse_indices(args.indices)
    reports = audit_mod.audit_all(
        index_ids,
        conditions=conditions,
        trials=args.trials,
        seed=seed,
        class_count=args.class_count,
        c_range=c_range,
    )
    text = audit_mod.reports_to_json(reports) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.check_paper:
        problems = audit_mod.conformance_mismatches(reports)
        if problems:
            for problem in problems:
                print(f"MISMATCH {problem}", file=sys.stderr)
            return EXIT_MISMATCH
        compared = sum(r.index in audit_mod.EXPECTED_VERDICTS for r in reports)
        print(f"verdicts match the expected table for {compared} indices", file=sys.stderr)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    profile = None
    if args.profile:
        profile = [int(tok) for tok in args.profile.split(",") if tok.strip()]
    lo, hi = theoretical_bounds(args.index, args.class_count, profile)
    print(f"{lo:.6g} {hi:.6g}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = lab_mod.load_spec(args.spec)
    result = lab_mod.run_experiment(spec)
    long_path, summary_path = result.write_csv(args.output_dir)
    for index_id, value in result.digest().items():
        shown = "UNDEFINED" if value is None else f"{value:.6f}"
        print(f"{index_id}: mean schedule std = {shown}")
    print(f"wrote {long_path} and {summary_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handlers = {
        "eval": _cmd_eval,
        "audit": _cmd_audit,
        "bounds": _cmd_bounds,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (
        ValueError,  # includes MatrixError, SpecError, UnknownIndexError, JSONDecodeError
        OSError,  # a path that cannot be read or written
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
