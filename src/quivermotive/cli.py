"""Command-line front end.

Commands: motive (one class), series (a table of classes up to a degree),
verify (oracle suites), selftest (the four oracle suites at small bounds).
Output is either a human-readable table or line-delimited JSON records;
records are canonical (sorted keys, no whitespace) so identical inputs give
byte-identical output regardless of the thread count.

Exit codes: 0 success, 1 verification/selftest failure, 2 usage errors and
refused input (InputError: spec files, dimension vectors, degree bounds,
field sizes, levels), 3 polynomiality violation inside the engine.  Any
other exception is a bug and propagates.

Before the command runs, main calls gc.freeze() once.  Everything start-up
built (imported modules, numpy for verify and selftest, the parser) lives
until exit, and the freeze moves it to the collector's permanent
generation: the command's full collections and the ones at interpreter
exit no longer traverse it, and objects the command makes are collected as
before.  It sits in main only, so importing the package or calling the
engine leaves the collector's state alone.  On a 2-core host the time
from the last record to exit fell from 0.035 s to 0.010 s for
`verify all --q 2` and from about 0.013 s to 0.004 s for the benchmark's
series commands (BENCH_pr15.json).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .engine import PolynomialityError, betti_report, motive_class, motive_table
from .poly import format_poly
from .quiver import BUILTIN_QUIVERS, InputError, Quiver, QuiverFormatError, parse_quiver

if TYPE_CHECKING:
    from .verify import CaseResult


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise QuiverFormatError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_quiver(spec: str) -> tuple[Quiver, dict]:
    if spec in BUILTIN_QUIVERS:
        return BUILTIN_QUIVERS[spec], {}
    path = Path(spec)
    if not path.exists():
        raise QuiverFormatError(f"quiver spec not found: {spec} (not a file or builtin name)")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise QuiverFormatError(f"cannot read quiver spec {spec}: {exc}") from None
    return parse_quiver(text)


def _resolve_vector(args_value: str | None, named: dict, key: str, flag: str) -> tuple[int, ...] | None:
    if args_value is not None:
        return _parse_int_list(args_value, flag)
    return named.get(key)


def _emit_record(record: dict) -> None:
    print(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _motive_record(result) -> dict:
    return {
        "command": "motive",
        "v": list(result.v),
        "w": list(result.w),
        "d": result.d_shift,
        "coefficients": list(result.class_polynomial),
        "class": format_poly(result.class_polynomial),
    }


def cmd_motive(args) -> int:
    qv, named = _load_quiver(args.quiver)
    v = _resolve_vector(args.v, named, "v", "--v")
    w = _resolve_vector(args.w, named, "w", "--w")
    if v is None:
        raise QuiverFormatError("no dimension vector: pass --v or put 'v' in the spec file")
    if w is None:
        raise QuiverFormatError("no framing vector: pass --w or put 'w' in the spec file")
    result = motive_class(qv, v, w, threads=args.threads)
    if args.format == "records":
        record = _motive_record(result)
        record["betti"] = [[k, c] for k, c in betti_report(result)]
        _emit_record(record)
    else:
        print(f"v = {list(result.v)}  w = {list(result.w)}  d = {result.d_shift}")
        print(f"class = {format_poly(result.class_polynomial)}")
    return 0


def cmd_series(args) -> int:
    qv, named = _load_quiver(args.quiver)
    w = _resolve_vector(args.w, named, "w", "--w")
    if w is None:
        raise QuiverFormatError("no framing vector: pass --w or put 'w' in the spec file")
    bound = args.max_degree if args.max_degree is not None else named.get("max_degree")
    if bound is None:
        raise QuiverFormatError("no degree bound: pass --max-degree or put 'max_degree' in the spec file")
    rows = motive_table(qv, w, bound, threads=args.threads)
    if args.format == "records":
        for row in rows:
            record = _motive_record(row)
            record["command"] = "series"
            _emit_record(record)
    else:
        for row in rows:
            print(
                f"v={list(row.v)}  d={row.d_shift}  class = {format_poly(row.class_polynomial)}"
            )
    return 0


_SUITES = ("ffcount", "centralizer", "kappa", "harmonic", "all")


def cmd_verify(args) -> int:
    from . import fflab, verify

    qs = _parse_int_list(args.q, "--q") if args.q else (2, 3)
    for q in qs:  # every field, before any suite
        fflab._require_prime(q)
    if len(set(qs)) != len(qs):
        raise InputError(f"--q repeats a field size: {args.q}")
    if args.suite in ("ffcount", "all"):
        verify.check_level(args.alpha, qs)  # before any suite enumerates
    # without --budget every suite keeps its own default
    budget = {} if args.budget is None else {"budget": args.budget}
    cases: list[CaseResult] = []
    if args.suite in ("centralizer", "all"):
        cases += verify.centralizer_suite(qs=qs, **budget)
    if args.suite in ("kappa", "all"):
        cases += verify.kappa_suite()
    if args.suite in ("harmonic", "all"):
        cases += verify.harmonic_suite(qs=qs, **budget)
    if args.suite in ("ffcount", "all"):
        qv, named = _load_quiver(args.quiver)
        w = _resolve_vector(args.w, named, "w", "--w") or (1,) * qv.vertex_count
        cases += verify.ffcount_suite(
            qv,
            label=args.quiver if args.quiver in BUILTIN_QUIVERS else "quiver",
            w=w,
            qs=qs,
            alpha=args.alpha,
            threads=args.threads,
            **budget,
        )
    return _report_cases(cases, args.format)


def cmd_selftest(args) -> int:
    from . import verify

    cases = verify.run_selftest(fast=args.fast)
    return _report_cases(cases, args.format)


def _report_cases(cases: list[CaseResult], fmt: str) -> int:
    tally = {"PASS": 0, "FAIL": 0, "FLAG": 0, "SKIP": 0}
    for case in cases:
        tally[case.status] += 1
        if fmt == "records":
            _emit_record(
                {
                    "command": "verify",
                    "suite": case.suite,
                    "case": case.name,
                    "status": case.status,
                    "detail": case.detail,
                }
            )
        else:
            line = f"{case.status:<4} {case.suite}: {case.name}"
            if case.detail:
                line += f" | {case.detail}"
            print(line)
    if fmt != "records":
        print(
            f"summary: {tally['PASS']} passed, {tally['FAIL']} failed, "
            f"{tally['FLAG']} flagged, {tally['SKIP']} skipped"
        )
    return 1 if tally["FAIL"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivermotive",
        description="Classes of quiver varieties as polynomials in the Lefschetz class L, "
        "with brute-force finite-field verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, quiver_required: bool):
        p.add_argument(
            "--quiver",
            required=quiver_required,
            default="jordan",
            help="path to a quiver spec file, or a builtin name "
            f"({', '.join(sorted(BUILTIN_QUIVERS))})",
        )
        p.add_argument("--format", choices=("human", "records"), default="human")
        p.add_argument(
            "--threads",
            type=_positive_int,
            default=1,
            help="accepted for compatibility, at least 1; the numerator sums run in one "
            "thread whatever the value, and the output is the same for any value",
        )

    p_motive = sub.add_parser("motive", help="class of one quiver variety")
    add_common(p_motive, quiver_required=True)
    p_motive.add_argument("--v", help="dimension vector, comma separated")
    p_motive.add_argument("--w", help="framing vector, comma separated")
    p_motive.set_defaults(func=cmd_motive)

    p_series = sub.add_parser("series", help="classes for all v up to a total degree")
    add_common(p_series, quiver_required=True)
    p_series.add_argument("--w", help="framing vector, comma separated")
    p_series.add_argument("--max-degree", type=int, help="total-degree bound for v")
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run oracle verification suites")
    p_verify.add_argument("suite", choices=_SUITES)
    add_common(p_verify, quiver_required=False)
    p_verify.add_argument("--w", help="framing vector for the ffcount suite")
    p_verify.add_argument(
        "--q", help="distinct prime field sizes, comma separated (default 2,3)"
    )
    p_verify.add_argument(
        "--alpha",
        type=int,
        default=1,
        help="moment-map level for the ffcount suite, nonzero in every field (default 1)",
    )
    p_verify.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        # the defaults of fflab.CENTRALIZER_BUDGET and fflab.DEFAULT_BUDGET,
        # stated without importing fflab (and numpy) for every command
        help="enumeration point budget for the centralizer, harmonic and ffcount suites "
        "(default 2^20 for centralizer scans, 2^26 for fiber counts and fiber identities)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_selftest = sub.add_parser(
        "selftest", help="run the four oracle suites at small bounds (all PASS when correct)"
    )
    p_selftest.add_argument(
        "--fast",
        action="store_true",
        help="centralizer and harmonic suites over F_2 only, instead of F_2 and F_3",
    )
    p_selftest.add_argument("--format", choices=("human", "records"), default="human")
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify", "selftest"):
        # the oracles, and numpy with them, load with the commands that use
        # them, before the command runs: module loading is set-up
        importlib.import_module(".verify", __package__)
    # everything alive now lives until exit: move it to the permanent
    # generation, so neither the command's full collections nor the ones at
    # interpreter exit traverse it again
    gc.freeze()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PolynomialityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
