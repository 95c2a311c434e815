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

The command line is read by a small parser over one table, _COMMANDS,
which holds every command's arguments with their kinds, defaults and help
texts; parsing, usage errors and --help all read it.  It takes `--opt value`
and `--opt=value`, unique abbreviations such as `--max`, `-h` and `--help`,
and refuses everything else with exit 2 and a `usage:` line on stderr,
accepting and refusing the same argv as the standard-library parser it
replaced (tests/test_cli.py keeps that parser as a reference).  Not
importing that module, and not building its five parsers, starts every
command about 3 ms sooner on a 2-core host where each start compiles the
package from source (BENCH_pr25.json).

Before the command runs, main calls gc.freeze() once.  Everything start-up
built (imported modules, the oracles for verify and selftest, the parsed
arguments) lives until exit, and the freeze moves it to the collector's
permanent generation: the command's full collections and the ones at
interpreter exit no longer traverse it, and objects the command makes are
collected as before.  It sits in main only, so importing the package or
calling the engine leaves the collector's state alone.  On a 2-core host the time
from the last record to exit fell from 0.035 s to 0.010 s for
`verify all --q 2` and from about 0.013 s to 0.004 s for the benchmark's
series commands (BENCH_pr15.json).
"""

from __future__ import annotations

import gc
import importlib
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from .engine import PolynomialityError, betti_report, motive_class, motive_table
from .poly import format_poly
from .quiver import (
    BUILTIN_QUIVERS,
    InputError,
    Quiver,
    QuiverFormatError,
    check_dim_vector,
    parse_quiver,
)

if TYPE_CHECKING:
    from .verify import CaseResult


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise QuiverFormatError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


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


# json.dumps with these arguments would build a new encoder for every record
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _record_line(record: dict) -> str:
    return _RECORD_ENCODER.encode(record) + "\n"


def _motive_record(result, command: str) -> dict:
    return {
        "command": command,
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
    result = motive_class(qv, v, w)
    if args.format == "records":
        record = _motive_record(result, "motive")
        record["betti"] = [[k, c] for k, c in betti_report(result)]
        sys.stdout.write(_record_line(record))
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
    rows = motive_table(qv, w, bound)
    if args.format == "records":
        lines = [_record_line(_motive_record(row, "series")) for row in rows]
    else:
        lines = [
            f"v={list(row.v)}  d={row.d_shift}  class = {format_poly(row.class_polynomial)}\n"
            for row in rows
        ]
    sys.stdout.write("".join(lines))  # one write for the whole table
    return 0


_SUITES = ("ffcount", "centralizer", "kappa", "harmonic", "all")


def cmd_verify(args) -> int:
    from . import fflab, verify

    qs = _parse_int_list(args.q, "--q") if args.q is not None else (2, 3)
    for q in qs:  # every field, before any suite
        fflab._require_prime(q)
    if len(set(qs)) != len(qs):
        raise InputError(f"--q repeats a field size: {args.q}")
    if args.suite in ("kappa", "centralizer", "harmonic"):
        # a suite with a fixed grid refuses the options it would not read
        reads = () if args.suite == "kappa" else ("q", "budget")
        unread = [
            f"--{name}"
            for name in ("quiver", "w", "alpha", "q", "budget")
            if getattr(args, name) is not None and name not in reads
        ]
        if unread:
            raise InputError(f"the {args.suite} suite does not read {', '.join(unread)}")
    if args.suite in ("ffcount", "all"):
        quiver = "jordan" if args.quiver is None else args.quiver
        alpha = 1 if args.alpha is None else args.alpha
        # a bad level, quiver or w is refused before any suite runs
        verify.check_level(alpha, qs)
        qv, named = _load_quiver(quiver)
        w = _resolve_vector(args.w, named, "w", "--w") or (1,) * qv.vertex_count
        w = check_dim_vector(qv, w, "w")
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
        cases += verify.ffcount_suite(
            qv,
            label=quiver if quiver in BUILTIN_QUIVERS else "quiver",
            w=w,
            qs=qs,
            alpha=alpha,
            **budget,
        )
    return _report_cases(cases, args.format)


def cmd_selftest(args) -> int:
    from . import verify

    cases = verify.run_selftest(fast=args.fast)
    return _report_cases(cases, args.format)


def _report_cases(cases: list[CaseResult], fmt: str) -> int:
    tally = {"PASS": 0, "FAIL": 0, "FLAG": 0, "SKIP": 0}
    lines = []
    for case in cases:
        tally[case.status] += 1
        if fmt == "records":
            record = {
                "command": "verify",
                "suite": case.suite,
                "case": case.name,
                "status": case.status,
                "detail": case.detail,
            }
            lines.append(_record_line(record))
        else:
            detail = f" | {case.detail}" if case.detail else ""
            lines.append(f"{case.status:<4} {case.suite}: {case.name}{detail}\n")
    if fmt != "records":
        lines.append(
            f"summary: {tally['PASS']} passed, {tally['FAIL']} failed, "
            f"{tally['FLAG']} flagged, {tally['SKIP']} skipped\n"
        )
    sys.stdout.write("".join(lines))  # one write for all the cases
    return 1 if tally["FAIL"] else 0


# The grammar, in one table that parsing, usage errors and --help all read.
# Each command has a one-line help and its arguments in order; an argument
# is (name, kind, default, help).  A name without dashes is a positional.
# The kind is "str", "int", "count" (an int at least 1), "flag" or a tuple
# of choices.  The default _REQUIRED marks an argument that must be given.
_REQUIRED = object()
_DESCRIPTION = (
    "Classes of quiver varieties as polynomials in the Lefschetz class L, "
    "with brute-force finite-field verification."
)
_QUIVER_HELP = (
    f"path to a quiver spec file, or a builtin name ({', '.join(sorted(BUILTIN_QUIVERS))})"
)
_FORMAT = ("--format", ("human", "records"), "human",
           "human-readable lines, or one canonical JSON record per line (default human)")
# nothing reads --threads; it stays because the benchmark's star3-wide
# workload passes --threads 2 (perfbench/run.py)
_THREADS = ("--threads", "count", 1,
            "accepted for compatibility, at least 1; the numerator sums run in one "
            "thread whatever the value, and the output is the same for any value")
_W = ("--w", "str", None, "framing vector, comma separated")

_COMMANDS = {
    "motive": ("class of one quiver variety", (
        ("--quiver", "str", _REQUIRED, _QUIVER_HELP),
        _FORMAT,
        _THREADS,
        ("--v", "str", None, "dimension vector, comma separated"),
        _W,
    )),
    "series": ("classes for all v up to a total degree", (
        ("--quiver", "str", _REQUIRED, _QUIVER_HELP),
        _FORMAT,
        _THREADS,
        _W,
        ("--max-degree", "int", None, "total-degree bound for v"),
    )),
    "verify": ("run oracle verification suites", (
        ("suite", _SUITES, _REQUIRED, "the suite to run; all runs the other four"),
        ("--quiver", "str", None, _QUIVER_HELP + "; for the ffcount suite (default jordan)"),
        _FORMAT,
        _THREADS,
        ("--w", "str", None, "framing vector for the ffcount suite"),
        ("--q", "str", None, "distinct prime field sizes, comma separated (default 2,3)"),
        ("--alpha", "int", None,
         "moment-map level for the ffcount suite, nonzero in every field (default 1)"),
        # the defaults of fflab.CENTRALIZER_BUDGET and fflab.DEFAULT_BUDGET,
        # stated without importing the oracles for every command
        ("--budget", "count", None,
         "enumeration point budget for the centralizer, harmonic and ffcount suites "
         "(default 2^20 for centralizer scans, 2^26 for fiber counts and fiber identities)"),
    )),
    "selftest": ("run the four oracle suites at small bounds (all PASS when correct)", (
        ("--fast", "flag", False,
         "centralizer and harmonic suites over F_2 only, instead of F_2 and F_3"),
        _FORMAT,
    )),
}
_HELP = ("-h", "flag", None, "show this help message and exit")
# a token like this is a value, not an option, as no option looks like a number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _synopsis(arg: tuple) -> str:
    name, kind = arg[0], arg[1]
    choices = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _dest(name).upper()
    if not name.startswith("-"):
        return choices
    return name if kind == "flag" else f"{name} {choices}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: quivermotive [-h] {" + ",".join(_COMMANDS) + "} ..."
    parts = [f"usage: quivermotive {command} [-h]"]
    for arg in _COMMANDS[command][1]:
        parts.append(_synopsis(arg) if arg[2] is _REQUIRED else f"[{_synopsis(arg)}]")
    return " ".join(parts)


def _help_text(command: str | None) -> str:
    import textwrap  # only --help pays for the import

    # the top level describes the program, then every command in full
    lines = [] if command else [_usage(None), "", *textwrap.wrap(_DESCRIPTION, 79), ""]
    for name in [command] if command else _COMMANDS:
        lines += [_usage(name), "", _COMMANDS[name][0], ""]
        for arg in (_HELP, *_COMMANDS[name][1]):
            lines.append("  " + ("-h, --help" if arg is _HELP else _synopsis(arg)))
            lines += textwrap.wrap(arg[3], 79, initial_indent=" " * 6, subsequent_indent=" " * 6)
        lines.append("")
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> NoReturn:
    prog = "quivermotive" if command is None else f"quivermotive {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _classify(token: str, options: dict, command: str | None):
    """Read one token the way the grammar has always read it.

    Returns None for a value, else (argument, option string, value after
    '=' or None), with argument None for an unknown option.  An option is
    matched exactly, then by the part before '=', then as the one option
    the token begins (an abbreviation); '-h' may run on as '-hh'.  A token
    that looks like a negative number or holds a space is a value.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return options[token], token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], name, value
    if token.startswith("--"):
        matches = [(flag, value if eq else None) for flag in options if flag.startswith(name)]
    else:
        matches = [(flag, token[2:]) for flag in options if flag == token[:2]]
    if len(matches) > 1:
        found = ", ".join(flag for flag, _ in matches)
        _usage_error(command, f"ambiguous option: {token} could match {found}")
    if matches:
        flag, value = matches[0]
        return options[flag], flag, value
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token, None


def _show_help(command: str | None, flag: str, value: str | None) -> NoReturn:
    # '-hh' is '-h' twice; any other character after '-h', or a value
    # given to --help, is refused
    if value is not None and (flag != "-h" or not value or value.strip("h")):
        _usage_error(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help_text(command))
    raise SystemExit(0)


def _convert(command: str, arg: tuple, text: str):
    name, kind = arg[0], arg[1]
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            _usage_error(command, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    if kind == "str":
        return text
    try:
        value = int(text)
    except ValueError:
        error = "invalid int value: " if kind == "int" else "expects an integer, got "
        _usage_error(command, f"argument {name}: {error}{text!r}")
    if kind == "count" and value < 1:
        _usage_error(command, f"argument {name}: must be at least 1, got {value}")
    return value


class Parser:
    """The parser: parse_args(argv) reads argv against _COMMANDS.

    Options take their value as the next token or after '='; a unique
    abbreviation names an option; the last of a repeated option wins; '--'
    makes every later token a value.  Refused argv exit 2 with a usage line
    on stderr, and -h or --help prints the help and exits 0.  An unknown
    token or a missing required argument is reported after the whole argv
    is read, so a later --help still wins over it.
    """

    def __init__(self, funcs: dict):
        self._funcs = funcs

    def parse_args(self, argv=None) -> SimpleNamespace:
        tokens = sys.argv[1:] if argv is None else list(argv)
        top = {"-h": _HELP, "--help": _HELP}
        unknown = []
        for start, token in enumerate(tokens):
            read = None if token == "--" else _classify(token, top, None)
            if read is None:
                command = token
                break
            if read[0] is None:
                unknown.append(token)
            else:
                _show_help(None, *read[1:])
        else:
            _usage_error(None, "the following arguments are required: command")
        if command not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")

        args = _COMMANDS[command][1]
        options = {**top, **{arg[0]: arg for arg in args if arg[0].startswith("-")}}
        positionals = [arg for arg in args if not arg[0].startswith("-")]
        rest = tokens[start + 1:]
        # every token is read before any is taken, so an ambiguous
        # abbreviation is refused wherever it stands; after '--' all are values
        end = rest.index("--") if "--" in rest else len(rest)
        reads = [_classify(token, options, command) for token in rest[:end]]
        if end < len(rest):
            reads += ["--"] + [None] * (len(rest) - end - 1)
        values = {_dest(arg[0]): arg[2] for arg in args}
        i = 0
        while i < len(rest):
            read = reads[i]
            if read is None or read == "--":
                # a positional takes the next value, with a '--' on either side
                j = i + (read == "--")
                if positionals and j < len(rest) and reads[j] is None:
                    arg = positionals.pop(0)
                    values[_dest(arg[0])] = _convert(command, arg, rest[j])
                    i = j + 1 + (j + 1 < len(rest) and reads[j + 1] == "--")
                else:
                    unknown.append(rest[i])
                    i += 1
                continue
            arg, flag, text = read
            if arg is None:
                unknown.append(rest[i])
            elif arg is _HELP:
                _show_help(command, flag, text)
            elif arg[1] == "flag":
                if text is not None:
                    _usage_error(command, f"argument {arg[0]}: ignored explicit argument {text!r}")
                values[_dest(arg[0])] = True
            else:
                if text is None:
                    if i + 1 == len(rest) or reads[i + 1] is not None:
                        _usage_error(command, f"argument {arg[0]}: expected one argument")
                    i += 1
                    text = rest[i]
                values[_dest(arg[0])] = _convert(command, arg, text)
            i += 1
        missing = [arg[0] for arg in args if values[_dest(arg[0])] is _REQUIRED]
        if missing:
            _usage_error(command, "the following arguments are required: " + ", ".join(missing))
        if unknown:
            _usage_error(None, "unrecognized arguments: " + " ".join(unknown))
        return SimpleNamespace(command=command, func=self._funcs[command], **values)


def build_parser() -> Parser:
    # each command runs the module-level cmd_<name> bound here, when main
    # builds the parser
    return Parser({name: globals()["cmd_" + name] for name in _COMMANDS})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify", "selftest"):
        # the oracles load with the commands that use them, before the
        # command runs: module loading is set-up
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
