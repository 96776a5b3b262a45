"""Command-line interface.

Subcommands:
  enumerate --conductor F      print pairs, parameters, cubics, polynomials
  verify    --conductor F      run every check for one conductor
  scan      --min A --max B    verify every valid conductor in a range
  table                        reproduce the conductor-819 reference table

Common flags: --format {json,csv,md,markdown} (default json; markdown is
an alias for md) and --out PATH (- for stdout).  No flag sets a tolerance:
the checks are exact but for the float ones, which compare with a bound
worked out from their inputs (periods.relation).

Every check runs in periods.match_fields, which compiles on its first
call (see the package root), and report builds every report from its
records; this module parses arguments, runs the commands and
writes their reports.  One table, COMMANDS, gives each command its
function, its help line and its flags, and two parsers read it.  A
well-formed argv, COMMAND (--flag VALUE | --flag=VALUE)* with whole flag
names, valid values and every required flag, is read by _parse, a few
lines that import nothing.  Any other argv (-h, a prefix of a flag, "--",
a value that starts with '-', or an error) goes to an argparse parser
built from the same table on first use, so argparse writes every help and
error message, and a cold command never loads argparse, gettext, locale
or shutil.

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid input
(including a conductor or a scan's --max at or above arith.MR_BOUND, and
for verify and scan a prime factor whose Jacobi sum no point of the
curve proves) or an --out the report cannot be written to.
Reports go to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import collections
import functools
import os
import sys
from types import SimpleNamespace

from . import periods
from .arith import KINDS, Conductor, conductors_up_to, validate_conductor
from .cubicpoly import period_poly_formula
from .errors import BudgetExceeded, InvalidConductor, VerificationError
from .quadform import representations, shanks_params
from .report import (
    FORMATS,
    GOLDEN_TABLE_ROWS,
    TABLE_CONDUCTOR,
    conductor_report,
    field_entry,
    pair_entry,
    render_report,
    scan_summary,
    table_report,
)


def _style(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


class _Unwritable(Exception):
    """--out names a path the report cannot be written to."""


def _emit(report: dict, args: SimpleNamespace) -> None:
    """Render report in the --format of args (markdown is an alias for md)
    and write it to --out, or to stdout when --out is absent or "-"."""
    text = render_report(report, "md" if args.format == "markdown" else args.format)
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(
            f"cannot write report to {args.out}: {exc.strerror or exc}"
        ) from exc


def verify_report(f: Conductor) -> dict:
    """Full verification of one conductor (match_fields), as a report dict.

    Raises a VerificationError subclass as soon as any check fails.
    """
    entries = [field_entry(rec) for rec in periods.match_fields(f)]
    return conductor_report(f, entries, verified=True)


def cmd_enumerate(args: SimpleNamespace) -> int:
    f = validate_conductor(args.conductor)
    entries = [
        pair_entry(r, shanks_params(r), period_poly_formula(f, r.M)) for r in representations(f)
    ]
    _emit(conductor_report(f, entries, verified=False), args)
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    f = validate_conductor(args.conductor)
    _emit(verify_report(f), args)
    _diag(_style(f"conductor {f.value}: all checks passed", "32"))
    return 0


def cmd_scan(args: SimpleNamespace) -> int:
    if args.min < 1 or args.max < args.min:
        _diag(f"error: empty or invalid range [{args.min}, {args.max}]")
        return 2
    conductors = conductors_up_to(args.max, args.kind, start=args.min)
    total_fields = 0
    worst = 0.0
    for cond in conductors:
        try:
            records = periods.match_fields(cond)
        except VerificationError as exc:
            _diag(
                f"verification failure at conductor {cond.value}: "
                f"{type(exc).__name__}: {exc}"
            )
            return 1
        total_fields += len(records)
        worst = max(worst, *(rec.max_residual() for rec in records))
    _emit(scan_summary(args.min, args.max, args.kind, len(conductors), total_fields, worst), args)
    _diag(
        _style(
            f"scan [{args.min}, {args.max}]: {len(conductors)} conductors, "
            f"{total_fields} fields, worst residual {worst:.3e}",
            "32",
        )
    )
    return 0


def cmd_table(args: SimpleNamespace) -> int:
    report = table_report(periods.match_fields(validate_conductor(TABLE_CONDUCTOR)))
    _emit(report, args)
    rows, golden = report["rows"], list(GOLDEN_TABLE_ROWS)
    if rows != golden:
        for computed, expected in zip(rows, golden):
            if computed != expected:
                _diag(f"table mismatch: computed {computed!r}, expected {expected!r}")
        if len(rows) != len(golden):
            _diag(f"table mismatch: {len(rows)} rows computed, {len(golden)} expected")
        return 1
    _diag(_style("table matches the built-in fixture", "32"))
    return 0


# A flag's value is int, the tuple of the strings it accepts, or the
# metavar of a free string.
Flag = collections.namedtuple(
    "Flag", "name value required default help", defaults=(False, None, "")
)
_REPORT_FLAGS = (
    Flag("format", (*FORMATS, "markdown"), default="json",
         help="report format (default json; markdown is an alias for md)"),
    Flag("out", "PATH", help="write the report to a file (- for stdout)"),
)
_CONDUCTOR = Flag("conductor", int, required=True,
                  help="a conductor f: distinct primes = 1 mod 3, times 1 or 9")

# The commands, in the order -h lists them: (run, help, flags).
COMMANDS = {
    "enumerate": (cmd_enumerate, "list pairs and polynomials", (_CONDUCTOR, *_REPORT_FLAGS)),
    "verify": (cmd_verify, "run all checks for one conductor", (_CONDUCTOR, *_REPORT_FLAGS)),
    "scan": (
        cmd_scan,
        "verify every conductor in a range",
        (
            Flag("min", int, required=True, help="the least conductor (inclusive)"),
            Flag("max", int, required=True, help="the greatest conductor (inclusive)"),
            Flag("kind", tuple(KINDS),
                 help="only tame or only wild conductors (default both kinds)"),
            *_REPORT_FLAGS,
        ),
    ),
    "table": (cmd_table, "reproduce the conductor-819 table", _REPORT_FLAGS),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The command and flag values of a well-formed argv: a command, then
    whole flag names, each as --flag=VALUE or as --flag VALUE where VALUE
    does not start with '-', with every int an int, every choice valid and
    every required flag given.  None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = {f"--{flag.name}": flag for flag in COMMANDS[argv[0]][2]}
    values = {flag.name: flag.default for flag in flags.values()}
    args = iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        flag = flags.get(name)
        if flag is None:
            return None
        if not eq:
            value = next(args, "-")
            if value.startswith("-"):
                return None
        if flag.value is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(flag.value, tuple) and value not in flag.value:
            return None
        values[flag.name] = value
    if any(flag.required and values[flag.name] is None for flag in flags.values()):
        return None
    return SimpleNamespace(command=argv[0], **values)


def _argparser():
    """The argparse parser of COMMANDS, for every argv that _parse leaves:
    -h, prefixes, "--", values that start with '-', and all errors.  Its
    usage and help are laid out for 78 columns, whatever the terminal."""
    import argparse

    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="cubicperiods",
        description="Enumerate and verify Gaussian periods and Shanks cubics "
        "for cyclic cubic conductors.",
        formatter_class=formatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in COMMANDS.items():
        sub = commands.add_parser(command, help=text, formatter_class=formatter)
        for flag in flags:
            if flag.value is int:
                kind = {"type": int}
            elif isinstance(flag.value, tuple):
                kind = {"choices": flag.value}
            else:
                kind = {"metavar": flag.value}
            sub.add_argument(
                f"--{flag.name}", required=flag.required, default=flag.default,
                help=flag.help, **kind,
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        try:
            args = _argparser().parse_args(argv)
        except SystemExit as exc:  # -h printed its help, or an error went to stderr
            return exc.code
    try:
        return COMMANDS[args.command][0](args)
    except (InvalidConductor, BudgetExceeded, _Unwritable) as exc:
        _diag(f"error: {exc}")
        return 2
    except VerificationError as exc:
        _diag(f"verification failure: {type(exc).__name__}: {exc}")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
