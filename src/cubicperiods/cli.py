"""Command-line interface.

Subcommands:
  enumerate --conductor F      print pairs, parameters, cubics, polynomials
  verify    --conductor F      run every check for one conductor
  scan      --min A --max B    verify every valid conductor in a range
  table                        reproduce the conductor-819 reference table

Common flags: --format {json,csv,md} (default json) and --out PATH.  No
flag sets a tolerance: the checks are exact but for the float ones, which
compare with a bound worked out from their inputs (verdicts.rounding_bound).

Every check runs in periods.match_fields; this module parses arguments and
shapes its records into reports.

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid input
(including a conductor or a scan's --max at or above arith.MR_BOUND, and
for verify and scan a prime factor above eisenstein.POINT_COUNT_BUDGET,
or one whose Jacobi sum the points of the curve leave open) or an --out
the report cannot be written to.
Reports go to stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .arith import Conductor, Kind, conductors_up_to, validate_conductor
from .cubicpoly import affine_relation, period_poly_formula, shanks_poly
from .eisenstein import chi9_gauss_sum_report
from .errors import BudgetExceeded, InvalidConductor, VerificationError
from .periods import FieldRecord, match_fields
from .quadform import representations, shanks_params
from .report import (
    GOLDEN_TABLE_ROWS,
    TABLE_CONDUCTOR,
    ReportFormat,
    format_poly,
    format_rational,
    format_relation,
    render_report,
)


def _report_format(name: str) -> ReportFormat:
    return ReportFormat("md" if name == "markdown" else name)


def _style(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


class _Unwritable(Exception):
    """--out names a path the report cannot be written to."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(
            f"cannot write report to {out}: {exc.strerror or exc}"
        ) from exc


def _enumerate_entry(r) -> dict:
    # the coefficients of f_n for n = n1/n2; gcd(n1, n2) = 1, which
    # quadform._check_pair checks for every pair, and n2 > 0 put -n1/n2 and
    # -(n1 + 3*n2)/n2 in lowest terms
    n1, n2 = shanks_params(r)
    poly = period_poly_formula(r.conductor, r.M)
    return {
        "M": r.M,
        "N": r.N,
        "n1": n1,
        "n2": n2,
        "shanks": [
            "1", format_rational(-n1, n2), format_rational(-(n1 + 3 * n2), n2), "-1"
        ],
        "period_poly": list(poly.integer_coefficients()),
    }


def _field_entry(rec: FieldRecord) -> dict:
    entry = _enumerate_entry(rec.representation)
    entry["periods"] = list(rec.periods.values())
    entry["verdicts"] = dict.fromkeys(rec.verdicts, True)
    entry["residual"] = rec.max_residual()
    return entry


def _conductor_notes(f: Conductor) -> list[str]:
    notes = []
    if f.is_wild and f.nu == 0:
        notes.append(
            "nu = 0: the conductor is 9 itself, with no odd prime factors"
        )
    return notes


@functools.cache
def _chi9_note() -> str:
    """The note on the Gaussian sums mod 9 of a wild report: a fact about
    the two characters mod 9, the same for every conductor."""
    gs = [chi9_gauss_sum_report(sign) for sign in (1, -1)]
    return (
        "gauss sum mod 9 vs 27*zeta3^(+-1): tau matches = "
        f"{all(g['tau_matches'] for g in gs)}, tau^3 matches = "
        f"{all(g['tau_cubed_matches'] for g in gs)}"
    )


def verify_report(f: Conductor) -> dict:
    """Full verification of one conductor (match_fields), as a report dict.

    Raises a VerificationError subclass as soon as any check fails.
    """
    entries = [_field_entry(rec) for rec in match_fields(f)]
    report = {"conductor": f.value, "kind": f.kind.value, "fields": entries}
    notes = _conductor_notes(f)
    if f.is_wild:
        notes.append(_chi9_note())
    if notes:
        report["notes"] = notes
    return report


def cmd_enumerate(args: argparse.Namespace) -> int:
    f = validate_conductor(args.conductor)
    entries = [_enumerate_entry(r) for r in representations(f)]
    report = {"conductor": f.value, "kind": f.kind.value, "fields": entries}
    notes = _conductor_notes(f)
    if notes:
        report["notes"] = notes
    _emit(render_report(report, _report_format(args.format)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    f = validate_conductor(args.conductor)
    report = verify_report(f)
    _emit(render_report(report, _report_format(args.format)), args.out)
    _diag(_style(f"conductor {f.value}: all checks passed", "32"))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.min < 1 or args.max < args.min:
        _diag(f"error: empty or invalid range [{args.min}, {args.max}]")
        return 2
    conductors = conductors_up_to(args.max, args.kind, start=args.min)
    total_fields = 0
    worst = 0.0
    for cond in conductors:
        try:
            records = match_fields(cond)
        except VerificationError as exc:
            _diag(
                f"verification failure at conductor {cond.value}: "
                f"{type(exc).__name__}: {exc}"
            )
            return 1
        total_fields += len(records)
        worst = max(worst, *(rec.max_residual() for rec in records))
    summary = {
        "min": args.min,
        "max": args.max,
        "kind": args.kind or "all",
        "conductors": len(conductors),
        "total_fields": total_fields,
        "worst_residual": worst,
        "all_pass": True,
    }
    _emit(render_report(summary, _report_format(args.format)), args.out)
    _diag(
        _style(
            f"scan [{args.min}, {args.max}]: {len(conductors)} conductors, "
            f"{total_fields} fields, worst residual {worst:.3e}",
            "32",
        )
    )
    return 0


def table_rows() -> list[dict]:
    """Compute the reference-table rows for conductor 819 from scratch."""
    from fractions import Fraction

    f = validate_conductor(TABLE_CONDUCTOR)
    records = sorted(match_fields(f), key=lambda rec: rec.shanks_params.n2)
    rows = []
    for rec in records:
        sp = rec.shanks_params
        mu, shift = affine_relation(f, sp.n1)
        rows.append(
            {
                "pair": f"({sp.n1}, {sp.n2})",
                "eta_relation": format_relation(mu * sp.n2, mu * shift),
                "shanks": format_poly(shanks_poly(Fraction(sp.n1, sp.n2))),
                "period_poly": format_poly(rec.predicted_poly),
            }
        )
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    rows = table_rows()
    report = {"conductor": TABLE_CONDUCTOR, "rows": rows}
    _emit(render_report(report, _report_format(args.format)), args.out)
    golden = [dict(row) for row in GOLDEN_TABLE_ROWS]
    if rows != golden:
        for computed, expected in zip(rows, golden):
            if computed != expected:
                _diag(f"table mismatch: computed {computed!r}, expected {expected!r}")
        if len(rows) != len(golden):
            _diag(f"table mismatch: {len(rows)} rows computed, {len(golden)} expected")
        return 1
    _diag(_style("table matches the built-in fixture", "32"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cubicperiods",
        description="Enumerate and verify Gaussian periods and Shanks cubics "
        "for cyclic cubic conductors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=[f.value for f in ReportFormat] + ["markdown"],
            default="json",
            help="report format (default json; markdown is an alias for md)",
        )
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    p_enum = sub.add_parser("enumerate", help="list pairs and polynomials")
    p_enum.add_argument("--conductor", type=int, required=True)
    add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run all checks for one conductor")
    p_verify.add_argument("--conductor", type=int, required=True)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="verify every conductor in a range")
    p_scan.add_argument("--min", type=int, required=True)
    p_scan.add_argument("--max", type=int, required=True)
    p_scan.add_argument("--kind", choices=[k.value for k in Kind])
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_table = sub.add_parser("table", help="reproduce the conductor-819 table")
    add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
