"""Reports: every report's shape, built from the records of a command and
rendered as JSON, CSV or markdown, and the reference table for conductor 819.

Each kind of report lists its columns once, and its builder and both its
tables read the list: an enumerate entry per pair has _PAIR_COLUMNS, a
verify entry per field adds its periods, checks and worst residual in
_FIELD_COLUMNS, and a table row of 819 has _TABLE_COLUMNS, which also give
the markdown headers and lay out GOLDEN_TABLE_ROWS.  A scan report is one
summary.  render_report picks the layout from the report's keys.

JSON is written here, not by the json package: render_json lays out the
indent=2 form itself and quotes strings with the C encode_basestring_ascii
of _json, the function json.encoder quotes with, so its bytes equal
json.dumps(report, indent=2) + "\n".  json with an indent runs its
pure-Python encoder anyway, and importing json compiles the regexes of its
decoder and scanner, which writing a report never uses: a few ms of
every cold start.  Each format imports what only it uses, on first use:
render_json imports _json and the CSV renderers import csv, so that a
markdown report loads neither.
"""

from __future__ import annotations

import functools
import io
import math
from typing import TYPE_CHECKING

from .cubicpoly import RationalCubic, cleared_shanks_poly
from .eisenstein import chi9_gauss_sum_report

if TYPE_CHECKING:
    from .arith import Conductor
    from .periods import FieldRecord
    from .quadform import Representation, ShanksParams

# The names of the report formats: JSON, CSV and markdown.
FORMATS = ("json", "csv", "md")


def format_rational(numerator: int, denominator: int) -> str:
    """numerator/denominator, for denominator > 0, as "p/q" in lowest terms,
    or as plain "p" when it is an integer."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


def format_poly(p: RationalCubic, denominator: int = 1) -> str:
    """p/denominator, for denominator > 0, with coefficients in lowest terms."""
    parts: list[str] = []
    for coeff, power in zip(p, (3, 2, 1, 0)):
        if coeff == 0:
            continue
        mag = format_rational(abs(coeff), denominator)
        if power == 0:
            term = mag
        else:
            xp = "X" if power == 1 else f"X^{power}"
            term = xp if mag == "1" else f"{mag}*{xp}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def format_relation(scale: int, offset: int) -> str:
    """Render eta = scale*rho + offset."""
    if scale == 1:
        head = "rho"
    elif scale == -1:
        head = "-rho"
    else:
        head = f"{scale}*rho"
    if offset == 0:
        return head
    sign = "+" if offset > 0 else "-"
    return f"{head} {sign} {abs(offset)}"


_PAIR_COLUMNS = ("M", "N", "n1", "n2", "shanks", "period_poly")
_FIELD_COLUMNS = (*_PAIR_COLUMNS, "periods", "verdicts", "residual")
# Each table column's key and its markdown header.
_TABLE_COLUMNS = {
    "pair": "(n1, n2)",
    "eta_relation": "eta relation",
    "shanks": "shanks cubic",
    "period_poly": "period polynomial",
}

# Reference data for conductor 819 = 9 * 7 * 13: the four pairs, the linear
# relation between each period triple and the roots of the matching cubic,
# the cubic itself, and the period polynomial.  Rows are ordered by n2.
TABLE_CONDUCTOR = 819
GOLDEN_TABLE_ROWS = tuple(
    dict(zip(_TABLE_COLUMNS, row))
    for row in (
        ("(-30, 1)", "rho + 10", "X^3 + 30*X^2 + 27*X - 1", "X^3 - 273*X + 1729"),
        ("(18, 5)", "5*rho - 6", "X^3 - 18/5*X^2 - 33/5*X - 1", "X^3 - 273*X - 1547"),
        ("(-3, 10)", "10*rho + 1", "X^3 + 3/10*X^2 - 27/10*X - 1", "X^3 - 273*X - 728"),
        ("(-18, 11)", "11*rho + 6", "X^3 + 18/11*X^2 - 15/11*X - 1", "X^3 - 273*X + 91"),
    )
)


def pair_entry(r: Representation, sp: ShanksParams, poly: RationalCubic) -> dict:
    """The enumerate entry of pair r, with its parameters sp and its period
    polynomial poly."""
    shanks = [format_rational(c, sp.n2) for c in cleared_shanks_poly(sp)]
    return dict(zip(_PAIR_COLUMNS, (r.M, r.N, sp.n1, sp.n2, shanks, list(poly))))


def field_entry(rec: FieldRecord) -> dict:
    """The verify entry of one field: its pair's entry, then its periods,
    the checks it passed and the worst residual among them."""
    entry = pair_entry(rec.representation, rec.shanks_params, rec.period_poly)
    checks = (list(rec.periods.values()), dict.fromkeys(rec.verdicts, True), rec.max_residual())
    entry.update(zip(_FIELD_COLUMNS[len(_PAIR_COLUMNS):], checks))
    return entry


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


def conductor_report(f: Conductor, entries: list[dict], verified: bool) -> dict:
    """The report of one conductor with one entry per field, and its notes:
    on nu = 0, then, for a verified wild conductor, on the sums mod 9."""
    report = {"conductor": f.value, "kind": f.kind, "fields": entries}
    notes = []
    if f.is_wild and f.nu == 0:
        notes.append("nu = 0: the conductor is 9 itself, with no odd prime factors")
    if f.is_wild and verified:
        notes.append(_chi9_note())
    if notes:
        report["notes"] = notes
    return report


def table_report(records: list[FieldRecord]) -> dict:
    """The reference table of the fields of conductor 819, in order of n2."""
    rows = []
    for rec in sorted(records, key=lambda rec: rec.shanks_params.n2):
        sp = rec.shanks_params
        values = (
            f"({sp.n1}, {sp.n2})",
            format_relation(sp.scale, sp.offset),
            format_poly(cleared_shanks_poly(sp), sp.n2),
            format_poly(rec.period_poly),
        )
        rows.append(dict(zip(_TABLE_COLUMNS, values)))
    return {"conductor": TABLE_CONDUCTOR, "rows": rows}


def scan_summary(
    lo: int, hi: int, kind: str | None, conductors: int, fields: int, worst: float
) -> dict:
    """The report of a scan of [lo, hi] (kind None for both kinds) whose
    conductors all passed."""
    return {"min": lo, "max": hi, "kind": kind or "all", "conductors": conductors,
            "total_fields": fields, "worst_residual": worst, "all_pass": True}


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write_json(value, newline: str, out, quote) -> None:
    """Pass the chunks of value in the indent=2 layout to out; newline is
    the line break and indent before value's own closing bracket, and
    quote quotes a string.  The type checks run in json.encoder's order,
    bool before int."""
    if isinstance(value, str):
        out(quote(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out, quote)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep)
            out(quote(key))
            out(": ")
            _write_json(item, inner, out, quote)
            sep = "," + inner
        out(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", byte for byte, for reports of
    dicts with str keys, lists, tuples, str, int, float, bool and None;
    TypeError for any other key or value."""
    from _json import encode_basestring_ascii

    chunks: list[str] = []
    _write_json(report, "\n", chunks.append, encode_basestring_ascii)
    chunks.append("\n")
    return "".join(chunks)


def _flatten(value) -> str:
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in value.items())
    return str(value)


def _csv(rows) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _md_table(headers, rows) -> list[str]:
    """The lines of a markdown table of rows of strings under headers."""
    return [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
        *("| " + " | ".join(row) + " |" for row in rows),
    ]


def _render_fields_csv(report: dict) -> str:
    return _csv(
        [("conductor", "kind") + _FIELD_COLUMNS]
        + [
            [report["conductor"], report["kind"]]
            + [_flatten(entry[c]) if c in entry else "" for c in _FIELD_COLUMNS]
            for entry in report["fields"]
        ]
    )


def _render_fields_markdown(report: dict) -> str:
    lines = [f"# conductor {report['conductor']} ({report['kind']})", ""]
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    if report.get("notes"):
        lines.append("")
    cols = [c for c in _FIELD_COLUMNS if any(c in e for e in report["fields"])]
    rows = ([_flatten(e[c]) if c in e else "" for c in cols] for e in report["fields"])
    return "\n".join(lines + _md_table(cols, rows)) + "\n"


def _render_table_csv(report: dict) -> str:
    return _csv(
        [("conductor", *_TABLE_COLUMNS)]
        + [[report["conductor"]] + [row[c] for c in _TABLE_COLUMNS] for row in report["rows"]]
    )


def _render_table_markdown(report: dict) -> str:
    rows = ([row[c] for c in _TABLE_COLUMNS] for row in report["rows"])
    lines = [f"# conductor {report['conductor']}", "", *_md_table(_TABLE_COLUMNS.values(), rows)]
    return "\n".join(lines) + "\n"


def _render_summary_csv(report: dict) -> str:
    return _csv([list(report), [_flatten(v) for v in report.values()]])


def _render_summary_markdown(report: dict) -> str:
    lines = ["# scan summary", ""]
    for k, v in report.items():
        lines.append(f"- {k}: {_flatten(v)}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str) -> str:
    """Serialize a report dict as "json", "csv" or "md" (markdown); the dict
    shape selects the layout.  Any other format raises ValueError."""
    if fmt not in FORMATS:
        raise ValueError(f"{fmt!r} is not a report format")
    if fmt == "json":
        return render_json(report)
    as_csv = fmt == "csv"
    if "fields" in report:
        return _render_fields_csv(report) if as_csv else _render_fields_markdown(report)
    if "rows" in report:
        return _render_table_csv(report) if as_csv else _render_table_markdown(report)
    return _render_summary_csv(report) if as_csv else _render_summary_markdown(report)
