"""Report rendering (JSON, CSV, markdown) and the built-in reference table
for conductor 819.

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

import io
import math

from .cubicpoly import RationalCubic

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


# Reference data for conductor 819 = 9 * 7 * 13: the four pairs, the linear
# relation between each period triple and the roots of the matching cubic,
# the cubic itself, and the period polynomial.  Rows are ordered by n2.
TABLE_CONDUCTOR = 819
GOLDEN_TABLE_ROWS = (
    {
        "pair": "(-30, 1)",
        "eta_relation": "rho + 10",
        "shanks": "X^3 + 30*X^2 + 27*X - 1",
        "period_poly": "X^3 - 273*X + 1729",
    },
    {
        "pair": "(18, 5)",
        "eta_relation": "5*rho - 6",
        "shanks": "X^3 - 18/5*X^2 - 33/5*X - 1",
        "period_poly": "X^3 - 273*X - 1547",
    },
    {
        "pair": "(-3, 10)",
        "eta_relation": "10*rho + 1",
        "shanks": "X^3 + 3/10*X^2 - 27/10*X - 1",
        "period_poly": "X^3 - 273*X - 728",
    },
    {
        "pair": "(-18, 11)",
        "eta_relation": "11*rho + 6",
        "shanks": "X^3 + 18/11*X^2 - 15/11*X - 1",
        "period_poly": "X^3 - 273*X + 91",
    },
)

_FIELD_COLUMNS = (
    "M",
    "N",
    "n1",
    "n2",
    "shanks",
    "period_poly",
    "periods",
    "verdicts",
    "residual",
)


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
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("|" + "|".join(" --- " for _ in cols) + "|")
    for entry in report["fields"]:
        lines.append(
            "| " + " | ".join(_flatten(entry[c]) if c in entry else "" for c in cols) + " |"
        )
    return "\n".join(lines) + "\n"


def _render_table_csv(report: dict) -> str:
    cols = ("pair", "eta_relation", "shanks", "period_poly")
    return _csv(
        [("conductor",) + cols]
        + [[report["conductor"]] + [row[c] for c in cols] for row in report["rows"]]
    )


def _render_table_markdown(report: dict) -> str:
    lines = [f"# conductor {report['conductor']}", ""]
    lines.append("| (n1, n2) | eta relation | shanks cubic | period polynomial |")
    lines.append("| --- | --- | --- | --- |")
    for row in report["rows"]:
        lines.append(
            f"| {row['pair']} | {row['eta_relation']} | {row['shanks']} "
            f"| {row['period_poly']} |"
        )
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
