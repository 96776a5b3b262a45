"""Output checker: parses a report written by one op and returns what is
wrong with it.  An empty list means the report is correct.

The period polynomial is recomputed here from the closed form

    X^3 - mu*X^2 + (1-f)/3*X - mu*((M-3)*f + 1)/27      (tame, mu = mu(f))
    X^3 - f/3*X - mu*f*M/27                             (wild, mu = mu(f/9))

with integer arithmetic only; mu = (-1)^nu because conductors are
squarefree away from 9.
"""

from __future__ import annotations

import csv
import io
import json

from workloads import Op


def closed_form(f: int, kind: str, nu: int, m: int) -> list[int] | None:
    """Integer period polynomial for (f, M), or None if a coefficient is not integral."""
    mu = -1 if nu % 2 else 1
    if kind == "tame":
        c1, r1 = divmod(1 - f, 3)
        c0, r0 = divmod(-mu * ((m - 3) * f + 1), 27)
        return [1, -mu, c1, c0] if r1 == r0 == 0 else None
    c1, r1 = divmod(-f, 3)
    c0, r0 = divmod(-mu * f * m, 27)
    return [1, 0, c1, c0] if r1 == r0 == 0 else None


def check_fields(op: Op, kind: str, fields: list[dict], need_verdicts: bool) -> list[str]:
    """Field count, 4f = M^2 + 27N^2, closed-form period polynomial, verdicts."""
    f = op.conductor
    problems = []
    if kind != op.kind:
        problems.append(f"kind {kind!r}, expected {op.kind!r}")
    if len(fields) != op.expected_fields:
        problems.append(f"{len(fields)} fields, expected {op.expected_fields}")
    pairs = set()
    for entry in fields:
        m, n = entry["M"], entry["N"]
        pairs.add((m, n))
        if m * m + 27 * n * n != 4 * f:
            problems.append(f"(M, N) = ({m}, {n}) does not solve 4f = M^2 + 27N^2")
            continue
        expected = closed_form(f, op.kind, op.nu, m)
        if entry["period_poly"] != expected:
            problems.append(
                f"M = {m}: period_poly {entry['period_poly']}, closed form {expected}"
            )
        if need_verdicts:
            verdicts = entry.get("verdicts") or {}
            failed = [name for name, ok in verdicts.items() if ok is not True]
            if not verdicts or failed:
                problems.append(f"M = {m}: verdicts not all true ({failed or 'none'})")
    if len(pairs) != len(fields):
        problems.append("repeated (M, N) pairs")
    return problems


def _check_verify_json(op: Op, text: str) -> list[str]:
    report = json.loads(text)
    if report.get("conductor") != op.conductor:
        return [f"report is for conductor {report.get('conductor')}"]
    return check_fields(op, report.get("kind"), report.get("fields", []), True)


def _check_enumerate_md(op: Op, text: str) -> list[str]:
    lines = text.splitlines()
    head = f"# conductor {op.conductor} ("
    if not lines or not lines[0].startswith(head):
        return [f"markdown header {lines[:1]} is not for conductor {op.conductor}"]
    kind = lines[0][len(head):].rstrip(")")
    rows = [line for line in lines if line.startswith("|")]
    if len(rows) < 2:
        return ["markdown report has no table"]
    cols = [c.strip() for c in rows[0].strip("|").split("|")]
    fields = []
    for row in rows[2:]:
        cells = dict(zip(cols, (c.strip() for c in row.strip("|").split("|"))))
        try:
            fields.append(
                {
                    "M": int(cells["M"]),
                    "N": int(cells["N"]),
                    "period_poly": [int(x) for x in cells["period_poly"].split()],
                }
            )
        except (KeyError, ValueError) as exc:
            return [f"unreadable markdown row {row!r}: {exc!r}"]
    return check_fields(op, kind, fields, False)


def _check_scan_csv(op: Op, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        return [f"scan summary has {len(rows)} rows, expected 1"]
    row = rows[0]
    problems = []
    if (row.get("min"), row.get("max")) != (str(op.lo), str(op.hi)):
        problems.append(f"summary window [{row.get('min')}, {row.get('max')}]")
    if row.get("conductors") != str(op.expected_conductors):
        problems.append(
            f"conductors {row.get('conductors')}, expected {op.expected_conductors}"
        )
    if row.get("total_fields") != str(op.expected_fields):
        problems.append(
            f"total_fields {row.get('total_fields')}, expected {op.expected_fields}"
        )
    if row.get("all_pass") != "True":
        problems.append(f"all_pass is {row.get('all_pass')!r}")
    return problems


CHECKERS = {
    "verify": _check_verify_json,
    "enumerate": _check_enumerate_md,
    "scan": _check_scan_csv,
}


def check_report(op: Op, text: str) -> list[str]:
    """Problems with the report text written by op; empty when it is correct."""
    try:
        return CHECKERS[op.command](op, text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable {op.command} report: {exc!r}"]


def report_residual(op: Op, text: str) -> float:
    """Worst numeric residual stated by a checked report (0 for enumerate)."""
    if op.command == "verify":
        return max(e["residual"] for e in json.loads(text)["fields"])
    if op.command == "scan":
        return float(next(csv.DictReader(io.StringIO(text)))["worst_residual"])
    return 0.0
