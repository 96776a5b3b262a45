"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from check import check_report, closed_form  # noqa: E402
from run import MIN_OPS, SETUP_OP, Result, end_to_end, median, op_count, run_op, tail  # noqa: E402
from speed import PROBE_REFERENCE_S, scales  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, classify, field_count, spf_sieve  # noqa: E402

from cubicperiods import cli  # noqa: E402
from cubicperiods.arith import validate_conductor  # noqa: E402
from cubicperiods.errors import InvalidConductor  # noqa: E402

VERIFY_819 = Op("verify", 819, 819, 819, "wild", 2, 1, 4, "json")
# Conductors up to 100: 7 9 13 19 31 37 43 61 63 67 73 79 91 97; 91 = 7*13
# has two fields and 63 = 9*7 has two, the others one.
SCAN_1_100 = Op("scan", 1, 100, None, None, None, 14, 16, "csv")


def _report(op: Op, tmp_path: Path) -> str:
    out = tmp_path / "report.txt"
    assert cli.main(op.argv(str(out))) == 0
    return out.read_text()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    make = WORKLOADS[workload]
    assert make(7, 9) == make(7, 9)
    assert make(7, 9) != make(8, 9)
    assert len(make(7, 9)) == 9


def test_op_count_depends_on_seconds_only():
    # A run's work is fixed, so runs of one seed make and fail the same ops.
    assert op_count("verify-band", 30) == 75
    assert op_count("enumerate-huge", 30) == 57
    assert op_count("verify-band", 1) == MIN_OPS
    # scan-small's windows get dearer along the range: 4x the time, 2x the ops.
    assert op_count("scan-small", 100) == 2 * op_count("scan-small", 25)


def test_scan_windows_are_consecutive():
    ops = WORKLOADS["scan-small"](7, 30)
    assert all(b.lo == a.hi + 1 for a, b in zip(ops, ops[1:]))
    assert ops[0].lo <= 200


def test_every_other_enumerate_op_is_half_wild():
    # The traced run takes every other op.
    half = WORKLOADS["enumerate-huge"](7, 40)[::2]
    assert [op.kind for op in half].count("wild") == 10


def test_own_classification_matches_package():
    spf = spf_sieve(3000)
    for f in range(1, 3001):
        try:
            cond = validate_conductor(f)
            expected = (cond.kind.value, cond.nu)
        except InvalidConductor:
            expected = None
        assert classify(f, spf) == expected, f


def test_closed_form_reproduces_reference_table():
    # Period polynomials of conductor 819 from the package's built-in table.
    table = {-30 * 2 + 3: 1729, 18 * 2 + 15: -1547, -3 * 2 + 30: -728, -18 * 2 + 33: 91}
    for m, constant in table.items():
        assert closed_form(819, "wild", 2, m) == [1, 0, -273, constant]


def test_correct_reports_pass(tmp_path):
    for op in (VERIFY_819, SCAN_1_100, SETUP_OP, replace(SETUP_OP, report_format="md")):
        assert check_report(op, _report(op, tmp_path)) == []


def test_wrong_period_poly_is_rejected(tmp_path):
    report = json.loads(_report(VERIFY_819, tmp_path))
    report["fields"][1]["period_poly"][3] += 1
    problems = check_report(VERIFY_819, json.dumps(report))
    assert any("period_poly" in p for p in problems)


def test_missing_field_is_rejected(tmp_path):
    report = json.loads(_report(VERIFY_819, tmp_path))
    del report["fields"][0]
    assert any("3 fields, expected 4" in p for p in check_report(VERIFY_819, json.dumps(report)))


def test_failed_verdict_is_rejected(tmp_path):
    report = json.loads(_report(VERIFY_819, tmp_path))
    report["fields"][2]["verdicts"]["main_identity"] = False
    assert check_report(VERIFY_819, json.dumps(report))


def test_wrong_markdown_row_is_rejected(tmp_path):
    text = _report(SETUP_OP, tmp_path)  # enumerate 7 as markdown: one field
    assert "| 1 1 -2 -1 |" in text
    assert check_report(SETUP_OP, text.replace("| 1 1 -2 -1 |", "| 1 1 -2 -2 |"))
    assert check_report(SETUP_OP, text.replace("| -1 | 1 |", "| 1 | 1 |"))


def test_wrong_scan_count_is_rejected(tmp_path):
    text = _report(SCAN_1_100, tmp_path)
    assert check_report(replace(SCAN_1_100, expected_conductors=10), text)
    assert check_report(replace(SCAN_1_100, expected_fields=12), text)


def test_failed_ops_are_infinitely_slow_in_the_median():
    ok = [Result(VERIFY_819, t / 1000, 0) for t in range(1, 31)]
    failed = [Result(VERIFY_819, 0.0, 1) for _ in range(20)]
    probes = [PROBE_REFERENCE_S] * 51  # a machine at the reference speed
    metrics, _ = end_to_end(ok + failed, probes, wall=1.0, setup_s=0.1)
    assert metrics["op_p50_ms"][0] == pytest.approx(25.5)
    assert metrics["op_tail_ms"][0] == pytest.approx(20.0)  # p66.7 of the 30 that passed
    assert metrics["ok_ratio"][0] == 30 / 50
    assert tail([1.0, 2.0]) == (1.5, 50.0)


def test_percentiles_average_their_neighbours():
    times = [float(t) for t in range(1, 25)]  # 24 times; the median is 12.5
    times[11], times[12] = 11.0, 14.0  # noise on the two middle ops
    assert median(times) == pytest.approx(12.5)  # mean of the middle 6
    assert median([3.0, 1.0, 2.0]) == 2.0
    # p58.3 with 10 beyond is the 14th value, averaged with 5 on each side.
    assert tail(times)[0] == pytest.approx(sum(times[8:19]) / 11)


def test_op_times_scale_with_the_nearby_probes():
    # The machine drops to half the reference speed during the second op.
    probes = [PROBE_REFERENCE_S] * 2 + [2 * PROBE_REFERENCE_S] * 2
    assert scales(probes) == [1.0, pytest.approx(2 / 3), 0.5]
    # On a machine at half the speed throughout, ops of 0.2 s count as 0.1 s.
    ops = [Result(VERIFY_819, 0.2, 0, conductors=1, fields=4)] * 21
    metrics, _ = end_to_end(ops, [2 * PROBE_REFERENCE_S] * 22, wall=5.0, setup_s=0.1)
    assert metrics["op_p50_ms"][0] == pytest.approx(100.0)
    assert metrics["fields_per_s"][0] == pytest.approx(4 / 0.1)


def test_tracer_spans_and_restore(tmp_path):
    tracer = Tracer("cubicperiods")
    original = cli.verify_report
    result = run_op(cli, VERIFY_819, tmp_path / "r.txt", tracer, op_id=5)
    assert result.ok and cli.verify_report is original
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["periods.primitive_cubic_kernels"]["calls"] == 1
    assert summary["periods.gaussian_periods"]["calls"] == 4
    assert summary["groupring.verify_generators"]["calls"] == 4
    assert 0.5 < summary["coverage"] <= 1.0
    assert tracer.terms == 4 * 3 * (432 // 3)  # 4 kernels of phi(819)/3 residues
    assert {SPAN_NAMES[s[0]] for s in tracer.spans} <= set(SPAN_NAMES)
    assert all(s[4] == 5 for s in tracer.spans)


def test_refuses_to_run_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_field_count():
    assert [field_count("tame", 1), field_count("tame", 3), field_count("wild", 0)] == [1, 4, 1]
