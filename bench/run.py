"""Benchmark of the cubicperiods command line.

Usage (from the repository root):

    python3 bench/run.py --workload {scan-small,verify-band,enumerate-huge}
                         --seed N --seconds S --trace {0,1}

One op is one in-process call of cubicperiods.cli.main(argv) whose report
goes to a file with --out and is then checked by check.py.  S sets the
amount of work, not a deadline: a run makes op_count(workload, S) ops, as
many as took S seconds at the commit that defined the benchmark, so every
run of one seed does the same ops and fails the same ones.  With --trace 0
the run times those ops and prints the end-to-end metrics; with --trace 1
it runs every other one of them, each once untraced and once traced, and
prints the per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  A wrong report from an op that exited 0 prints
no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import check_report, report_residual
from spans import SPAN_NAMES, TERMS, Tracer
from speed import PROBE_REFERENCE_S, scales, speed_probe
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 9
MIN_OPS = 21  # so that op_tail_ms has 10 samples beyond it when all ops pass
TAIL_BEYOND = 10
# Order statistics averaged on each side of a percentile: n // SMOOTH_DIVISOR,
# so op_p50_ms is the mean of the middle sixth of the op times.
SMOOTH_DIVISOR = 12
# How many ops make `seconds` of work, at the speed of the commit that defined
# the benchmark on a 2-core VM with Python 3.11.  verify-band and
# enumerate-huge ops cost the same on average however many a run makes, so
# their count is seconds * rate.  scan-small scans consecutive windows from
# near 1 and a window costs about its position, so its cost grows with the
# square of the count, and the count is sqrt(seconds * rate).
OPS_PER_SECOND = {"verify-band": 2.5, "enumerate-huge": 1.9}
SCAN_OPS_SQUARED_PER_SECOND = 3300
SETUP_OP = Op("enumerate", 7, 7, 7, "tame", 1, 1, 1, "md")

_FAILURE = re.compile(r"verification failure(?: at conductor (\d+))?: (\w+):")


@dataclass
class Result:
    op: Op
    seconds: float
    code: int
    conductors: int = 0
    fields: int = 0
    residual: float = 0.0
    error: str = ""
    failing_conductor: int | None = None
    layer: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


class WrongReport(Exception):
    """An op exited 0 but its report failed the output checker."""


def run_op(cli, op: Op, report: Path, tracer: Tracer | None = None, op_id: int = 0) -> Result:
    """Call cli.main once, time it, and check the report it wrote."""
    report.unlink(missing_ok=True)
    stderr = io.StringIO()
    argv = op.argv(str(report))
    error = ""
    if tracer:
        tracer.install(op_id)
    try:
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a harness error
                code, error = 1, type(exc).__name__
            seconds = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    result = Result(op, seconds, code)
    # Free the cyclic garbage of this op before the next starts, so that
    # every op starts from the same heap and peak_rss_mb is the memory the
    # largest op holds, not what earlier ops happened to leave behind.
    gc.collect()
    if code != 0:
        match = _FAILURE.search(stderr.getvalue())
        result.error = error or (match.group(2) if match else stderr.getvalue().strip()[:80])
        if match and match.group(1):
            result.failing_conductor = int(match.group(1))
        if tracer and op_id in tracer.origin:
            result.layer = tracer.origin[op_id][1]
        return result
    text = report.read_text()
    problems = check_report(op, text)
    if problems:
        raise WrongReport(f"{op.label}: " + "; ".join(problems))
    result.conductors = op.expected_conductors
    result.fields = op.expected_fields
    result.residual = report_residual(op, text)
    return result


def measure_setup() -> float:
    """Median set-up time over fresh interpreters (import + first enumerate),
    each scaled by the speed probes that its interpreter took just before
    and after it.  Probes in this process would not do: the child may run on
    the other core."""
    times = []
    report = OUT / "setup-report.txt"
    for _ in range(SETUP_RUNS):
        report.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *SETUP_OP.argv(str(report))],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or fields[:1] != ["0"] or len(fields) != 4:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        problems = check_report(SETUP_OP, report.read_text())
        if problems:
            raise WrongReport("set-up op: " + "; ".join(problems))
        elapsed, before, after = map(float, fields[1:])
        times.append(elapsed * scales([before, after])[0])
    return statistics.median(times)


def smoothed(ordered: list[float], lo: int, hi: int, k: int) -> float:
    """Mean of ordered[lo - k .. hi + k] (0-based, inclusive, clipped).

    The ops of a run differ in cost, so one order statistic is the time of
    one op and carries all of that op's noise; the mean of its neighbours
    carries less."""
    window = ordered[max(lo - k, 0): hi + k + 1]
    return math.fsum(window) / len(window)


def median(times: list[float]) -> float:
    """The median, as the mean of the middle sixth of the sorted times."""
    ordered = sorted(times)
    n = len(ordered)
    return smoothed(ordered, (n - 1) // 2, n // 2, n // SMOOTH_DIVISOR)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it (the maximum when there are too few samples), averaged with
    TAIL_BEYOND // 2 neighbours on each side."""
    ordered = sorted(times)
    if not ordered:
        return math.inf, 100.0
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return smoothed(ordered, rank - 1, rank - 1, TAIL_BEYOND // 2), 100.0 * rank / n


def op_count(workload: str, seconds: float) -> int:
    """Ops in one untraced run: about `seconds` of work at calibration speed."""
    if workload == "scan-small":
        return max(MIN_OPS, round(math.sqrt(seconds * SCAN_OPS_SQUARED_PER_SECOND)))
    return max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))


def end_to_end(results: list[Result], probes: list[float], wall: float, setup_s: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced run.  probes has one more entry than
    results: a speed probe before every op and one after the last."""
    scaled = [r.seconds * k for r, k in zip(results, scales(probes))]
    # A failed op counts as infinitely slow in the median.  The tail is taken
    # over the ops that passed: with ten or more failures the percentile with
    # ten samples beyond it would be infinite, which JSON cannot carry.
    times = [t if r.ok else math.inf for r, t in zip(results, scaled)]
    passed = [t for r, t in zip(results, scaled) if r.ok]
    tail_s, tail_pct = tail(passed)
    failed = len(results) - len(passed)
    busy = sum(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "conductors_per_s": (sum(r.conductors for r in results) / busy, "1/s"),
        "fields_per_s": (sum(r.fields for r in results) / busy, "1/s"),
        "ok_ratio": (len(passed) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [r.seconds if r.ok else math.inf for r in results]
    notes = [
        f"op_p50_ms is the mean of the middle sixth of {len(results)} ops, "
        f"{failed} failed ones counted infinitely slow",
        f"op_tail_ms is p{tail_pct:.1f} of the {len(passed)} ops that passed",
        f"fail_ratio = {failed}/{len(results)} = {failed / len(results):.4f}",
        f"op times scaled to the reference speed; the machine ran at "
        f"{PROBE_REFERENCE_S / statistics.median(probes):.3f} of it",
        f"unscaled: op_p50_ms {median(raw) * 1e3:.3f}, "
        f"op time {sum(r.seconds for r in results):.3f} s, wall time {wall:.3f} s",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, traced: list[Result], untraced: list[Result]) -> tuple[dict, list[str]]:
    summary = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        entry = summary[name]
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.failures"] = (entry["failures"], "count")
    metrics[f"{TERMS}.terms"] = (tracer.terms, "count")
    metrics["periods.residual_max"] = (max((r.residual for r in traced if r.ok), default=0.0), "abs")
    metrics["trace.coverage"] = (summary["coverage"], "ratio")
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [
        f"over {len(traced)} traced ops",
        f"{TERMS}.terms is computed at the call boundary as 3 x kernel size, "
        "not counted inside the package",
    ]
    if tracer.missing:
        notes.append("not found in the package, reads 0: " + ", ".join(tracer.missing))
    return metrics, notes


def ledger(results: list[Result]) -> list[str]:
    """Failed ops grouped by op, exit code, exception class and layer."""
    groups: dict[tuple, int] = {}
    for r in results:
        if not r.ok:
            where = f" at conductor {r.failing_conductor}" if r.op.conductor is None else ""
            key = (r.op.label + where, r.code, r.error, r.layer)
            groups[key] = groups.get(key, 0) + 1
    lines = []
    for (label, code, error, layer), count in groups.items():
        line = f"  {label}: exit {code} {error}"
        if layer:
            line += f", raised in {layer}"
        lines.append(line + (f" (x{count})" if count > 1 else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubicperiods" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    count = op_count(args.workload, args.seconds)
    setup_s = measure_setup() if args.trace == 0 else 0.0

    sys.path.insert(0, str(SRC))
    from cubicperiods import cli

    report = OUT / "op-report.txt"
    run_op(cli, SETUP_OP, report)  # warm-up: the lazy prime sieve
    if args.trace == 0:
        ops = WORKLOADS[args.workload](args.seed, count)
        results: list[Result] = []
        probes = [speed_probe()]
        start = time.perf_counter()
        for op in ops:
            results.append(run_op(cli, op, report))
            probes.append(speed_probe())
        metrics, notes = end_to_end(results, probes, time.perf_counter() - start, setup_s)
    else:
        tracer = Tracer("cubicperiods")
        traced: list[Result] = []
        untraced: list[Result] = []
        # Every other op of the untraced run: op lists interleave their
        # strata and kinds, so this half covers the same ground.
        for i, op in enumerate(WORKLOADS[args.workload](args.seed, count)[::2]):
            # Alternate which side runs first, so neither gains from the other.
            for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if use_trace:
                    traced.append(run_op(cli, op, report, tracer, i))
                else:
                    untraced.append(run_op(cli, op, report))
        results = traced + untraced
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics, notes = per_layer(tracer, traced, untraced)

    failed = sum(not r.ok for r in results)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} ops attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    # In a traced run only the traced ops know the layer that raised.
    entries = ledger(traced if args.trace else results)
    print(f"failure ledger: {len(entries)} entries")
    for line in entries:
        print(line)
    print(json.dumps({
        "correct": True,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WrongReport as exc:
        print(f"wrong report: {exc}", file=sys.stderr)
        sys.exit(1)
