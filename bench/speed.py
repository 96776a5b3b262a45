"""Speed probe: how fast the machine runs a fixed piece of Python right now.

The benchmark times the probe just before and just after every op, and in
each set-up child just before and just after the timed section, and scales
the time between by PROBE_REFERENCE_S over the mean of the two probes.  The
result is the time the op would have taken on a machine whose probe takes
PROBE_REFERENCE_S.  On a shared VM the speed of one core swings by a third
within a second, and the probes on either side of an op follow those swings.

The probe is the benchmark's own code, so a change to the package does not
move it: a faster package still reads faster.
"""

from __future__ import annotations

import math
import time

# An isqrt search over 4f - 27n^2, the kind of integer loop the package runs.
PROBE_FOUR_F = 4 * 10**13
PROBE_TERMS = 40_000
# Median probe time on a 2-core VM with Python 3.11; any fixed value works.
PROBE_REFERENCE_S = 0.010


def speed_probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    hits = 0
    for n in range(1, PROBE_TERMS):
        square = PROBE_FOUR_F - 27 * n * n
        s = math.isqrt(square)
        if s * s == square:
            hits += 1
    return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Scale of the work timed between probes i and i + 1: the reference
    probe time over the mean of those two probes."""
    return [2 * PROBE_REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
