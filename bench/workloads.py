"""Seeded op lists for the three benchmark workloads.

Every op is one `cubicperiods` command line plus what the benchmark expects
its report to contain, computed here without the package: conductor
classification comes from this module's own smallest-prime-factor sieve and
Miller-Rabin test, so the output checker never trusts the code it checks.

Each workload makes exactly the op count it is asked for, and spreads its ops
evenly over its input space, so that the mix of cheap and expensive ops
hardly depends on the seed, and every other op covers the same ground.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SCAN_WIDTH = 39
SCAN_START_LIMIT = 200

BAND_LOW, BAND_HIGH = 20_000, 130_000

HUGE_PRIME_FLOOR = 10**6
HUGE_LOG10_RANGE = {"tame": (12.0, 13.99), "wild": (13.0, 13.99)}


@dataclass(frozen=True)
class Op:
    """One command line and the report it must produce if it exits 0.

    For `scan`, `conductor` is None and the expectations cover the window
    [lo, hi]; otherwise lo == hi == conductor.
    """

    command: str
    lo: int
    hi: int
    conductor: int | None
    kind: str | None
    nu: int | None
    expected_conductors: int
    expected_fields: int
    report_format: str

    def argv(self, out: str) -> list[str]:
        if self.command == "scan":
            target = ["--min", str(self.lo), "--max", str(self.hi)]
        else:
            target = ["--conductor", str(self.conductor)]
        return [self.command, *target, "--format", self.report_format, "--out", out]

    @property
    def label(self) -> str:
        if self.conductor is None:
            return f"window [{self.lo}, {self.hi}]"
        return f"conductor {self.conductor} ({self.kind}, nu={self.nu})"


def field_count(kind: str, nu: int) -> int:
    """Number of cyclic cubic fields of a conductor: 2^(nu-1) tame, 2^nu wild."""
    return 2 ** (nu - 1) if kind == "tame" else 2**nu


def spf_sieve(limit: int) -> list[int]:
    """Smallest prime factor of every integer up to limit."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def classify(f: int, spf: list[int]) -> tuple[str, int] | None:
    """(kind, nu) when f is a cyclic cubic conductor, else None.

    Conductors are squarefree products of primes = 1 mod 3 (tame), or 9
    times such a product, possibly empty (wild).
    """
    if f < 2 or f % 2 == 0:
        return None
    kind = "tame"
    if f % 3 == 0:
        if f % 9 or (f // 9) % 3 == 0:
            return None
        f //= 9
        kind = "wild"
    nu = 0
    while f > 1:
        p = spf[f]
        f //= p
        if f % p == 0 or p % 3 != 1:
            return None
        nu += 1
    if kind == "tame" and nu == 0:
        return None
    return kind, nu


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_1mod3(n: int) -> int:
    """Smallest prime p >= n with p = 1 mod 3 (such primes are 1 mod 6)."""
    p = n + (1 - n) % 6
    while not is_prime(p):
        p += 6
    return p


def scan_small(seed: int, count: int) -> list[Op]:
    """`count` consecutive windows of SCAN_WIDTH integers, scanned as CSV,
    from a seeded start below SCAN_START_LIMIT.

    The windows cover their range without gaps, so every seed scans nearly
    the same integers: a window costs about its position, and windows drawn
    at random would make the cost of a run depend on the seed."""
    start = 1 + random.Random(seed).randrange(SCAN_START_LIMIT)
    spf = spf_sieve(start + count * SCAN_WIDTH)
    ops = []
    for w in range(count):
        lo = start + w * SCAN_WIDTH
        hi = lo + SCAN_WIDTH - 1
        found = [c for c in (classify(f, spf) for f in range(lo, hi + 1)) if c]
        ops.append(
            Op("scan", lo, hi, None, None, None, len(found),
               sum(field_count(*c) for c in found), "csv")
        )
    return ops


def verify_band(seed: int, count: int) -> list[Op]:
    """One conductor per op from 2*10^4..1.3*10^5, half tame and half wild:
    the middle conductor of each of (count + 1) // 2 strata of equal
    conductor count per kind, in a seeded order.

    Each kind's conductors are sorted by (nu, f) before they are cut into
    strata, so a stratum holds one nu over a narrow range of f: the cost of a
    verify grows with f times the number of fields.  The seed orders the ops
    but does not draw them.  The false RoundingFailures of the package are
    scattered over the upper band, so a seeded draw would change how many
    ops fail by a fifth from seed to seed, and with it every timing; this
    way every run attempts, and fails, the same conductors.
    """
    spf = spf_sieve(BAND_HIGH)
    pools: dict[str, list[tuple[int, int]]] = {"tame": [], "wild": []}
    for f in range(BAND_LOW, BAND_HIGH + 1):
        c = classify(f, spf)
        if c:
            pools[c[0]].append((f, c[1]))
    for pool in pools.values():
        pool.sort(key=lambda entry: (entry[1], entry[0]))
    strata = (count + 1) // 2
    ops = []
    for s in range(strata):
        for kind, pool in pools.items():
            f, nu = pool[(2 * s + 1) * len(pool) // (2 * strata)]
            ops.append(
                Op("verify", f, f, f, kind, nu, 1, field_count(kind, nu), "json")
            )
    ops = ops[:count]
    random.Random(seed).shuffle(ops)
    return ops


def enumerate_huge(seed: int, count: int) -> list[Op]:
    """Conductors p*q (tame) or 9*p*q (wild) in 10^12..10^14 with primes
    p < q above the 10^6 sieve of the package, log-uniform within
    (count + 1) // 2 strata per kind."""
    rng = random.Random(seed)
    strata = (count + 1) // 2
    ops = []
    kinds = (("tame", 1), ("wild", 9))
    for s in range(strata):
        # Alternate which kind comes first, so every other op is half wild.
        for kind, mult in kinds if s % 2 == 0 else kinds[::-1]:
            lo, hi = HUGE_LOG10_RANGE[kind]
            target = 10 ** (lo + (hi - lo) * (s + rng.random()) / strata) / mult
            p_max = math.sqrt(target)
            p = next_prime_1mod3(
                int(HUGE_PRIME_FLOOR * (p_max / HUGE_PRIME_FLOOR) ** rng.random())
            )
            q = next_prime_1mod3(max(p + 1, math.ceil(target / p)))
            f = mult * p * q
            ops.append(Op("enumerate", f, f, f, kind, 2, 1, field_count(kind, 2), "md"))
    return ops[:count]


WORKLOADS = {
    "scan-small": scan_small,
    "verify-band": verify_band,
    "enumerate-huge": enumerate_huge,
}
