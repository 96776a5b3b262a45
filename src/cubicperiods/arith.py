"""Integer groundwork: factorization, the Moebius function, conductor checks,
and the coordinates of (Z/f)^x: its CRT components.

A positive integer is the conductor of a cyclic cubic field exactly when it
is either a squarefree product p1*...*pk of primes congruent to 1 mod 3
(tame ramification at 3) or 9 times such a product, possibly empty (wild
ramification).  Everything downstream keys off this classification, so the
validator here is the single entry point that turns a bare integer into a
trusted Conductor value.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .errors import InvalidConductor

# factorize trial-divides only below this bound; larger factors are found
# by Brent's rho, whose cost grows with the square root of the factor
# rather than with the number of primes below it: like sqrt(p / 5) for a
# factor p = 1 mod 6, as every prime of a conductor but 3 is, and like
# sqrt(p) for p = 5 mod 6 (see _brent_rho).
_TRIAL_BOUND = 1000
# Differences multiplied together per gcd in Brent's rho.  The gcd that
# finds a factor comes half a batch after the step that met it, on
# average: over 240 two-prime conductors in 10^12..10^14 rho takes 1015
# steps at 32 and 1073 at 128 in the mean, and one gcd per 32 steps still
# costs little.
_RHO_BATCH = 32

# Miller-Rabin to the first k primes as bases is deterministic below psi_k,
# the least strong pseudoprime to all of them (OEIS A014233; psi_12 and
# psi_13 are due to Sorenson and Webster 2015).  _MR_PSI holds psi_1 to
# psi_12, and is_probable_prime takes the first k bases for n < psi_k,
# all 13 up to psi_13 = MR_BOUND.  validate_conductor refuses anything
# larger.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray(b"\x01") * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return tuple(itertools.compress(range(n), sieve))


# The only primes the package tabulates: factorize hands what is left after
# them to Miller-Rabin and rho.
_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MR_BOUND, with the first k primes
    as bases for the least k such that n < psi_k."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect.bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n: Brent's variant of Pollard
    rho on y -> y^6 + c from y = 2, multiplying _RHO_BATCH differences mod
    n before each gcd and stepping back one at a time when a batch
    overshoots to n; c = 1, 2, ... in turn, so the result is deterministic.

    The map is y^6 + c rather than y^2 + c because every odd prime of a
    conductor is 1 mod 6.  For a prime p the map y -> y^(2k) + c is
    g-to-one on the units mod p, g = gcd(2k, p - 1), and Brent and Pollard
    ("Factorization of the eighth Fermat number", Math. Comp. 36 (1981))
    show that rho then takes about sqrt(g - 1) times fewer steps to find p:
    sqrt(5) times fewer for y^6 + c and p = 1 mod 6.  For p = 5 mod 6, g is
    2 and nothing is gained, while each step costs one product more.
    """
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = y * y * y % n
                y = (y * y + c) % n
            done = 0
            while done < r and d == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - done)):
                    y = y * y * y % n
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                done += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                saved = saved * saved * saved % n
                saved = (saved * saved + c) % n
                d = math.gcd(x - saved, n)
        if d != n:
            return d
        c += 1


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of m as its (prime, exponent) pairs, sorted
    by prime; () for m = 1.  Trial division by the primes below
    _TRIAL_BOUND, then Miller-Rabin and Brent's rho on what is left.

    A cofactor below _TRIAL_BOUND^2 with no prime factor below the bound is
    prime, so small m never reach Miller-Rabin.  A cofactor at or above
    MR_BOUND that passes Miller-Rabin raises ValueError, since the test
    proves nothing there.
    """
    if m < 1:
        raise ValueError("factorize requires a positive integer")
    value = m
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        q = stack.pop()
        if q < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(q):
            if q >= MR_BOUND:
                raise ValueError(f"{q} is not below {MR_BOUND}, where primality is proven")
            found[q] = found.get(q, 0) + 1
            continue
        d = _brent_rho(q)
        stack.append(d)
        stack.append(q // d)
    factors = tuple(sorted(found.items()))
    if math.prod(p**e for p, e in factors) != value:
        raise ValueError("factor product does not equal value")
    return factors


def moebius(m: int) -> int:
    """Moebius function: 0 unless m is squarefree, else (-1)^(number of primes)."""
    if m < 1:
        raise ValueError("moebius requires a positive integer")
    factors = factorize(m)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


# The kinds of conductor by the ramification of 3, "tame" and "wild", each
# with the residue class (r, m) that holds every conductor of that kind.
KINDS = {"tame": (1, 6), "wild": (9, 54)}


class Conductor(NamedTuple):
    """A validated conductor.  The constructor checks nothing;
    validate_conductor checks the fields against the value.  Its kind
    follows from the value: wild when 9 divides it, tame otherwise."""

    value: int
    odd_primes: tuple[int, ...]

    @property
    def nu(self) -> int:
        """Number of primes of f other than 3."""
        return len(self.odd_primes)

    @property
    def is_wild(self) -> bool:
        return self.value % 9 == 0

    @property
    def kind(self) -> str:
        """Ramification of 3 in the field: "wild" or "tame"."""
        return "wild" if self.is_wild else "tame"

    @property
    def mu(self) -> int:
        """Moebius value of the closed form: mu(f) when tame, mu(f/9) when wild.

        The odd part of a conductor is a product of nu distinct primes, so
        this is (-1)^nu.
        """
        return (-1) ** self.nu

    @property
    def field_count(self) -> int:
        """Number of cyclic cubic fields of conductor f: 2^(nu-1) tame, 2^nu wild."""
        return 2**self.nu if self.is_wild else 2 ** (self.nu - 1)


def _require_below_mr_bound(f: int) -> None:
    if f >= MR_BOUND:
        raise InvalidConductor(
            f"{f} is not below {MR_BOUND}, the bound up to which primality is proven"
        )


def validate_conductor(f: int) -> Conductor:
    """Classify f as a tame or wild conductor, or raise InvalidConductor.

    The only accepted shapes are p1*...*pk (k >= 1) and 9*p1*...*pk
    (k >= 0) with distinct primes pi = 1 mod 3.  In particular f = 9 is
    accepted (the wild case with no odd primes) while f = 1 is not.
    """
    if f < 1:
        raise InvalidConductor(f"{f} is not a positive integer")
    _require_below_mr_bound(f)
    if f % 2 == 0:
        raise InvalidConductor(f"{f} is even")
    factors = factorize(f)
    three_part = dict(factors).get(3, 0)
    if three_part not in (0, 2):
        raise InvalidConductor(
            f"the 3-part of {f} is 3^{three_part}; it must be 1 or 9"
        )
    odd_primes = []
    for p, e in factors:
        if p == 3:
            continue
        if e > 1:
            raise InvalidConductor(f"{f} is not squarefree away from 9 ({p}^{e} divides it)")
        if p % 3 != 1:
            raise InvalidConductor(f"prime factor {p} of {f} is congruent to 2 mod 3")
        odd_primes.append(p)
    if three_part == 0 and not odd_primes:
        raise InvalidConductor("1 is not a conductor")
    if math.prod(odd_primes) * 3**three_part != f:
        raise ValueError("inconsistent Conductor fields")
    return Conductor(f, tuple(odd_primes))


def _component_moduli(f: Conductor) -> list[int]:
    """The CRT components of f in ascending order: each odd prime, and 9 when wild."""
    comps = list(f.odd_primes)
    if f.is_wild:
        comps.append(9)
    return sorted(comps)


def conductors_up_to(
    bound: int, kind: str | None = None, start: int = 1
) -> list[Conductor]:
    """All valid conductors in [start, bound] in ascending order, of both
    kinds when kind is None, else of kind "tame" or "wild"; any other kind
    raises ValueError.

    A product of primes = 1 mod 3 is 1 mod 6, so a tame conductor is 1 mod
    6 and a wild one 9 mod 54; only those candidates are validated, from
    max(start, 1).  A bound at or above MR_BOUND raises InvalidConductor, as
    validate_conductor does.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    _require_below_mr_bound(bound)
    if kind is not None and kind not in KINDS:
        raise ValueError(f"{kind!r} is not a kind of conductor")
    # Imported here, as only scan lists conductors.
    import heapq

    start = max(start, 1)
    classes = KINDS.values() if kind is None else [KINDS[kind]]
    candidates = heapq.merge(
        *(range(start + (r - start) % m, bound + 1, m) for r, m in classes)
    )
    out = []
    for f in candidates:
        try:
            out.append(validate_conductor(f))
        except InvalidConductor:
            continue
    return out
