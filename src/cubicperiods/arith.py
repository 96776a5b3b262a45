"""Integer groundwork: factorization, the Moebius function, conductor checks,
and the coordinates of (Z/f)^x: its CRT components.

A positive integer is the conductor of a cyclic cubic field exactly when it
is either a squarefree product p1*...*pk of primes congruent to 1 mod 3
(tame ramification at 3) or 9 times such a product, possibly empty (wild
ramification).  Everything downstream keys off this classification, so the
validator here is the single entry point that turns a bare integer into a
trusted Conductor value.

factorize splits what trial division leaves by Pollard's p-1 method (J. M.
Pollard, "Theorems on factorization and primality testing", Proc.
Cambridge Philos. Soc. 76 (1974)), with Montgomery's paired stage-2
continuation (P. L. Montgomery, "Speeding the Pollard and elliptic curve
methods of factorization", Math. Comp. 48 (1987)), and then by Brent's
rho.  Every odd prime p of a conductor is 1 mod 3, so 6 divides p - 1 and
p - 1 is smooth more often than for a random number of its size.  Of 384
two-prime conductors in 10^12..10^14 (primes above 10^6), stage 1 splits
122 (9 of them only one prime power at a time) and stage 2 199, and 63
are left to rho; factorize takes 0.49 times the time of rho alone on them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from typing import NamedTuple

from .errors import InvalidConductor

# factorize trial-divides only below this bound; larger factors are found
# by Pollard p-1 (see _PM1_B1) or by Brent's rho, whose cost grows with the
# square root of the factor rather than with the number of primes below
# it: like sqrt(p / 5) for a factor p = 1 mod 6, as every prime of a
# conductor but 3 is, and like sqrt(p) for p = 5 mod 6 (see _brent_rho).
_TRIAL_BOUND = 1000
# Differences multiplied together per gcd in Brent's rho.  The gcd that
# finds a factor comes half a batch after the step that met it, on
# average: over 240 two-prime conductors in 10^12..10^14 rho alone takes
# 1015 steps at 32 and 1073 at 128 in the mean, and on the 39 of them that
# p-1 leaves to rho 1136 and 1196; one gcd per 32 steps still costs little.
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
# them to Miller-Rabin, p-1 and rho.
_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)

# Pollard p-1 finds a prime p when p - 1 is B1-smooth but for one prime
# factor up to B2.  Stage 1 raises 2 to lcm(1, ..., B1), the product of the
# largest powers of the primes up to B1 (354 bits; built in integers, as
# math.log(243, 3) is 4.999...).  Stage 2 is Montgomery's pairing: for a
# giant step v*D and a baby step u < D/2 prime to D, b^((vD)^2) - b^(u^2)
# is divisible by p when the order of b mod p divides (vD)^2 - u^2 =
# (vD - u)(vD + u).  A prime s in (B1, B2] is prime to D (s > 7), so for v
# the nearest integer to s/D it is vD +- u with u < D/2 prime to D: the
# pairs with v = 1 .. (B2 + D/2) // D cover every such s, and one product
# covers both vD - u and vD + u.  B2 and D are the measured best: on the
# 384 conductors above, factorize took 0.92, 0.77, 0.70, 0.73, 0.73 and
# 0.80 times the time it took with stage 2 prime by prime to 1000, at B2 =
# 1000, 3000, 10^4, 2*10^4, 3*10^4 and 5*10^4 (D = 210), and D = 90, 150,
# 420 and 630 were 3%, 3%, 8% and 22% slower than D = 210 at B2 = 10^4.
_PM1_B1 = 250
_PM1_EXPONENT = math.lcm(*range(1, _PM1_B1 + 1))
_PM1_B2 = 10**4
# Of the 48 x 24 pair terms, 272 have neither vD - u nor vD + u a prime in
# (B1, 10183].  Skipping them saved 1-4% of p-1's time on the 960
# enumerate-huge cofactors of bench seeds 1-20 (2-6% on the 163 it does not
# split; 3 x 10 alternated passes) and lost 1071991 * 1445467, so they stay.
_PM1_D = 210
# factorize tries p-1 only on a cofactor at least this large, the measured
# break-even.  A p-1 that splits nothing costs about 0.33 ms from 10^11 to
# 10^16 (0.1 ms with stage 2 to 1000), while rho finds a small prime in a
# few dozen steps.  Against rho alone, on 200 seeded two-prime cofactors
# of primes = 1 mod 3 per half decade, p-1 to 1000 took 1.24x the time in
# 10^10..10^10.5 and 0.99x in 10^11..10^11.5 when the smaller prime was
# log-uniform above 1000.  On 150 such cofactors per decade, interleaved,
# factorize with p-1 to 10^4 took 0.94, 0.88, 0.81, 0.99, 0.81, 0.86,
# 0.81, 0.81 and 0.83 times its time with p-1 to 1000 in the decades from
# 10^11 to 10^19, and 1.00 below the gate (2-core Xeon VM, Python
# 3.11.7), so the gate stands.
_PM1_MIN = 10**11


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


def _pollard_pm1(n: int) -> int | None:
    """A proper factor of an odd composite n by Pollard's p-1 method with
    bounds _PM1_B1 and _PM1_B2, or None when neither stage splits n.

    Stage 1 takes b = 2^_PM1_EXPONENT mod n and gcd(b - 1, n).  A gcd of n
    means every prime of n was found at once; b is then raised again from 2
    one prime power at a time, with a gcd after each.  Stage 2 walks the
    giant steps G = b^((vD)^2), two products each, and takes the gcd of
    the product of G - b^(u^2) over the baby steps u at each one; a gcd of
    n is taken apart term by term.  None when one step still gives n.
    """
    b = pow(2, _PM1_EXPONENT, n)
    g = math.gcd(b - 1, n)
    if g == n:
        b = 2
        for p in _TRIAL_PRIMES[: bisect.bisect_right(_TRIAL_PRIMES, _PM1_B1)]:
            # the power of p in the exponent
            b = pow(b, math.gcd(_PM1_EXPONENT, p**_PM1_B1), n)
            if (g := math.gcd(b - 1, n)) != 1:
                break
    if g != 1:
        return g if g < n else None
    # the baby steps b^(u^2) by (u + 2)^2 - u^2 = 4u + 4, and the giant
    # steps b^((vD)^2) by (v + 1)^2 - v^2 = 2v + 1
    d8 = pow(b, 8, n)
    baby, h, dh = [], b, d8
    for u in range(1, _PM1_D // 2, 2):
        if math.gcd(u, _PM1_D) == 1:
            baby.append(h)
        h = h * dh % n
        dh = dh * d8 % n
    giant = pow(b, _PM1_D * _PM1_D, n)
    ratio, square = pow(giant, 3, n), giant * giant % n
    for _ in range((_PM1_B2 + _PM1_D // 2) // _PM1_D):
        g = math.gcd(math.prod(map(giant.__sub__, baby)) % n, n)
        if g != 1:
            proper = (d for x in baby if 1 < (d := math.gcd(giant - x, n)) < n)
            return g if g < n else next(proper, None)
        giant = giant * ratio % n
        ratio = ratio * square % n
    return None


def _trial_divide(m: int) -> tuple[dict[int, int], int]:
    """The prime powers of m below _TRIAL_BOUND, by trial division in
    ascending order, and the cofactor left, which stops at the first p with
    p^2 above it: every prime of the cofactor exceeds every prime found."""
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    return found, m


def factorize(m: int, trial: tuple | None = None) -> tuple[tuple[int, int], ...]:
    """The prime factorization of m as its (prime, exponent) pairs, sorted
    by prime; () for m = 1.  Trial division by the primes below
    _TRIAL_BOUND, then Miller-Rabin on what is left, and on a composite
    cofactor Pollard p-1 when it is at least _PM1_MIN and Brent's rho when
    p-1 is not tried or does not split it.  trial, when given, is
    _trial_divide(m), which the caller has already run.

    A cofactor below _TRIAL_BOUND^2 with no prime factor below the bound is
    prime, so small m never reach Miller-Rabin.  A cofactor at or above
    MR_BOUND that passes Miller-Rabin raises ValueError, since the test
    proves nothing there.  m is taken by operator.index: a float such as
    7.0, or a str, raises TypeError.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("factorize requires a positive integer")
    value = m
    found, m = _trial_divide(m) if trial is None else trial
    found = dict(found)
    stack = [m] if m > 1 else []
    while stack:
        q = stack.pop()
        if q < _TRIAL_BOUND * _TRIAL_BOUND or is_probable_prime(q):
            if q >= MR_BOUND:
                raise ValueError(f"{q} is not below {MR_BOUND}, where primality is proven")
            found[q] = found.get(q, 0) + 1
            continue
        d = (q >= _PM1_MIN and _pollard_pm1(q)) or _brent_rho(q)
        stack.append(d)
        stack.append(q // d)
    factors = tuple(sorted(found.items()))
    if math.prod(p**e for p, e in factors) != value:
        raise ValueError("factor product does not equal value")
    return factors


def moebius(m: int) -> int:
    """Moebius function: 0 unless m is squarefree, else (-1)^(number of
    primes).  A non-integer m raises TypeError, as in factorize."""
    m = operator.index(m)
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
        return -1 if len(self.odd_primes) % 2 else 1

    @property
    def field_count(self) -> int:
        """Number of cyclic cubic fields of conductor f: 2^(nu-1) tame, 2^nu wild."""
        nu = len(self.odd_primes)
        return 2**nu if self.value % 9 == 0 else 2 ** (nu - 1)


def _require_below_mr_bound(f: int) -> None:
    if f >= MR_BOUND:
        raise InvalidConductor(
            f"{f} is not below {MR_BOUND}, the bound up to which primality is proven"
        )


def _refuse_factors(f: int, factors) -> None:
    """Raise InvalidConductor for the first of the (prime, exponent) pairs
    of f, in ascending order of prime, that no conductor has: a 3-part
    other than 1 or 9 first, then a square, then a prime = 2 mod 3."""
    three_part = dict(factors).get(3, 0)
    if three_part not in (0, 2):
        raise InvalidConductor(
            f"the 3-part of {f} is 3^{three_part}; it must be 1 or 9"
        )
    for p, e in factors:
        if p == 3:
            continue
        if e > 1:
            raise InvalidConductor(f"{f} is not squarefree away from 9 ({p}^{e} divides it)")
        if p % 3 != 1:
            raise InvalidConductor(f"prime factor {p} of {f} is congruent to 2 mod 3")


def validate_conductor(f: int) -> Conductor:
    """Classify f as a tame or wild conductor, or raise InvalidConductor.

    The only accepted shapes are p1*...*pk (k >= 1) and 9*p1*...*pk
    (k >= 0) with distinct primes pi = 1 mod 3.  In particular f = 9 is
    accepted (the wild case with no odd primes) while f = 1 is not, and
    a value that is not an integer, such as 7.0 or "7", is refused.

    The prime powers that trial division finds are checked before the
    cofactor is split: every prime of the cofactor is larger, and one found
    above 3 means the 3-part was found whole, so a refusal there is the one
    that the whole factorization gives.
    """
    try:
        f = operator.index(f)
    except TypeError:
        raise InvalidConductor(f"{f!r} is not an integer") from None
    if f < 1:
        raise InvalidConductor(f"{f} is not a positive integer")
    _require_below_mr_bound(f)
    if f % 2 == 0:
        raise InvalidConductor(f"{f} is even")
    trial = _trial_divide(f)
    _refuse_factors(f, trial[0].items())
    factors = factorize(f, trial)
    _refuse_factors(f, factors)
    odd_primes = [p for p, _ in factors if p != 3]
    three_part = dict(factors).get(3, 0)
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
