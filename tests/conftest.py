import functools
import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import pytest

from cubicperiods import (
    FactorizationMismatch,
    GeneratorFailure,
    RationalCubic,
    conductors_up_to,
    factorize,
    match_fields,
    moebius,
    substitute_affine,
)
from cubicperiods.arith import _component_moduli, _primes_below, is_probable_prime
from cubicperiods.eisenstein import (
    UNITS,
    ZETA,
    ZETA_SQ,
    EisensteinInt,
    _prime_element,
    cornacchia_element,
    primary_associate,
)
from cubicperiods.periods import PrimeRecord, jacobi_sum

BOUND = 10_000


def sieve_moebius(limit: int) -> list[int]:
    """Independent linear-sieve oracle for the Moebius function."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    spf = [0] * (limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if p > spf[i] or i * p > limit:
                break
            spf[i * p] = p
            mu[i * p] = 0 if i % p == 0 else -mu[i]
    return mu


def validate_by_factorization(f: int) -> tuple[int, ...] | str:
    """Oracle: validate_conductor as it was before it refused on trial
    division alone.  The odd primes of the conductor f, or the message of
    the InvalidConductor it raises, read off the whole factorization of f:
    the 3-part first, then the first prime, in ascending order, that is
    squared or 2 mod 3.  f is odd, positive and below MR_BOUND."""
    factors = factorize(f)
    three_part = dict(factors).get(3, 0)
    if three_part not in (0, 2):
        return f"the 3-part of {f} is 3^{three_part}; it must be 1 or 9"
    odd_primes = []
    for p, e in factors:
        if p == 3:
            continue
        if e > 1:
            return f"{f} is not squarefree away from 9 ({p}^{e} divides it)"
        if p % 3 != 1:
            return f"prime factor {p} of {f} is congruent to 2 mod 3"
        odd_primes.append(p)
    if three_part == 0 and not odd_primes:
        return "1 is not a conductor"
    return tuple(odd_primes)


@functools.lru_cache(maxsize=None)
def generator(q: int) -> tuple[int, int]:
    """Oracle: the smallest generator of the cyclic group (Z/qZ)^x for q
    prime or q = 9, with the order of that group."""
    order = 6 if q == 9 else q - 1
    prime_divisors = [p for p, _ in factorize(order)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // p, q) != 1 for p in prime_divisors):
            return g, order
    raise ValueError(f"no generator mod {q}")


def generator_omega(p: int) -> int:
    """Oracle: omega = g^((p-1)/3) mod p at the smallest generator g mod a
    prime p = 1 mod 3, so that chi_p(g) = zeta3 for the character chi_p
    that omega names: the labels of the oracles that count at g."""
    return pow(generator(p)[0], (p - 1) // 3, p)


@functools.lru_cache(maxsize=None)
def generator_record(p: int) -> PrimeRecord:
    """The record of periods.prime_records for a prime p = 1 mod 3, at
    omega = generator_omega(p) in place of the package's omega_p."""
    omega = generator_omega(p)
    return PrimeRecord(omega, cornacchia_element(p, omega), *jacobi_sum(p, omega))


def generator_primes(cond) -> dict[int, PrimeRecord]:
    """Each odd prime p of the conductor mapped to generator_record(p), so
    that kernels and characters are labelled at the smallest generators."""
    return {p: generator_record(p) for p in cond.odd_primes}


# The count reads the primes below isqrt(p) + 1 <= 3163 for a prime p below
# COUNT_BOUND, and is asked for no larger p.
COUNT_BOUND = 10_000_000
COUNT_PRIME_BOUND = 4096
COUNT_PRIMES = _primes_below(COUNT_PRIME_BOUND)

# Byte maps over the index table: _ADD[e] adds e mod 3 to an index 0, 1 or 2.
_ADD = tuple(bytes((x + e) % 3 for x in range(256)) for e in range(3))


def index_table(p: int) -> bytearray:
    """ind_g(a) mod 3 at index a, 1 <= a < p, for the smallest generator g
    mod p, a prime = 1 mod 3.

    Below s = isqrt(p) + 1 the index is additive over the factorization of
    a: each prime l < s adds its index e_l, read off l^((p-1)/3) against
    omega = g^((p-1)/3), to the multiples of l, l^2, ... below s.  Every a
    above that lies in a block p/(k+1) < a <= (p-1)/k with k < s, where
    0 < p - k*a < a and ind(a) = ind(p - k*a) - ind(k), because -1 has index
    (p-1)/2 = 0 mod 3.  Filling the blocks in ascending order, each is one
    strided slice of the table read backwards, shifted by -ind(k) unless
    that is 0.
    """
    s = math.isqrt(p) + 1
    if s > COUNT_PRIME_BOUND:
        raise ValueError(
            f"the index table mod {p} needs the primes below {s}, beyond the "
            f"prime table's bound {COUNT_PRIME_BOUND}"
        )
    g, _ = generator(p)
    k = (p - 1) // 3
    omega = pow(g, k, p)
    index_of = {1: 0, omega: 1, omega * omega % p: 2}
    table = bytearray(p)
    for ell in COUNT_PRIMES:
        if ell >= s:
            break
        e = index_of[pow(ell, k, p)]
        power = ell
        while e and power < s:
            table[power:s:power] = table[power:s:power].translate(_ADD[e])
            power *= ell
    for m in range(s - 1, 0, -1):
        lo, hi = p // (m + 1) + 1, (p - 1) // m
        block = table[p - m * lo : p - m * hi - 1 : -m]
        table[lo : hi + 1] = block.translate(_ADD[-table[m] % 3]) if table[m] else block
    return table


def jacobi_by_count(p: int) -> EisensteinInt:
    """Oracle: J(chi, chi) = sum over 2 <= a < p of chi(a) * chi(1 - a),
    counted in O(p) byte work from the index table.

    With n_k the number of a whose indices at a and at 1 - a = p + 1 - a
    add up to k mod 3, J = n0 + n1*zeta3 + n2*zeta3^2.  The terms of a and
    1 - a are equal, so only the a below h = (p + 1)/2 are summed, and
    doubled; h is its own partner and adds 1 to the class 2*ind(h).  The
    bytes of the index table from 2 to h - 1 read little-endian and those
    from p - 1 down to h + 1 read big-endian add up, byte by byte and
    without carries, to the sums s = ind(a) + ind(1 - a) in 0..4.  Of those,
    s = 1 or 4 is class 1 and s = 2 is class 2, so both counts are
    popcounts of the low three bit planes of the sum and of the AND of the
    first two, which marks s = 3.  Unchecked: the norm and the congruence
    are left to the caller.
    """
    table = index_table(p)
    h = (p + 1) // 2
    sums = int.from_bytes(table[2:h], "little") + int.from_bytes(table[h + 1 :], "big")
    ones = int.from_bytes(b"\x01" * (h - 2), "little")
    threes = (sums & (sums >> 1) & ones).bit_count()
    n1 = 2 * ((sums & ones).bit_count() - threes + ((sums >> 2) & ones).bit_count())
    n2 = 2 * (((sums >> 1) & ones).bit_count() - threes)
    middle = 2 * table[h] % 3
    n1 += middle == 1
    n2 += middle == 2
    n0 = p - 2 - n1 - n2
    return EisensteinInt(n0 - n2, n1 - n2)


# The proof checker: a group law of y^2 = x^3 + B over F_p and a
# Miller-Rabin test of its own, with which each proof of
# periods.certified_trace is re-checked, and on which the baby-step
# giant-step oracle below runs.

POINT_TRIES = 32


def curve_points(p: int):
    """(x, P, sign) for x = 1, 2, ... with s = x^3 - 432 nonzero mod p, in
    the form of periods._points: P = (s*x, s^2) on Y^2 = X^3 - 432*s^3, the
    twist of E: y^2 = x^3 - 432 by s, and sign the Legendre symbol of s."""
    for x in itertools.count(1):
        s = (x**3 - 432) % p
        if s:
            yield x, (s * x % p, s * s % p), 1 if pow(s, (p - 1) // 2, p) == 1 else -1


def point_sum(P, Q, p: int):
    """P + Q on a curve y^2 = x^3 + B over F_p, None the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if (x1 - x2) % p:
        slope = (y2 - y1) * pow(x2 - x1, -1, p)
    elif (y1 + y2) % p:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, p)
    else:
        return None
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def ladder_add(P, Q, p: int):
    """P + Q on a curve y^2 = x^3 + B over F_p: the step that periods._mul
    makes inline, with the same branches (the x compared as integers), kept
    as the ladder's oracle."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 != x2:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    elif (y1 + y2) % p:
        slope = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        return None
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def point_multiple(k: int, P, p: int):
    """k*P for k >= 0, summing the doublings of P at the set bits of k,
    from the lowest bit up."""
    R = None
    while k:
        if k & 1:
            R = point_sum(R, P, p)
        k >>= 1
        if k:
            P = point_sum(P, P, p)
    return R


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k prime bases, for k = 4,
# 7 and 13: below it those k bases prove n prime (G. Jaeschke, Math. Comp.
# 61, 1993; J. Sorenson and J. Webster, Math. Comp. 86, 2017).
MR_PSI = (
    (3_215_031_751, 4),
    (341_550_071_728_321, 7),
    (3_317_044_064_679_887_385_961_981, 13),
)


def miller_rabin(n: int) -> bool:
    """Whether n < psi_13 is prime, by the strong test to as many of
    MR_BASES as MR_PSI asks for."""
    if n < 2 or any(n % a == 0 for a in MR_BASES):
        return n in MR_BASES
    k = next((k for psi, k in MR_PSI if n < psi), None)
    if k is None:
        raise ValueError(f"{n} is beyond psi_13, where the bases prove nothing")
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MR_BASES[:k]:
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


def refute_trace_proof(p: int, t: int, proof) -> str | None:
    """The first claim of a proof (x, sign, n, prime powers) of
    periods.certified_trace that t = Tr J(chi, chi) mod p which fails, or
    None when every claim holds: p is a prime = 1 mod 3; t^2 <= 4p and
    t = -(p + 1) mod 9; the sign is the Legendre symbol of s = x^3 - 432;
    P = (s*x, s^2) lies on Y^2 = X^3 - 432*s^3; n = p + 1 + sign*t; the
    q are distinct primes with q^e || n; n*P = O, which each q-part
    checks on the way; and lcm(d, 9)^2 > 16p for the product d of the
    q-parts of ord(P), where the q-part is the order of (n/q^e)*P.  Then n
    is the order of the group of P, the one number of its class mod
    lcm(d, 9) within 2*sqrt(p) of p + 1."""
    x, sign, n, prime_powers = proof
    if p % 3 != 1 or not miller_rabin(p):
        return "p is not a prime = 1 mod 3"
    if t * t > 4 * p or (p + 1 + t) % 9:
        return "t is not in Hasse's interval and -(p + 1) mod 9"
    s = (x**3 - 432) % p
    if s == 0 or pow(s, (p - 1) // 2, p) != sign % p:
        return "the sign is not the Legendre symbol of x^3 - 432"
    P = s * x % p, s * s % p
    if (P[1] ** 2 - P[0] ** 3 + 432 * s**3) % p:
        return "the point is not on its curve"
    if n != p + 1 + sign * t:
        return "n is not p + 1 + sign*t"
    if len({q for q, _ in prime_powers}) != len(prime_powers):
        return "a prime is read twice"
    d = 1
    for q, e in prime_powers:
        if e < 1 or not miller_rabin(q) or n % q**e or n % q ** (e + 1) == 0:
            return f"{q}^{e} is not a prime power that exactly divides n"
        # q^j * (n/q^e)*P = O for some j <= e: that is n*P = O
        Q = point_multiple(n // q**e, P, p)
        for _ in range(e):
            if Q is None:
                break
            Q = point_multiple(q, Q, p)
            d *= q
        if Q is not None:
            return "n*P is not O"
    if math.lcm(d, 9) ** 2 <= 16 * p:
        return "lcm(d, 9)^2 is not above 16p"
    return None


def points_of_e_alone(p: int):
    """periods._points without the points of the twist: at the primes where
    the first points of E alone prove no trace, the trace stays open."""
    return (point for point in curve_points(p) if point[2] == 1)


# Oracle: the baby-step giant-step search for Tr J(chi, chi) over the
# O(sqrt(p)) candidates, in O(p^(1/4)) group operations (Cohen, ch. 7,
# Shanks-Mestre).  It runs on the points and the group law of the proof
# checker, and does not read the candidate that Stickelberger's congruence
# names.


def _bsgs(P: tuple[int, int], sign: int, p: int, t_lo: int, count: int) -> set[int] | None:
    """The k in range(count) with (p + 1 + sign*(t_lo + 9k))*P = O, or None
    when Q = sign*9P has order at most 2m and cannot tell them apart.

    That is R + k*Q = O with R = (p + 1 + sign*t_lo)*P.  The baby steps
    j*Q, 1 <= j <= m, are held by x-coordinate, which j*Q shares with
    -j*Q only; the giant steps R + 2m*i*Q meet them as R + 2m*i*Q = j*Q, so
    k = 2m*i - j, or -j*Q, so k = 2m*i + j, and R = O gives k = 2m*i.
    Every k in range(count) is 2m*i +- j for some such i and j.
    """
    Q = point_multiple(9, P, p)
    if Q is None:
        return None
    if sign < 0:
        Q = Q[0], -Q[1] % p
    m = math.isqrt(count // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    S = None
    for j in range(1, m + 1):
        S = point_sum(S, Q, p)
        if S is None or S[0] in baby:
            return None
        baby[S[0]] = j, S[1]
    step = point_sum(S, S, p)
    if step is None:
        return None
    R = point_multiple(p + 1 + sign * t_lo, P, p)
    found = set()
    for i in range(0, count + m, 2 * m):
        if R is None:
            found.add(i)
        elif R[0] in baby:
            j, y = baby[R[0]]
            found.add(i - j if R[1] == y else i + j)
        R = point_sum(R, step, p)
    return {k for k in found if 0 <= k < count}


def jacobi_trace(p: int) -> int | None:
    """t = Tr J(chi, chi), or None when the points tried leave more than
    one candidate.

    E: y^2 = x^3 - 432 has p + 1 + t points over F_p, and its quadratic
    twist p + 1 - t.  J = -1 + 3*beta gives t = -2 + 3*Tr(beta) and p + 1
    + t = 9*N(beta), so t = -(p + 1) mod 9, and 4p = t^2 + 3b^2 with b != 0
    for J = a + b*zeta3, so t^2 < 4p.  The first point for which _bsgs
    tells the candidates apart gives them, and each later point keeps those
    t for which p + 1 + sign*t kills it.  curve_points starts past the
    3-torsion points of E at x = 0; the others, such as those at x = 12,
    have 9P = O, and _bsgs passes them over.
    """
    t_max = math.isqrt(4 * p - 1)
    t_lo = -t_max + (-(p + 1) + t_max) % 9
    count = (t_max - t_lo) // 9 + 1
    candidates = None
    for _, P, sign in itertools.islice(curve_points(p), POINT_TRIES):
        if candidates is None:
            found = _bsgs(P, sign, p, t_lo, count)
            if found is None:
                continue
            candidates = [t_lo + 9 * k for k in found]
        else:
            candidates = [
                t for t in candidates if point_multiple(p + 1 + sign * t, P, p) is None
            ]
        if len(candidates) == 1:
            return candidates[0]
    return None


def jacobi_by_bsgs(p: int) -> EisensteinInt:
    """Oracle: J(chi, chi) rebuilt from t = jacobi_trace(p), with no
    Cornacchia step: 4p = t^2 + 3b^2 gives b up to sign and a = (t + b)/2,
    and Stickelberger's congruence a + b*omega = 0 mod p at omega =
    generator_omega(p) keeps the sign.
    Unchecked: the norm and the congruence mod 3 are left to the caller."""
    t = jacobi_trace(p)
    if t is None:
        raise ValueError(f"the points mod {p} leave the trace open")
    b = math.isqrt((4 * p - t * t) // 3)
    a = (t + b) // 2
    if (a + b * generator_omega(p)) % p:
        a, b = a - b, -b
    return EisensteinInt(a, b)


def cubic_residue_character(p: int, pi: EisensteinInt) -> int:
    """Oracle: the exponent e with g^((p-1)/3) = zeta3^e mod pi at the
    smallest generator g mod p, for a prime element pi of norm p."""
    omega = zeta3_residue(pi)
    return {omega: 1, omega * omega % p: 2}[pow(generator(p)[0], (p - 1) // 3, p)]


def prime_element(p: int) -> EisensteinInt:
    """The package's prime element of norm p (the pi of
    eisenstein._prime_element), for a prime p = 1 mod 3.  A p below 7, not
    1 mod 6 or composite raises ValueError: the package takes p from a
    validated conductor and does not prove it prime again."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not a prime = 1 mod 3")
    return _prime_element(p).pi


def jacobi_by_prime_element(p: int) -> EisensteinInt:
    """Oracle: J(chi, chi) in O(log p), with no point of E and no count.
    J(chi_pi, chi_pi) = -pi for the cubic residue character chi_pi mod the
    primary prime element pi = prime_element(p), from Cornacchia's
    algorithm (Ireland and Rosen, ch. 9 section 4), and chi(g) = zeta3 is
    chi_pi when cubic_residue_character(p, pi) is 1 and chi_pi^2 =
    chi_conj(pi) when it is 2."""
    pi = prime_element(p)
    return -pi if cubic_residue_character(p, pi) == 1 else -pi.conjugate()


def exact_div(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """x / y in Z[zeta3] when y divides x exactly; ValueError otherwise."""
    if y == EisensteinInt(0, 0):
        raise ZeroDivisionError("division by zero in Z[zeta3]")
    num = x * y.conjugate()
    n = y.norm()
    if num.a % n or num.b % n:
        raise ValueError(f"{y} does not divide {x}")
    return EisensteinInt(num.a // n, num.b // n)


def _round_div(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """x / y with each coordinate rounded to the nearest integer (halves up)."""
    num = x * y.conjugate()
    n = y.norm()
    return EisensteinInt((2 * num.a + n) // (2 * n), (2 * num.b + n) // (2 * n))


def canonical_associate(x: EisensteinInt) -> EisensteinInt:
    """The associate with a > 0 and smallest b >= 0 (zero maps to zero), so
    that gcd output is deterministic."""
    if x == EisensteinInt(0, 0):
        return x
    candidates = [y for y in (u * x for u in UNITS) if y.a > 0 and y.b >= 0]
    return min(candidates, key=lambda c: (c.b, c.a))


def eis_gcd(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    """Euclidean gcd in the norm-Euclidean Z[zeta3], as the canonical associate."""
    if x == EisensteinInt(0, 0) and y == EisensteinInt(0, 0):
        raise ValueError("gcd(0, 0) is undefined")
    while y != EisensteinInt(0, 0):
        x, y = y, x - _round_div(x, y) * y
    return canonical_associate(x)


def factor_rhs(r) -> tuple[int | None, list[EisensteinInt]]:
    """Oracle: factor w = (M + 3N*sqrt(-3))/2 of a pair by Euclidean gcds,
    as 3 * zeta3^sign * pi_1 * ... * pi_nu when wild and as pi_1 * ... *
    pi_nu, sign None, when tame, independently of how the pair was built.

    The pi_i are the primary prime elements above the odd primes of the
    conductor, each of which divides w exactly once because its norm is
    squarefree.  The decomposition is re-multiplied and compared to w.
    """
    wild = r.conductor.kind == "wild"
    x = EisensteinInt((r.M + 3 * r.N) // 2, 3 * r.N)
    try:
        rem = exact_div(x, EisensteinInt(3, 0)) if wild else x
    except ValueError as exc:
        raise FactorizationMismatch(str(exc)) from exc
    pis: list[EisensteinInt] = []
    for p in r.conductor.odd_primes:
        pi = primary_associate(eis_gcd(EisensteinInt(p, 0), rem))
        if pi.norm() != p:
            raise FactorizationMismatch(f"gcd with {p} has norm {pi.norm()}, expected {p}")
        try:
            rem = exact_div(rem, pi)
        except ValueError as exc:
            raise FactorizationMismatch(str(exc)) from exc
        pis.append(pi)
    units = {ZETA: 1, ZETA_SQ: -1} if wild else {EisensteinInt(1, 0): None}
    if rem not in units:
        raise FactorizationMismatch(f"leftover unit {rem} is not one of {list(units)}")
    product = 3 * rem if wild else rem
    for pi in pis:
        product = product * pi
    if product != x:
        raise FactorizationMismatch(f"product {product} does not reproduce {x}")
    return units[rem], pis


def character_by_definition(f, sign, pis) -> dict[int, int]:
    """chi(a) as an exponent of zeta3 for every unit a mod f, from the
    definitions of its components: sign*(a^2 - 1)/3 mod 3 at 9, when 9 | f,
    and at p = N(pi) the e with a^((p-1)/3) = omega^e mod p, for omega =
    zeta3_residue(pi).  (sign, pis) is what factor_rhs returns for a pair."""
    chi = {}
    for a in range(1, f):
        if math.gcd(a, f) == 1:
            e = sign * ((a * a % 9 - 1) // 3) if f % 9 == 0 else 0
            for pi in pis:
                p, omega = pi.norm(), zeta3_residue(pi)
                e += {1: 0, omega: 1, omega * omega % p: 2}[pow(a, (p - 1) // 3, p)]
            chi[a] = e % 3
    return chi


# The exact oracle of the periods and Gaussian sums.  A prime ell = 1 mod m
# splits completely in Q(zeta_m), so the sums of roots of unity that define
# them are exact sums in F_ell.  A character is named, component by
# component, by an omega_q: chi_q(a) = zeta3^e when a^(phi(q)/3) = omega_q^e
# mod q, for q prime or 9.  No Gaussian sum, Jacobi sum, closed form or
# character of the package is read.


@functools.lru_cache(maxsize=256)
def split_prime(m: int, floor: int) -> int:
    """The least prime ell = 1 mod m above floor."""
    ell = floor + 1 + (-floor) % m
    while not miller_rabin(ell):
        ell += m
    return ell


@functools.lru_cache(maxsize=256)
def root_of_unity(m: int, ell: int) -> int:
    """The first x^((ell - 1)/m), x = 2, 3, ..., of order m mod ell."""
    primes = [p for p, _ in factorize(m)]
    for x in itertools.count(2):
        z = pow(x, (ell - 1) // m, ell)
        if all(pow(z, m // p, ell) != 1 for p in primes):
            return z


@functools.lru_cache(maxsize=64)
def index_sums(q: int, z: int, ell: int) -> list[int]:
    """B[r] = sum of z^a mod ell over the units a = g^i mod q with i = r mod
    3, g the smallest generator mod q and z a q-th root of unity: O(q)."""
    g, order = generator(q)
    powers = [1] * q
    for a in range(1, q):
        powers[a] = powers[a - 1] * z % ell
    units = [1] * order
    for i in range(1, order):
        units[i] = units[i - 1] * g % q
    return [sum(map(powers.__getitem__, units[r::3])) % ell for r in range(3)]


def character_sums(q: int, omega: int, z: int, ell: int) -> list[int]:
    """S[r] = sum of z^a mod ell over the units a mod q with chi(a) = zeta3^r
    for the chi that omega names: B[e*r] of index_sums, as chi(g^i) =
    zeta3^(e*i) for g^(phi(q)/3) = omega^e, and e*e = 1 mod 3."""
    g, order = generator(q)
    e = {omega: 1, omega * omega % q: 2}[pow(g, order // 3, q)]
    base = index_sums(q, z, ell)
    return [base[e * r % 3] for r in range(3)]


@functools.lru_cache(maxsize=None)
def periods_mod_ell(cond, labels) -> tuple[int, tuple[int, int, int]]:
    """Oracle: (ell, (eta_0, eta_1, eta_2)), eta_j the sum of z^a mod ell
    over the units a mod f with chi(a) = zeta3^j, for the least prime ell = 1
    mod 3f above 4f^2, z = root_of_unity(f, ell) and chi the product of the
    chi_q that labels name, one omega_q per component (_component_moduli).

    By the CRT a = sum of a_q*e_q over the idempotents e_q (1 mod q, 0 mod
    f/q), so z^a = prod z_q^(a_q) for z_q = z^(e_q): the periods are the
    convolution over Z/3 of the character_sums of the components, O(sum of
    q) and not O(f).  As |eta_j| <= (1 + 2*sqrt(f))/3, every symmetric
    function of the periods is an integer below f^2 < ell/4 in absolute
    value, its centered residue."""
    f = cond.value
    ell = split_prime(3 * f, 4 * f * f)
    z = root_of_unity(f, ell)
    etas = (1, 0, 0)
    for q, omega in zip(_component_moduli(cond), labels, strict=True):
        rest = f // q
        s = character_sums(q, omega, pow(z, rest * pow(rest, -1, q), ell), ell)
        etas = tuple(sum(etas[r] * s[(j - r) % 3] for r in range(3)) % ell for j in range(3))
    return ell, etas


def centered(x: int, ell: int) -> int:
    """The residue of x mod ell in (-ell/2, ell/2)."""
    x %= ell
    return x - ell if 2 * x > ell else x


def period_poly_mod_ell(cond, labels) -> RationalCubic:
    """Oracle: X^3 - e1*X^2 + e2*X - e3 over the periods of periods_mod_ell."""
    ell, (a, b, c) = periods_mod_ell(cond, labels)
    e1, e2, e3 = (centered(e, ell) for e in (a + b + c, a * b + b * c + c * a, a * b * c))
    return RationalCubic(1, -e1, e2, -e3)


def zeta3_residue(pi: EisensteinInt) -> int:
    """omega = -pi.a/pi.b mod p = N(pi), the residue of zeta3 mod pi, which
    names the cubic residue character mod pi."""
    p = pi.norm()
    return -pi.a * pow(pi.b, -1, p) % p


def pair_labels(r) -> tuple[int, ...]:
    """The labels of the pair's own character, from its definition: at p the
    zeta3_residue of the pi_p of factor_rhs, at 9 the omega_9 = 4^sign mod 9
    of chi_9(a) = zeta3^(sign*(a^2 - 1)/3), as a^2 = 4^e when (a^2 - 1)/3 = e."""
    sign, pis = factor_rhs(r)
    omegas = {pi.norm(): zeta3_residue(pi) for pi in pis}
    if sign is not None:
        omegas[9] = pow(4, sign % 3, 9)
    return tuple(omegas[q] for q in _component_moduli(r.conductor))


def kernel_labels(cond, vector) -> tuple[int, ...]:
    """The labels of the package's coefficient vector, prod chi_q^(c_q), with
    chi_p named by the package's omega_p (eisenstein._prime_element) and
    chi_9(2) = zeta3, so omega_9 = 2^2 = 4; chi_q^c is named by omega_q^c."""
    return tuple(
        pow(4 if q == 9 else _prime_element(q).omega, c, q)
        for q, c in zip(_component_moduli(cond), vector, strict=True)
    )


def gauss_field(q: int) -> tuple[int, int, int]:
    """(ell, z, w): the least prime ell = 1 mod 3q above 4q^3, and the images
    z = Z^3 of zeta_q and w = Z^q of zeta3 at Z = root_of_unity(3q, ell).  Two
    elements of Z[zeta3] of absolute value at most q^(3/2), as tau^3 and q*J,
    differ by one of norm at most 4q^3 < ell, which maps to 0 only if it is 0."""
    ell = split_prime(3 * q, 4 * q**3)
    root = root_of_unity(3 * q, ell)
    return ell, pow(root, 3, ell), pow(root, q, ell)


def gauss_sum_mod_ell(q: int, omega: int, field: tuple[int, int, int]) -> int:
    """Oracle: tau(chi) = sum over the units a mod q of chi(a)*zeta_q^a, for
    the chi that omega names, in a field (ell, z, w) of gauss_field."""
    ell, z, w = field
    s = character_sums(q, omega, z, ell)
    return (s[0] + w * s[1] + w * w * s[2]) % ell


def shanks_poly(n: int | Fraction) -> RationalCubic:
    """Oracle: f_n = X^3 - n*X^2 - (n+3)*X - 1 for a rational n, which the
    package holds only as the integer cubic n2*f_n (cleared_shanks_poly)."""
    return RationalCubic(1, -n, -(n + 3), -1)


def cubic_discriminant(p: RationalCubic):
    """Oracle: the discriminant of a*X^3 + b*X^2 + c*X + d."""
    a, b, c, d = p
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def shanks_root_oracle(n1: int, n2: int, x: float) -> Decimal:
    """Oracle: the root of f_n, n = n1/n2, that x approximates, refined by
    Newton's method in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        n = Decimal(n1) / n2
        r = Decimal(x)
        for _ in range(8):
            r -= (((r - n) * r - (n + 3)) * r - 1) / ((3 * r - 2 * n) * r - (n + 3))
        return r


def paper_relation(cond, n1: int) -> tuple[int, Fraction]:
    """Oracle: (mu, shift) of eta = mu*(n2*rho + shift) by the paper's
    formulas, mu = (-1)^nu and shift = (1 - n1)/3 when tame, -n1/3 when wild."""
    return (-1) ** cond.nu, Fraction(-n1 if cond.is_wild else 1 - n1, 3)


def closed_form_period_poly(cond, M: int) -> RationalCubic:
    """Oracle: the paper's closed form of the period polynomial of the pair
    with this M, in Fraction arithmetic, with mu = (-1)^nu:

        X^3 - mu*X^2 + (1-f)/3 * X - mu*((M-3)*f + 1)/27      (tame)
        X^3 - f/3 * X - mu*f*M/27                              (wild)
    """
    f, mu = cond.value, (-1) ** cond.nu
    if cond.is_wild:
        return RationalCubic(1, 0, Fraction(-f, 3), Fraction(-mu * f * M, 27))
    return RationalCubic(1, -mu, Fraction(1 - f, 3), Fraction(-mu * ((M - 3) * f + 1), 27))


def fraction_identities(cond, sp) -> dict:
    """Oracle: the main identity and what it implies for the generators of a
    wild field, in Fraction arithmetic, with every coefficient and
    substitution argument a Fraction.

    lhs = n2^3*mu*f_n(X) and rhs = P(mu*(n2*X + shift)) for the main identity;
    h = n2^3*f_n((X - shift)/n2), the minimal polynomial of alpha = n2*rho + shift,
    with mu*P(mu*X) to compare it with, and shifted[(s, t)] = s*h((X - t)/s),
    that of s*alpha + t.
    """
    mu, shift = paper_relation(cond, sp.n1)
    p = closed_form_period_poly(cond, 2 * sp.n1 + 3 * sp.n2)
    fn = RationalCubic(*map(Fraction, shanks_poly(Fraction(sp.n1, sp.n2))))
    h = substitute_affine(fn, Fraction(1, sp.n2), Fraction(-shift, sp.n2)).scale(
        Fraction(sp.n2**3)
    )
    return {
        "lhs": fn.scale(Fraction(mu * sp.n2**3)),
        "rhs": substitute_affine(p, Fraction(mu * sp.n2), Fraction(mu * shift)),
        "h": h,
        "mu_p_mu_x": substitute_affine(p, Fraction(mu), Fraction(0)).scale(Fraction(mu)),
        "shifted": {
            (s, t): substitute_affine(h, Fraction(1, s), Fraction(-t, s)).scale(Fraction(s))
            for s in (1, -1)
            for t in (1, -1)
        },
    }


class GroupRingElement(NamedTuple):
    """c0 + c1*s + c2*s^2 in the group ring over Q of a cyclic group <s> of
    order three; elements multiply by cyclic convolution (s^3 = 1)."""

    c0: int | Fraction
    c1: int | Fraction
    c2: int | Fraction

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElement(self.c0 * other, self.c1 * other, self.c2 * other)
        return gr_mul(self, other)

    __rmul__ = __mul__


ONE = GroupRingElement(1, 0, 0)
SIGMA = GroupRingElement(0, 1, 0)
SIGMA_SQ = GroupRingElement(0, 0, 1)


def gr_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Cyclic convolution of coefficients."""
    return GroupRingElement(
        x.c0 * y.c0 + x.c1 * y.c2 + x.c2 * y.c1,
        x.c0 * y.c1 + x.c1 * y.c0 + x.c2 * y.c2,
        x.c0 * y.c2 + x.c1 * y.c1 + x.c2 * y.c0,
    )


def idempotents() -> tuple[GroupRingElement, GroupRingElement]:
    """(e1, ef) with e1 the averaging idempotent; they are orthogonal and sum to 1."""
    e1 = GroupRingElement(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    ef = GroupRingElement(Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
    return e1, ef


def unit_list_p3(wild: bool) -> list[GroupRingElement]:
    """Units of the relevant order: 6 elements, or 12 when wild.

    Closure under multiplication and the presence of every inverse are
    checked before returning.
    """
    e1, _ = idempotents()
    flip = ONE - 2 * e1
    powers = [ONE, SIGMA, SIGMA_SQ]
    units = [sign * p for sign in (1, -1) for p in powers]
    if wild:
        units += [sign * (flip * p) for sign in (1, -1) for p in powers]
    for x in units:
        if not any(gr_mul(x, y) == ONE for y in units):
            raise GeneratorFailure(f"{x} has no inverse in the unit list")
        for y in units:
            if gr_mul(x, y) not in units:
                raise GeneratorFailure(f"{x} * {y} leaves the unit list")
    return units


class ConjugateVector(NamedTuple):
    """(x, s(x), s^2(x)) for an algebraic number x of a matched field, as
    floats or, exactly, as Fractions."""

    x0: float | Fraction
    x1: float | Fraction
    x2: float | Fraction

    def values(self) -> tuple:
        return (self.x0, self.x1, self.x2)


def apply(x: GroupRingElement, v: ConjugateVector) -> ConjugateVector:
    """Linear action: s shifts coordinates cyclically.  Exact on Fractions."""
    c0, c1, c2 = x
    return ConjugateVector(
        c0 * v.x0 + c1 * v.x1 + c2 * v.x2,
        c0 * v.x1 + c1 * v.x2 + c2 * v.x0,
        c0 * v.x2 + c1 * v.x0 + c2 * v.x1,
    )


def delta(n1: int, n2: int) -> int:
    return n1 * n1 + 3 * n1 * n2 + 9 * n2 * n2


class ShanksRootRing:
    """Oracle: exact arithmetic in Q[rho]/(f_n) for n = n1/n2, with
    f_n = X^3 - n*X^2 - (n+3)*X - 1.  An element is the triple (c0, c1, c2)
    of Fractions for c0 + c1*rho + c2*rho^2."""

    def __init__(self, n1: int, n2: int):
        self.n = Fraction(n1, n2)

    def const(self, c) -> tuple:
        return (Fraction(c), Fraction(0), Fraction(0))

    @staticmethod
    def add(x, y) -> tuple:
        return tuple(a + b for a, b in zip(x, y))

    @staticmethod
    def sub(x, y) -> tuple:
        return tuple(a - b for a, b in zip(x, y))

    @staticmethod
    def scale(k, x) -> tuple:
        return tuple(k * a for a in x)

    def mul(self, x, y) -> tuple:
        prod = [Fraction(0)] * 5
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        # rho^3 = n*rho^2 + (n+3)*rho + 1, from the top degree down
        for d in (4, 3):
            top, prod[d] = prod[d], Fraction(0)
            prod[d - 1] += top * self.n
            prod[d - 2] += top * (self.n + 3)
            prod[d - 3] += top
        return tuple(prod[:3])

    def f_n(self, x) -> tuple:
        """f_n evaluated at the element x."""
        n = self.n
        x2 = self.mul(x, x)
        value = self.sub(self.mul(x2, x), self.scale(n, x2))
        return self.sub(self.sub(value, self.scale(n + 3, x)), self.const(1))

    def roots(self) -> list[tuple]:
        """rho_0 = rho, rho_1 and rho_2 with rho_{j+1} = -1/(1 + rho_j):
        f_n(X) = (X + 1)*(X^2 - (n+1)*X - 2) + 1, so the inverse is
        X^2 - (n+1)*X - 2 at rho_j.  Unchecked: the caller checks
        (1 + rho_j)*rho_{j+1} = -1, also from rho_2 back to rho_0."""
        rho = (Fraction(0), Fraction(1), Fraction(0))
        out = [rho]
        for _ in range(2):
            x = out[-1]
            nxt = self.sub(self.mul(x, x), self.scale(self.n + 1, x))
            out.append(self.sub(nxt, self.const(2)))
        return out


def resolvent_identities(n1: int, n2: int, shift) -> dict:
    """Oracle: for alpha_j = n2*rho_j + shift over the roots rho_j of f_n in
    the Galois order of ShanksRootRing.roots, in Q[rho]/(f_n):
    "cycle", the three (1 + rho_j)*rho_{j+1} with rho_3 = rho_0;
    "at_roots", f_n at each rho_j;
    "resolvent_sum", 2*s1^3 - 9*s1*s2 + 27*s3 over the elementary symmetric
    functions s_k of the alpha_j, which is r^3 + conj(r)^3 for the
    resolvent r = alpha_0 + zeta3*alpha_1 + zeta3^2*alpha_2;
    "D", (alpha_0 - alpha_1)*(alpha_1 - alpha_2)*(alpha_2 - alpha_0)."""
    ring = ShanksRootRing(n1, n2)
    rhos = ring.roots()
    one = ring.const(1)
    cycle = [ring.mul(ring.add(one, rhos[j]), rhos[(j + 1) % 3]) for j in range(3)]
    a0, a1, a2 = (ring.add(ring.scale(n2, r), ring.const(shift)) for r in rhos)
    mul = ring.mul
    s1 = ring.add(ring.add(a0, a1), a2)
    s2 = ring.add(ring.add(mul(a0, a1), mul(a1, a2)), mul(a2, a0))
    s3 = mul(mul(a0, a1), a2)
    resolvent_sum = ring.add(
        ring.sub(ring.scale(2, mul(mul(s1, s1), s1)), ring.scale(9, mul(s1, s2))),
        ring.scale(27, s3),
    )
    d = mul(mul(ring.sub(a0, a1), ring.sub(a1, a2)), ring.sub(a2, a0))
    return {
        "cycle": cycle,
        "at_roots": [ring.f_n(r) for r in rhos],
        "resolvent_sum": resolvent_sum,
        "D": d,
    }


def _divisors(n: int) -> list[int]:
    fac = factorize(n)
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_irreducible_cubic(p: RationalCubic) -> bool:
    """Rational-root test; for a cubic this decides irreducibility over Q."""
    if p.c3 == 0:
        raise ValueError("degree must be exactly 3")
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    a3, a2, a1, a0 = (c // g for c in ints)
    if a0 == 0:
        return False
    for num in _divisors(abs(a0)):
        for d in _divisors(abs(a3)):
            if math.gcd(num, d) != 1:
                continue
            for root in (Fraction(num, d), Fraction(-num, d)):
                if ((a3 * root + a2) * root + a1) * root + a0 == 0:
                    return False
    return True


def irreducibility_criterion(n1: int, n2: int) -> bool:
    """True when 3 | n1, the form value has 3-adic valuation exactly 2, and
    its ninth is squarefree; these conditions force f_n irreducible for
    n = n1/n2 (Eisenstein's criterion applies after clearing denominators)."""
    if math.gcd(n1, n2) != 1:
        raise ValueError("n1 and n2 must be coprime")
    if n1 % 3 != 0:
        return False
    d = delta(n1, n2)
    if d % 9 != 0 or (d // 9) % 3 == 0:
        return False
    return moebius(d // 9) != 0


def search_pairs(cond) -> list[tuple[int, int]]:
    """Oracle: the normalized (M, N) of a conductor by an O(sqrt f) search
    over N, sorted by M descending.  For each N the complementary square
    fixes |M| and the mod-3 side condition fixes the sign."""
    four_f = 4 * cond.value
    found = []
    for n in range(1, math.isqrt(four_f // 27) + 1):
        square = four_f - 27 * n * n
        s = math.isqrt(square)
        if s * s != square:
            continue
        if cond.kind == "tame":
            found.extend((m, n) for m in (s, -s) if m % 3 == 2)
        elif s % 3 == 0 and n % 3 != 0:
            found.extend((3 * m0, n) for m0 in (s // 3, -s // 3) if m0 % 3 == 2)
    return sorted(found, key=lambda pair: -pair[0])


def count_calls(monkeypatch, module, name) -> list:
    """The arguments of every call of module.name from here on.  Every
    module attribute of the package that holds the function is rebound, so
    names bound by `from .module import name` count too."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, m in list(sys.modules.items()):
        if module_name == "cubicperiods" or module_name.startswith("cubicperiods."):
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)
    return calls


@pytest.fixture(scope="session")
def conductors_10k():
    return conductors_up_to(BOUND)


@pytest.fixture(scope="session")
def all_records_10k(conductors_10k):
    """Field records for every conductor up to 10^4, computed once per run."""
    return {cond.value: match_fields(cond) for cond in conductors_10k}


@pytest.fixture(scope="session")
def wild_records_10k(conductors_10k, all_records_10k):
    return [
        rec
        for cond in conductors_10k
        if cond.kind == "wild"
        for rec in all_records_10k[cond.value]
    ]
