import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from cubicperiods import (
    CountMismatch,
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
    primary_associate,
)
from cubicperiods.periods import _POINT_TRIES, _add, _mul, _points

BOUND = 10_000


def euler_phi(fac) -> int:
    phi = 1
    for p, e in fac:
        phi *= (p - 1) * p ** (e - 1)
    return phi


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


@pytest.fixture(scope="session", name="sieve_moebius")
def sieve_moebius_fixture():
    """sieve_moebius(limit): the Moebius values of 0..limit by a linear sieve."""
    return sieve_moebius


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


def omegas(cond) -> dict[int, int]:
    """Each odd prime p of the conductor mapped to generator_omega(p), so
    that kernels and characters are labelled at the smallest generators,
    as by unit_group and coset_sets."""
    return {p: generator_omega(p) for p in cond.odd_primes}


@pytest.fixture(scope="session", name="omegas")
def omegas_fixture():
    """omegas(cond): each odd prime of the conductor to its generator_omega."""
    return omegas


def generator_labels(cond, vector) -> tuple[int, ...]:
    """A coefficient vector over the package's component characters chi_q,
    chi_p named by the omega of eisenstein._prime_element(p), rewritten over
    the characters chi_q(g_q) = zeta3 at the smallest generators g_q, by
    which unit_group and coset_sets label; and back, as the map is its own
    inverse.  Where the package's omega_p is the square of generator_omega(p),
    chi_p is the square of the generator's character and coordinate p
    doubles mod 3; mod 9 both take chi_9(2) = zeta3."""
    doubled = [
        q != 9 and _prime_element(q).omega != generator_omega(q) for q in _component_moduli(cond)
    ]
    return tuple(c * (1 + d) % 3 for c, d in zip(vector, doubled, strict=True))


@pytest.fixture(scope="session", name="generator_labels")
def generator_labels_fixture():
    """generator_labels(cond, vector): a kernel vector between the package's
    labels and the smallest generators'."""
    return generator_labels


@pytest.fixture(scope="session", name="generator")
def generator_fixture():
    """generator(q): the smallest generator mod q (prime or 9) and the group order."""
    return generator


@dataclass(frozen=True)
class UnitGroup:
    """(Z/fZ)^x as a product of cyclic groups, one per prime-power factor."""

    modulus: int
    generators: tuple[tuple[int, int], ...]


def unit_group(f) -> UnitGroup:
    """The smallest generator of each CRT component of f, lifted to a
    residue mod f that is 1 at the other components, with its order."""
    gens = []
    for q in _component_moduli(f):
        g, order = generator(q)
        rest = f.value // q
        # lift to a residue that is g mod q and 1 mod f/q
        lift = (1 + rest * ((g - 1) * pow(rest, -1, q) % q)) % f.value
        gens.append((lift, order))
    if math.prod(o for _, o in gens) != euler_phi(factorize(f.value)):
        raise CountMismatch(f"component orders do not multiply to phi({f.value})")
    return UnitGroup(f.value, tuple(gens))


@pytest.fixture(scope="session", name="unit_group")
def unit_group_fixture():
    """unit_group(cond): the CRT-lifted component generators of (Z/f)^x."""
    return unit_group


def index_classes(q: int) -> tuple[list[int], ...]:
    """The units mod q of index 0, 1 and 2 mod 3, that is the powers g^j of
    the smallest generator split by j mod 3."""
    g, order = generator(q)
    powers = []
    x = 1
    for _ in range(order):
        powers.append(x)
        x = x * g % q
    return powers[0::3], powers[1::3], powers[2::3]


def gaussian_sum(q: int, e: int) -> complex:
    """Oracle: tau(chi) = sum over the units a mod q of chi(a) * exp(2*pi*i*a/q)
    in floats, for chi(g) = zeta3^e at the smallest generator g mod q (q
    prime or 9): sum over r of zeta3^(e*r) times the fsums of cos(2*pi*a/q)
    and sin(2*pi*a/q) over the index class r.  O(q), with |tau|^2 = q
    checked to 1e-6."""
    if e not in (1, 2):
        raise ValueError("a primitive cubic character has exponent 1 or 2")
    step = 2 * math.pi / q
    total = 0j
    for r, units in enumerate(index_classes(q)):
        angles = [step * a for a in units]
        zeta_power = UNITS[e * r % 3].to_complex()  # zeta3^(e*r)
        total += zeta_power * complex(
            math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles))
        )
    assert abs(abs(total) ** 2 - q) < 1e-6, (q, e, total)
    return total


@pytest.fixture(scope="session")
def float_gauss_sum():
    """gaussian_sum(q, e): the O(q) float Gaussian sum."""
    return gaussian_sum


@functools.lru_cache(maxsize=4)
def _units_by_label(cond) -> dict[tuple[int, ...], list[int]]:
    """The units mod f grouped by label, built as products of powers of the
    CRT-lifted generators of unit_group: a = prod g_i^e_i has label
    (e_i mod 3)."""
    f = cond.value
    gens = unit_group(cond).generators
    classes = {(): [1 % f]}
    for g, order in gens:
        powers = [1]
        for _ in range(order - 1):
            powers.append(powers[-1] * g % f)
        classes = {
            label + (r,): [a * p % f for a in units for p in powers[r::3]]
            for label, units in classes.items()
            for r in range(3)
        }
    # distinct units, phi(f) of them (unit_group checks the orders against phi)
    units = [a for group in classes.values() for a in group]
    assert len(set(units)) == len(units) == math.prod(o for _, o in gens)
    return classes


def coset_sets(cond, vector) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The kernel of the coefficient vector and its two cosets, as residue
    sets: coset j holds the units whose label l satisfies vector . l = j mod 3."""
    cosets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label, units in _units_by_label(cond).items():
        cosets[sum(c * e for c, e in zip(vector, label)) % 3].extend(units)
    return tuple(frozenset(c) for c in cosets)


@pytest.fixture(scope="session")
def residue_sets():
    """coset_sets(cond, vector): the kernel and cosets of a vector as residue sets."""
    return coset_sets


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


@pytest.fixture(scope="session")
def count_oracle():
    """The O(p) count of J(chi, chi) from the index table mod p, with the
    prime table it reads."""
    return SimpleNamespace(
        index_table=index_table,
        jacobi=jacobi_by_count,
        bound=COUNT_BOUND,
        prime_bound=COUNT_PRIME_BOUND,
        primes=COUNT_PRIMES,
    )


def points_of_e_alone(p: int, points=_points):
    """periods._points without the points of the twist: at the primes where
    the first points of E alone prove no trace, the trace stays open."""
    return ((P, sign) for P, sign in points(p) if sign == 1)


@pytest.fixture(scope="session")
def e_alone():
    """points_of_e_alone(p): a stand-in for periods._points."""
    return points_of_e_alone


# Oracle: the baby-step giant-step search for Tr J(chi, chi) over the
# O(sqrt(p)) candidates, in O(p^(1/4)) group operations (Cohen, ch. 7,
# Shanks-Mestre).  It shares the points and the group law of periods,
# but not the candidate that Stickelberger's congruence names.


def _bsgs(P: tuple[int, int], sign: int, p: int, t_lo: int, count: int) -> set[int] | None:
    """The k in range(count) with (p + 1 + sign*(t_lo + 9k))*P = O, or None
    when Q = sign*9P has order at most 2m and cannot tell them apart.

    That is R + k*Q = O with R = (p + 1 + sign*t_lo)*P.  The baby steps
    j*Q, 1 <= j <= m, are held by x-coordinate, which j*Q shares with
    -j*Q only; the giant steps R + 2m*i*Q meet them as R + 2m*i*Q = j*Q, so
    k = 2m*i - j, or -j*Q, so k = 2m*i + j, and R = O gives k = 2m*i.
    Every k in range(count) is 2m*i +- j for some such i and j.
    """
    Q = _mul(9, P, p)
    if Q is None:
        return None
    if sign < 0:
        Q = Q[0], -Q[1] % p
    m = math.isqrt(count // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    S = None
    for j in range(1, m + 1):
        S = _add(S, Q, p)
        if S is None or S[0] in baby:
            return None
        baby[S[0]] = j, S[1]
    step = _add(S, S, p)
    if step is None:
        return None
    R = _mul(p + 1 + sign * t_lo, P, p)
    found = set()
    for i in range(0, count + m, 2 * m):
        if R is None:
            found.add(i)
        elif R[0] in baby:
            j, y = baby[R[0]]
            found.add(i - j if R[1] == y else i + j)
        R = _add(R, step, p)
    return {k for k in found if 0 <= k < count}


def jacobi_trace(p: int) -> int | None:
    """t = Tr J(chi, chi), or None when the points tried leave more than
    one candidate.

    E: y^2 = x^3 - 432 has p + 1 + t points over F_p, and its quadratic
    twist p + 1 - t.  J = -1 + 3*beta gives t = -2 + 3*Tr(beta) and p + 1
    + t = 9*N(beta), so t = -(p + 1) mod 9, and 4p = t^2 + 3b^2 with b != 0
    for J = a + b*zeta3, so t^2 < 4p.  The first point for which _bsgs
    tells the candidates apart gives them, and each later point keeps those
    t for which p + 1 + sign*t kills it.  _points starts past the
    3-torsion points of E at x = 0; the others, such as those at x = 12,
    have 9P = O, and _bsgs passes them over.
    """
    t_max = math.isqrt(4 * p - 1)
    t_lo = -t_max + (-(p + 1) + t_max) % 9
    count = (t_max - t_lo) // 9 + 1
    candidates = None
    for P, sign in itertools.islice(_points(p), _POINT_TRIES):
        if candidates is None:
            found = _bsgs(P, sign, p, t_lo, count)
            if found is None:
                continue
            candidates = [t_lo + 9 * k for k in found]
        else:
            candidates = [t for t in candidates if _mul(p + 1 + sign * t, P, p) is None]
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


@pytest.fixture(scope="session")
def bsgs_jacobi():
    """jacobi_by_bsgs(p): J(chi, chi) from the trace that the search finds."""
    return jacobi_by_bsgs


def jacobi_by_nine_counts(p: int) -> EisensteinInt:
    """Oracle: J(chi, chi) mod p from all p - 2 terms, with no pairing of a
    and 1 - a.  Each count n_k of the a in 2..p-1 whose indices at a and at
    1 - a add up to k mod 3 is a sum of popcounts of ANDs: the 0/1 indicator
    bytes of index i read little-endian and those of index j read
    big-endian, for the nine pairs (i, j).  Unchecked: the norm and the
    congruence are left to the caller."""
    core = index_table(p)[2:]
    indicators = [bytes(int(x == r) for x in range(256)) for r in range(3)]
    firsts = [int.from_bytes(core.translate(indicators[i]), "little") for i in range(3)]
    counts = [0, 0, 0]
    for j in range(3):
        seconds = int.from_bytes(core.translate(indicators[j]), "big")
        for i, first in enumerate(firsts):
            counts[(i + j) % 3] += (first & seconds).bit_count()
    n0, n1, n2 = counts
    return EisensteinInt(n0 - n2, n1 - n2)


@pytest.fixture(scope="session")
def nine_count_jacobi():
    """jacobi_by_nine_counts(p): J(chi, chi) by the nine full-length counts."""
    return jacobi_by_nine_counts


def cubic_residue_character(p: int, pi: EisensteinInt) -> int:
    """Oracle: the exponent e with g^((p-1)/3) = zeta3^e mod pi at the
    smallest generator g mod p, for a prime element pi of norm p, with
    omega = -a/b mod p the residue of zeta3 mod pi = a + b*zeta3."""
    omega = -pi.a * pow(pi.b, -1, p) % p
    return {omega: 1, omega * omega % p: 2}[pow(generator(p)[0], (p - 1) // 3, p)]


@pytest.fixture(scope="session")
def residue_character():
    """cubic_residue_character(p, pi): the exponent of chi_pi at the generator."""
    return cubic_residue_character


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


@pytest.fixture(scope="session")
def prime_element_jacobi():
    """jacobi_by_prime_element(p): J(chi, chi) from the prime element of norm p."""
    return jacobi_by_prime_element


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


@pytest.fixture(scope="session")
def gcd_oracle():
    """(eis_gcd, exact_div, canonical_associate): Euclid's algorithm in Z[zeta3]."""
    return eis_gcd, exact_div, canonical_associate


@pytest.fixture(scope="session", name="factor_rhs")
def factor_rhs_fixture():
    """factor_rhs(r): (sign, prime elements) of a pair, by gcds; sign None when tame."""
    return factor_rhs


def character_by_definition(f, sign, pis) -> dict[int, int]:
    """chi(a) as an exponent of zeta3 for every unit a mod f, evaluated
    residue by residue from the definitions and glued by the CRT.

    The component mod 9 (present when 9 | f) is sign*(a^2 - 1)/3 mod 3.  The
    component mod p = N(pi) is the e with a^((p-1)/3) = omega^e mod p,
    where omega = -pi.a/pi.b is the residue of zeta3 mod pi, taken once per
    coset of the cubes mod p.  The pair (sign, pis) is what the factor_rhs
    oracle returns for a representation.
    """
    components = []
    if f % 9 == 0:
        components.append((9, {a: sign * ((a * a - 1) // 3) % 3 for a in (1, 2, 4, 5, 7, 8)}))
    for pi in pis:
        p = pi.norm()
        omega = -pi.a * pow(pi.b, -1, p) % p
        exponent_of = {1: 0, omega: 1, omega * omega % p: 2}
        # a^((p-1)/3) is 1 at the cubes, so it is b^((p-1)/3) on b times them
        cubes = {x * x * x % p for x in range(1, p)}
        chi: dict[int, int] = {}
        for b in range(1, p):
            if b not in chi:
                e = exponent_of[pow(b, (p - 1) // 3, p)]
                chi.update((b * c % p, e) for c in cubes)
        components.append((p, chi))
    # The table of component q, with 9 at the non-units, repeated f/q times
    # holds chi_q(a mod q) at byte a.  The tables of all components add
    # without carry, so byte a of the sum is the sum of the chi_q(a mod q),
    # 9 or more exactly when a is no unit.
    total = 0
    for q, chi in components:
        total += int.from_bytes(bytes(chi.get(a, 9) for a in range(q)) * (f // q), "little")
    return {a: s % 3 for a, s in enumerate(total.to_bytes(f, "little")) if s < 9}


@pytest.fixture(scope="session")
def character_values():
    """character_by_definition(f, sign, pis): the O(f) reference character."""
    return character_by_definition


def shanks_poly(n: int | Fraction) -> RationalCubic:
    """Oracle: f_n = X^3 - n*X^2 - (n+3)*X - 1 for a rational n, which the
    package holds only as the integer cubic n2*f_n (cleared_shanks_poly)."""
    return RationalCubic(1, -n, -(n + 3), -1)


@pytest.fixture(scope="session", name="shanks_poly")
def shanks_poly_fixture():
    """shanks_poly(n): f_n with rational coefficients."""
    return shanks_poly


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


@pytest.fixture(scope="session", name="paper_relation")
def paper_relation_fixture():
    """paper_relation(cond, n1): (mu, shift) by the paper's formulas."""
    return paper_relation


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


@pytest.fixture(scope="session", name="closed_form_period_poly")
def closed_form_period_poly_fixture():
    """closed_form_period_poly(cond, M): the paper's closed form."""
    return closed_form_period_poly


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


@pytest.fixture(scope="session")
def fraction_oracle():
    """fraction_identities(cond, sp): the exact identities in Fraction arithmetic."""
    return fraction_identities


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
    """(x, s(x), s^2(x)) for an algebraic number x of a matched field."""

    x0: float
    x1: float
    x2: float

    def values(self) -> tuple[float, float, float]:
        return (self.x0, self.x1, self.x2)


def apply(x: GroupRingElement, v: ConjugateVector) -> ConjugateVector:
    """Linear action: s shifts coordinates cyclically."""
    c0, c1, c2 = float(x.c0), float(x.c1), float(x.c2)
    return ConjugateVector(
        c0 * v.x0 + c1 * v.x1 + c2 * v.x2,
        c0 * v.x1 + c1 * v.x2 + c2 * v.x0,
        c0 * v.x2 + c1 * v.x0 + c2 * v.x1,
    )


@pytest.fixture(scope="session")
def group_ring():
    """Oracle: the group ring of <s>, with the units and the action on
    conjugates whose effect verify_generators inlines."""
    return SimpleNamespace(
        GroupRingElement=GroupRingElement,
        ONE=ONE,
        SIGMA=SIGMA,
        SIGMA_SQ=SIGMA_SQ,
        gr_mul=gr_mul,
        idempotents=idempotents,
        unit_list_p3=unit_list_p3,
        ConjugateVector=ConjugateVector,
        apply=apply,
    )


def delta(n1: int, n2: int) -> int:
    return n1 * n1 + 3 * n1 * n2 + 9 * n2 * n2


@pytest.fixture(scope="session", name="delta")
def delta_fixture():
    """delta(n1, n2) = n1^2 + 3*n1*n2 + 9*n2^2, which is f for every pair."""
    return delta


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


@pytest.fixture(scope="session", name="resolvents")
def resolvents_fixture():
    """resolvent_identities(n1, n2, shift): the resolvent identities of the
    pair, in exact arithmetic in Q[rho]/(f_n)."""
    return resolvent_identities


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


@pytest.fixture(scope="session")
def irreducibility():
    """(is_irreducible_cubic, irreducibility_criterion): the rational-root
    test and the Eisenstein-type sufficient condition on (n1, n2)."""
    return is_irreducible_cubic, irreducibility_criterion


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


@pytest.fixture(scope="session")
def search_oracle():
    """search_pairs(cond): the normalized pairs by the O(sqrt f) search."""
    return search_pairs


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
