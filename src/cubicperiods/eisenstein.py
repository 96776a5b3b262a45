"""Arithmetic in Z[zeta3] and the cubic Dirichlet characters built from it.

Elements are stored on the basis (1, zeta3) with zeta3 = exp(2*pi*i/3), so
zeta3^2 = -1 - zeta3 and sqrt(-3) = 1 + 2*zeta3.  The ring is norm-Euclidean
for the norm a^2 - a*b + b^2 and its six units are +-1, +-zeta3, +-zeta3^2.

The *primary* associate, congruent to 1 mod 3, is the normal form pinned
down by the Gaussian-sum normalization -tau(chi_p)^3 = p * pi: for a
prime element pi of norm p = 1 mod 3, the cubic residue character chi_p
(chi_p(a) = zeta3^e when a^((p-1)/3) = omega^e mod p, omega the residue of
zeta3 mod pi) has a Gaussian sum whose negated cube is p times the primary
associate of pi.  That normalization is what ties each pair (M, N) with
4f = M^2 + 27 N^2 to a specific character of conductor f via

    (M + 3N*sqrt(-3))/2 = 3 * zeta3^(+-1) * pi_1 * ... * pi_nu.

The pairs are listed from this factorization (rhs_elements): one primary
prime element per prime of f, from a cube root of unity mod p, and the
products of them and their conjugates, with the unit 1 when f is tame.
Each pair keeps the unit and the prime elements it was built from, and
the character check reads them there; it re-multiplies them, so a wrong
unit or conjugate cannot slip through.

A character of the cyclic group (Z/q)^x, q = 9 or a prime p, is fixed by
its value at a generator, so each component character is held as one
exponent e in {1, 2}: chi(g) = zeta3^e at the smallest generator g, the
coordinate that kernel vectors use too.  Then chi(g^j) = zeta3^(e*j).

The Gaussian sums enter only through their cubes, which are exact: for a
prime p, tau(chi_p)^3 = p * J(chi_p, chi_p) with the Jacobi sum J in
Z[zeta3] (Ireland and Rosen, ch. 8 section 3).  jacobi_sum reads the
trace t = Tr J off the curve E: y^2 = x^3 - 432, which has p + 1 + t
points over F_p (Ireland and Rosen, ch. 18), by baby-step giant-step in
O(p^(1/4)) group operations (curve.jacobi_trace; Cohen, ch. 7).  The
points are taken in order of x, on E and on its quadratic twist, which has
p + 1 - t points; later points only narrow the candidates of the first.
4p = t^2 + 3b^2 then gives J = (t + b)/2 + b*zeta3 up to the sign of b,
that is up to conjugation, and Stickelberger's congruence picks the sign:
J = 0 mod the prime (p, zeta3 - omega) for omega = g^((p-1)/3), g the
smallest generator, the residue of chi(g) = zeta3.  When the points leave
t open, J is refused, never guessed.

No Cornacchia step runs here: the prime elements that the pairs are built
from come from Cornacchia's algorithm (prime_element), so matching the
periods against the pairs still compares two independent computations.
For q = 9 the cube of the six-term sum is multiplied out in Z[zeta9].  One
tuple of cubes per conductor feeds the periods and the character check.

The identification is never assumed: every step is re-checked exactly,
N(J) = p and J = -1 mod 3 included.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .arith import Conductor, _component_moduli, _generator
from .errors import (
    BudgetExceeded,
    CongruenceFailure,
    FactorizationMismatch,
    IdentityFailure,
    NormalizationFailure,
    NotPrimitiveRoot,
)

if TYPE_CHECKING:
    from .quadform import Representation

# Largest prime component whose Jacobi sum is computed at all.  By points it
# takes O(p^(1/4)) group operations, 30 ms for a prime near 10^15 and 60 ms
# near 10^16 (means of 10 primes, 2-core Intel Xeon VM), so verify and scan
# refuse a conductor with a larger prime factor.
POINT_COUNT_BUDGET = 10**16

_SQRT3_2 = math.sqrt(3.0) / 2.0


class EisensteinInt(NamedTuple):
    """a + b*zeta3 with integer a, b."""

    a: int
    b: int

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return EisensteinInt(self.a * other, self.b * other)
        # zeta3^2 = -1 - zeta3
        return EisensteinInt(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a - self.b * other.b,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def trace(self) -> int:
        """x + conj(x) = 2a - b."""
        return 2 * self.a - self.b

    def to_complex(self) -> complex:
        return complex(self.a - self.b / 2.0, self.b * _SQRT3_2)


ONE = EisensteinInt(1, 0)
ZETA = EisensteinInt(0, 1)
ZETA_SQ = EisensteinInt(-1, -1)
UNITS = (ONE, ZETA, ZETA_SQ, -ONE, -ZETA, -ZETA_SQ)


# An element of norm coprime to 3 is congruent mod 3 to exactly one unit v,
# and conj(v) = 1/v takes it to its associate congruent to 1 mod 3.
_PRIMARY_UNIT = {(v.a % 3, v.b % 3): v.conjugate() for v in UNITS}


def primary_associate(x: EisensteinInt) -> EisensteinInt:
    """The unique associate congruent to 1 mod 3 (requires norm coprime to 3)."""
    u = _PRIMARY_UNIT.get((x.a % 3, x.b % 3))
    if u is None:
        raise ValueError(f"{x} has no associate congruent to 1 mod 3")
    return u * x


def chi9(sign: int) -> int:
    """Exponent at 2, the smallest generator mod 9, of the character mod 9
    with chi(a) = zeta3^(sign*(a^2 - 1)/3): it is sign mod 3."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign % 3


def cubic_residue_character(p: int, pi: EisensteinInt) -> int:
    """Exponent e with g^((p-1)/3) = zeta3^e mod pi at the smallest generator
    g mod p, which fixes chi(a) = a^((p-1)/3) mod pi at every a.

    The quotient Z[zeta3]/(pi) is the field with p elements; zeta3 reduces
    to an integer omega with omega^2 + omega + 1 = 0 mod p, which turns
    character evaluation into modular exponentiation.
    """
    if pi.norm() != p:
        raise ValueError("pi must have norm p")
    if pi.b % p == 0:
        raise NotPrimitiveRoot(f"{pi} does not embed zeta3 into Z/{p}")
    omega = -pi.a * pow(pi.b, -1, p) % p
    if (omega * omega + omega + 1) % p != 0:
        raise NotPrimitiveRoot(f"residue {omega} of zeta3 mod {pi} is not a cube root of 1")
    g, _ = _generator(p)
    k = (p - 1) // 3
    t = pow(g, k, p)
    if t == omega:
        return 1
    if t == omega * omega % p:
        return 2
    raise NotPrimitiveRoot(f"{g}^{k} mod {p} is not a primitive cube root of unity")


def jacobi_sum(p: int) -> EisensteinInt:
    """J(chi, chi) = sum over 2 <= a < p of chi(a) * chi(1 - a) for the
    character chi(g) = zeta3 at the smallest generator g mod p, a prime
    = 1 mod 3.  Then tau(chi)^3 = p * J(chi, chi) exactly.

    J = a + b*zeta3 is read off its trace t = Tr J, from the points of E
    and its twist (curve.jacobi_trace): 4p = t^2 + 3b^2 gives b up to
    sign and a = (t + b)/2, and Stickelberger's congruence keeps the sign
    with a + b*omega = 0 mod p, omega = g^((p-1)/3).  A trace the points
    leave open is refused with BudgetExceeded, at any p.  N(J) = p and
    J = -1 mod 3 are checked (Ireland and Rosen, ch. 9 section 4).
    """
    if p > POINT_COUNT_BUDGET:
        raise BudgetExceeded(
            f"the Jacobi sum mod {p} takes O(p^(1/4)) point operations, beyond "
            f"the budget of prime components up to {POINT_COUNT_BUDGET}"
        )
    # Imported here, so that a command that takes no Jacobi sum, such as
    # enumerate, never loads the module.
    from .curve import jacobi_trace

    t = jacobi_trace(p)
    if t is None:
        raise BudgetExceeded(
            f"the points mod {p} leave Tr J(chi, chi) open, and J is never guessed"
        )
    b = math.isqrt((4 * p - t * t) // 3)
    a = (t + b) // 2
    g, _ = _generator(p)
    if (a + b * pow(g, (p - 1) // 3, p)) % p:
        a, b = a - b, -b
    jacobi = EisensteinInt(a, b)
    if jacobi.norm() != p:
        raise FactorizationMismatch(f"J(chi, chi) = {jacobi} mod {p} has norm {jacobi.norm()}")
    if jacobi.a % 3 != 2 or jacobi.b % 3 != 0:
        raise CongruenceFailure(f"J(chi, chi) = {jacobi} mod {p} is not -1 mod 3")
    return jacobi


def _z9(coeffs: list[int]) -> tuple[int, ...]:
    """The polynomial with these coefficients (degree <= 10) reduced mod
    Phi_9 = x^6 + x^3 + 1: coordinates in Z[zeta9] on 1, zeta9, ..., zeta9^5."""
    c = coeffs + [0] * (11 - len(coeffs))
    for k in range(10, 5, -1):  # x^k = -x^(k-3) - x^(k-6)
        c[k - 3] -= c[k]
        c[k - 6] -= c[k]
    return tuple(c[:6])


def _z9_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    product = [0] * 11
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            product[i + j] += a * b
    return _z9(product)


@functools.lru_cache(maxsize=2)
def _chi9_gauss_sum(e: int) -> tuple[tuple[int, ...], EisensteinInt]:
    """tau(chi) in Z[zeta9] for the character mod 9 with chi(2) = zeta3^e,
    and its cube, which lies in Z[zeta3].

    chi(2^j) = zeta3^(e*j) = zeta9^(3*e*j), so tau is the sum over j < 6 of
    zeta9^(3*e*j + 2^j).
    """
    terms = [0] * 9
    for j in range(6):
        terms[(3 * e * j + pow(2, j, 9)) % 9] += 1
    tau = _z9(terms)
    cube = _z9_mul(_z9_mul(tau, tau), tau)
    if any(cube[i] for i in (1, 2, 4, 5)):
        raise IdentityFailure(f"tau^3 = {cube} mod 9 is not in Z[zeta3]")
    return tau, EisensteinInt(cube[0], cube[3])


def component_gauss_sums(f: Conductor) -> tuple[EisensteinInt, ...]:
    """tau_q^3 for the character chi_q(g_q) = zeta3 of each component q of
    f, in component order: p * J(chi_p, chi_p) for a prime p, the cube
    multiplied out in Z[zeta9] for q = 9.  The character chi_q(g_q) =
    zeta3^2 has the conjugate cube, since chi_q(-1) = 1.
    """
    return tuple(
        _chi9_gauss_sum(1)[1] if q == 9 else q * jacobi_sum(q)
        for q in _component_moduli(f)
    )


def chi9_gauss_sum_report(sign: int) -> dict:
    """Record whether tau or tau^3 for the mod-9 character equals 27*zeta3^sign.

    A primitive character mod 9 has |tau| = 3, so only the cube can reach
    modulus 27; both comparisons are made exactly, in Z[zeta9], rather than
    assumed.
    """
    tau, cube = _chi9_gauss_sum(chi9(sign))
    reference = 27 * (ZETA if sign == 1 else ZETA_SQ)
    return {
        "tau": tau,
        "tau_cubed": cube,
        "reference": reference,
        "tau_matches": tau == (reference.a, 0, 0, reference.b, 0, 0),
        "tau_cubed_matches": cube == reference,
    }


def prime_element(p: int) -> EisensteinInt:
    """A primary prime element of norm p, for a prime p = 1 mod 3.

    omega = a^((p-1)/3) mod p for the first a >= 2 with omega != 1 is a
    primitive cube root of unity mod p, so r = 2*omega + 1 is a square root
    of -3 mod p.  Cornacchia's algorithm (Euclid on p and r, stopped below
    sqrt(p)) then gives p = x^2 + 3y^2, and x + y*sqrt(-3) =
    (x + y) + 2y*zeta3 has norm p.  This is gcd(p, omega - zeta3) worked
    out in integers: which of pi and conj(pi) comes out is left open.
    """
    k = (p - 1) // 3
    a = 2
    while (omega := pow(a, k, p)) == 1:
        a += 1
    prev, r = p, (2 * omega + 1) % p
    while r * r > p:
        prev, r = r, prev % r
    y_squared, rem = divmod(p - r * r, 3)
    y = math.isqrt(y_squared)
    pi = primary_associate(EisensteinInt(r + y, 2 * y))
    if rem or pi.norm() != p:
        raise FactorizationMismatch(
            f"Cornacchia's algorithm for {p} = x^2 + 3y^2 ended at x = {r}, not a solution"
        )
    return pi


def rhs_elements(
    f: Conductor,
) -> list[tuple[EisensteinInt, EisensteinInt, tuple[EisensteinInt, ...]]]:
    """(M + 3N*sqrt(-3))/2 for every normalized pair (M, N) of f, each with
    its factorization: the unit, and the prime element of each odd prime of
    f, in order, that were multiplied into it.

    Each is a unit times the product over the odd primes p | f of pi_p or
    conj(pi_p), pi_p = prime_element(p): unit 1 when f is tame, so the
    product is primary, and 3*zeta3^(+-1) when wild.  Conjugation keeps M
    and negates N, so one factor is held fixed (pi_p of the first prime
    when tame, 3*zeta3 when wild) and a product with negative zeta3
    coordinate is replaced by its conjugate, and so is each of its
    factors: one element per pair, 2^(nu-1) tame and 2^nu wild.
    """
    pis = [prime_element(p) for p in f.odd_primes]
    if f.is_wild:
        unit = 3 * ZETA
        elements, free = [(unit, ())], pis
    else:
        unit = ONE
        elements, free = [(pis[0], (pis[0],))], pis[1:]
    for pi in free:
        pi_bar = pi.conjugate()
        elements = [
            (x * y, factors + (y,)) for x, factors in elements for y in (pi, pi_bar)
        ]
    unit_bar = unit.conjugate()
    return [
        (x, unit, factors)
        if x.b > 0
        else (x.conjugate(), unit_bar, tuple(y.conjugate() for y in factors))
        for x, factors in elements
    ]


def character_for_representation(
    r: Representation, cubes: tuple[EisensteinInt, ...]
) -> tuple[int, ...]:
    """The primitive cubic character mod f attached to a wild pair (M, N),
    as its exponents at the component generators, in component order.

    The mod-9 sign and the prime elements are the unit 3*zeta3^sign and the
    factors that the pair carries from rhs_elements.  They are multiplied
    out again and compared with (M + 3N*sqrt(-3))/2, and each prime
    component is validated exactly against J(chi_p, chi_p) = -pi_p, that is
    tau_p^3 = -p * pi_p with cubes = component_gauss_sums(f), conjugated
    when the exponent is 2.
    """
    f = r.conductor
    if not f.is_wild:
        raise ValueError("the character check applies to wild representations")
    product = r.unit
    for pi in r.prime_elements:
        product = product * pi
    source = EisensteinInt((r.M + 3 * r.N) // 2, 3 * r.N)
    if len(r.prime_elements) != f.nu or product != source:
        raise FactorizationMismatch(
            f"{r.unit} times the prime elements {r.prime_elements} does not give "
            f"(M + 3N*sqrt(-3))/2 for (M, N) = ({r.M}, {r.N})"
        )
    if r.unit == 3 * ZETA:
        sign = 1
    elif r.unit == 3 * ZETA_SQ:
        sign = -1
    else:
        raise FactorizationMismatch(f"the unit {r.unit} is not 3 * zeta3^(+-1)")
    moduli = _component_moduli(f)
    by_modulus = dict(zip(moduli, cubes))
    exponents = {9: chi9(sign)}
    for p, pi in zip(f.odd_primes, r.prime_elements):
        e = cubic_residue_character(p, pi)
        cube = by_modulus[p] if e == 1 else by_modulus[p].conjugate()
        if cube != -p * pi:
            raise NormalizationFailure(
                f"tau^3 = {cube} mod {p} is not -{p} * pi for the prime element pi = {pi}"
            )
        exponents[p] = e
    return tuple(exponents[q] for q in moduli)
