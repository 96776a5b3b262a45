"""Arithmetic in Z[zeta3] and the cubic Dirichlet characters built from it.

Elements are stored on the basis (1, zeta3) with zeta3 = exp(2*pi*i/3), so
zeta3^2 = -1 - zeta3 and sqrt(-3) = 1 + 2*zeta3.  The ring is norm-Euclidean
for the norm a^2 - a*b + b^2 and its six units are +-1, +-zeta3, +-zeta3^2.

The *primary* associate, congruent to 1 mod 3, is the normal form pinned
down by the Gaussian-sum normalization tau(chi_p)^3 = -p * pi for the
cubic residue character chi_p mod a prime element pi of norm p = 1 mod 3
(chi_p(a) = zeta3^e when a^((p-1)/3) = omega^e mod p, omega the residue of
zeta3 mod pi).  It ties each pair (M, N) with 4f = M^2 + 27 N^2 to one
character of conductor f via

    w = (M + 3N*sqrt(-3))/2 = 3 * zeta3^(+-1) * pi_1 * ... * pi_nu,

with the unit 1 in place of 3*zeta3^(+-1) when f is tame.  The pairs are
listed from this product (rhs_elements), with one primary prime element
per prime of f from Cornacchia's algorithm, and the pairs keep no factor:
character_for_representation reads which prime above p divides w off w
itself, by a congruence mod p.

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

No Cornacchia step runs here, and the character of a pair needs no
Gaussian sum, so matching the periods against the pairs compares two
independent computations.  For q = 9 the cube of the six-term sum is
multiplied out in Z[zeta9].  One tuple of cubes per conductor feeds the
periods.

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


def zeta3_residue(p: int) -> int:
    """omega_p = g^((p-1)/3) mod p for the smallest generator g mod a prime
    p = 1 mod 3: the residue of zeta3 mod the prime (p, zeta3 - omega_p),
    so chi(g) = zeta3 is chi(a) = zeta3^e when a^((p-1)/3) = omega_p^e."""
    g, _ = _generator(p)
    return pow(g, (p - 1) // 3, p)


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
    if (a + b * zeta3_residue(p)) % p:
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


def rhs_elements(f: Conductor) -> list[EisensteinInt]:
    """(M + 3N*sqrt(-3))/2 for every normalized pair (M, N) of f.

    Each is a unit times the product over the odd primes p | f of pi_p or
    conj(pi_p), pi_p = prime_element(p): unit 1 when f is tame, so the
    product is primary, and 3*zeta3^(+-1) when wild.  Conjugation keeps M
    and negates N, so one factor is held fixed (pi_p of the first prime
    when tame, 3*zeta3 when wild) and a product with negative zeta3
    coordinate is replaced by its conjugate: one element per pair, 2^(nu-1)
    tame and 2^nu wild.
    """
    pis = [prime_element(p) for p in f.odd_primes]
    if f.is_wild:
        elements, free = [3 * ZETA], pis
    else:
        elements, free = pis[:1], pis[1:]
    for pi in free:
        pi_bar = pi.conjugate()
        elements = [x * y for x in elements for y in (pi, pi_bar)]
    return [x if x.b > 0 else x.conjugate() for x in elements]


def character_for_representation(r: Representation, omegas: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive cubic character mod f of the pair (M, N), as its
    exponents at the component generators in component order, read off
    w = (M + 3N*sqrt(-3))/2 = a + b*zeta3; omegas holds zeta3_residue(p)
    for each odd prime p of f, in order.

    The exponent at p is 1 when the prime (p, zeta3 - omega_p) divides w,
    a + b*omega_p = 0 mod p, and 2 when its conjugate does, a - b -
    b*omega_p = 0 mod p; when neither does, FactorizationMismatch.  At 9
    it is chi9(sign) = N mod 3, as the wild normalization makes w/3 =
    (M0 + N)/2 + N*zeta3 = zeta3^sign mod 3.
    """
    f = r.conductor
    a, b = r.element
    exponents = {9: r.N % 3} if f.is_wild else {}
    for p, omega in zip(f.odd_primes, omegas, strict=True):
        if (a + b * omega) % p == 0:
            exponents[p] = 1
        elif (a - b - b * omega) % p == 0:
            exponents[p] = 2
        else:
            raise FactorizationMismatch(
                f"(M + 3N*sqrt(-3))/2 = {r.element} lies above no prime over {p}"
            )
    return tuple(exponents[q] for q in _component_moduli(f))
