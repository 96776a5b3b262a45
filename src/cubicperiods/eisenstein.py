"""Arithmetic in Z[zeta3] and the cubic Dirichlet characters built from it:
the pair route.

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
listed from this product (rhs_elements) and keep no factor:
character_for_representation reads which prime above p divides w off w
itself, by a congruence mod p.

Each odd prime p of f takes one Cornacchia step, one record
(_prime_element): omega_p = a^((p-1)/3) mod p at the first a >= 2 that is
no cube mod p, and from it a primary prime element pi_p of norm p, which
builds the pairs.  omega_p names the component character chi_p(a) =
zeta3^e when a^((p-1)/3) = omega_p^e mod p; mod 9 it is chi_9(2) = zeta3.
A cubic character mod f is a product of powers chi_q^e_q, held as its
exponents e_q in {1, 2}, the coordinates that kernel vectors use too.  The
other cube root of unity mod p would conjugate chi_p and swap e_p, and
change no field, pair or period.

The character of a pair needs no Gaussian sum.  The cubes of the Gaussian
sums are the other route, periods.component_gauss_sums and the functions
it calls, which share only this ring, Cornacchia's step and omega_p with
this one and take their Jacobi sums only once the points of a curve prove
them, so matching the periods against the pairs compares two independent
computations.  chi9_gauss_sum_report reads the sum mod 9 from there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .arith import Conductor, _component_moduli
from .errors import FactorizationMismatch

if TYPE_CHECKING:
    from .quadform import Representation

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


def chi9_gauss_sum_report(sign: int) -> dict:
    """Record whether tau or tau^3 for the mod-9 character equals 27*zeta3^sign.

    A primitive character mod 9 has |tau| = 3, so only the cube can reach
    modulus 27; both comparisons are made exactly, in Z[zeta9], rather than
    assumed.
    """
    # Imported here, as every command loads this module and few read the sum.
    from .periods import _chi9_gauss_sum

    tau, cube = _chi9_gauss_sum(chi9(sign))
    reference = 27 * (ZETA if sign == 1 else ZETA_SQ)
    return {
        "tau": tau,
        "tau_cubed": cube,
        "reference": reference,
        "tau_matches": tau == (reference.a, 0, 0, reference.b, 0, 0),
        "tau_cubed_matches": cube == reference,
    }


def cornacchia_element(p: int, omega: int) -> EisensteinInt:
    """The primary element of norm p above (p, zeta3 - omega) or its
    conjugate, for a prime p = 1 mod 3 and a primitive cube root of unity
    omega mod p.

    r = 2*omega + 1 is a square root of -3 mod p.  Cornacchia's algorithm
    (Euclid on p and r, stopped below sqrt(p)) then gives p = x^2 + 3y^2,
    and x + y*sqrt(-3) = (x + y) + 2y*zeta3 has norm p.  This is
    gcd(p, omega - zeta3) worked out in integers: which of pi and conj(pi)
    comes out is left open.
    """
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


class PrimeElement(NamedTuple):
    """The record of a prime p = 1 mod 3 (_prime_element): omega, which
    names chi_p, and pi, a primary prime element of norm p."""

    omega: int
    pi: EisensteinInt


def _prime_element(p: int) -> PrimeElement:
    """omega = a^((p-1)/3) mod p for the first a >= 2 with omega != 1, a
    primitive cube root of unity mod p, and cornacchia_element at omega.
    p is not proven prime; a p below 7 or not 1 mod 6 raises ValueError,
    as the search might never end there (at p = 2 and 3 the exponent is 0).
    """
    if p < 7 or p % 6 != 1:
        raise ValueError(f"{p} is not a prime = 1 mod 3")
    k = (p - 1) // 3
    a = 2
    while (omega := pow(a, k, p)) == 1:
        a += 1
    return PrimeElement(omega, cornacchia_element(p, omega))


def prime_elements(f: Conductor) -> dict[int, PrimeElement]:
    """Each odd prime p of f mapped to its record _prime_element(p)."""
    return {p: _prime_element(p) for p in f.odd_primes}


def rhs_elements(f: Conductor, primes: dict[int, PrimeElement]) -> list[EisensteinInt]:
    """(M + 3N*sqrt(-3))/2 for every normalized pair (M, N) of f, from the
    records primes = prime_elements(f).

    Each is a unit times the product over the odd primes p | f of pi_p or
    conj(pi_p): unit 1 when f is tame, so the product is primary, and
    3*zeta3^(+-1) when wild.  Conjugation keeps M and negates N, so one
    factor is held fixed (pi_p of the first prime when tame, 3*zeta3 when
    wild) and a product with negative zeta3 coordinate is replaced by its
    conjugate: one element per pair, 2^(nu-1) tame and 2^nu wild.
    validate_conductor has proven each p prime, so pi_p is taken without a
    second proof.
    """
    pis = [primes[p].pi for p in f.odd_primes]
    if f.is_wild:
        elements, free = [3 * ZETA], pis
    else:
        elements, free = pis[:1], pis[1:]
    for pi in free:
        pi_bar = pi.conjugate()
        elements = [x * y for x in elements for y in (pi, pi_bar)]
    return [x if x.b > 0 else x.conjugate() for x in elements]


def character_for_representation(r: Representation, omegas: dict[int, int]) -> tuple[int, ...]:
    """The primitive cubic character mod f of the pair (M, N), as its
    exponents e_q of chi_q in component order, read off w = (M +
    3N*sqrt(-3))/2 = a + b*zeta3; omegas maps each odd prime p of f to
    omega_p, the omega of its record (_prime_element).

    The exponent at p is 1 when the prime (p, zeta3 - omega_p) divides w,
    a + b*omega_p = 0 mod p, and 2 when its conjugate does, a - b -
    b*omega_p = 0 mod p; when neither does, FactorizationMismatch.  At 9
    it is chi9(sign) = N mod 3, as the wild normalization makes w/3 =
    (M0 + N)/2 + N*zeta3 = zeta3^sign mod 3.
    """
    a, b = r.element
    exponents = []
    for q in _component_moduli(r.conductor):
        if q == 9:
            exponents.append(r.N % 3)
        elif (a + b * omegas[q]) % q == 0:
            exponents.append(1)
        elif (a - b - b * omegas[q]) % q == 0:
            exponents.append(2)
        else:
            raise FactorizationMismatch(
                f"(M + 3N*sqrt(-3))/2 = {r.element} lies above no prime over {q}"
            )
    return tuple(exponents)
