"""The Gaussian-sum route: the exact cube of the Gaussian sum of each CRT
component of a conductor.

This is one of the two independent computations that the matching of
periods.match_fields compares.  The other, the pair route of eisenstein,
reads each pair's character off its element w = (M + 3N*sqrt(-3))/2 with
Cornacchia's prime elements; no Cornacchia step runs here, and no pair is
read.  Only verify, scan and table take this route, so it is imported
where it first runs, and enumerate, which matches no field, never
compiles it.

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
smallest generator, the residue of chi(g) = zeta3, given by match_fields.
When the points leave t open, J is refused, never guessed.

For q = 9 the cube of the six-term sum is multiplied out in Z[zeta9].
One tuple of cubes per conductor feeds the periods.

The identification is never assumed: every step is re-checked exactly,
N(J) = p and J = -1 mod 3 included.
"""

from __future__ import annotations

import functools
import math

from .arith import Conductor, _component_moduli
from .eisenstein import EisensteinInt
from .errors import (
    BudgetExceeded,
    CongruenceFailure,
    FactorizationMismatch,
    IdentityFailure,
)

# Largest prime component whose Jacobi sum is computed at all.  By points it
# takes O(p^(1/4)) group operations, 30 ms for a prime near 10^15 and 60 ms
# near 10^16 (means of 10 primes, 2-core Intel Xeon VM), so verify and scan
# refuse a conductor with a larger prime factor.
POINT_COUNT_BUDGET = 10**16


def jacobi_sum(p: int, omega: int) -> EisensteinInt:
    """J(chi, chi) = sum over 2 <= a < p of chi(a) * chi(1 - a) for the
    character chi(g) = zeta3 at the smallest generator g mod p, a prime
    = 1 mod 3.  Then tau(chi)^3 = p * J(chi, chi) exactly.

    J = a + b*zeta3 is read off its trace t = Tr J, from the points of E
    and its twist (curve.jacobi_trace): 4p = t^2 + 3b^2 gives b up to
    sign and a = (t + b)/2, and Stickelberger's congruence keeps the sign
    with a + b*omega = 0 mod p, omega = g^((p-1)/3) as given.  A trace the
    points leave open is refused with BudgetExceeded, at any p.  N(J) = p
    and J = -1 mod 3 are checked (Ireland and Rosen, ch. 9 section 4).
    """
    if p > POINT_COUNT_BUDGET:
        raise BudgetExceeded(
            f"the Jacobi sum mod {p} takes O(p^(1/4)) point operations, beyond "
            f"the budget of prime components up to {POINT_COUNT_BUDGET}"
        )
    # Imported here, so that a conductor with no prime component, such as
    # 9, never loads the module.
    from .curve import jacobi_trace

    t = jacobi_trace(p)
    if t is None:
        raise BudgetExceeded(
            f"the points mod {p} leave Tr J(chi, chi) open, and J is never guessed"
        )
    b = math.isqrt((4 * p - t * t) // 3)
    a = (t + b) // 2
    if (a + b * omega) % p:
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


def component_gauss_sums(f: Conductor, omegas: dict[int, int]) -> tuple[EisensteinInt, ...]:
    """tau_q^3 for the character chi_q(g_q) = zeta3 of each component q of
    f, in component order: p * J(chi_p, chi_p) for a prime p (omegas[p] =
    omega_p), the cube multiplied out in Z[zeta9] for q = 9.  The character
    chi_q(g_q) = zeta3^2 has the conjugate cube, since chi_q(-1) = 1.
    """
    return tuple(
        _chi9_gauss_sum(1)[1] if q == 9 else q * jacobi_sum(q, omegas[q])
        for q in _component_moduli(f)
    )
