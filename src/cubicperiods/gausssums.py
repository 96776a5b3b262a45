"""The Gaussian-sum route: the exact cube of the Gaussian sum of each CRT
component of a conductor, and the curve whose points prove its Jacobi sums.

This is one of the two independent computations that the matching of
periods.match_fields compares.  The other, the pair route of eisenstein,
reads each pair's character off its element w = (M + 3N*sqrt(-3))/2; no
pair is read here.  Only verify, scan and table take this route: periods
imports it, and enumerate, which matches no field, compiles neither.

The Gaussian sums enter only through their cubes, which are exact: for a
prime p, tau(chi_p)^3 = p * J(chi_p, chi_p) with the Jacobi sum J in
Z[zeta3] (Ireland and Rosen, ch. 8 section 3).  Stickelberger's
congruence names J: J = -1 mod 3 and N(J) = p make -J a primary prime
element of norm p, and J = 0 mod the prime (p, zeta3 - omega_p) for the
omega_p that names chi_p, which match_fields reads from the prime's
record (eisenstein._prime_element).  jacobi_sum runs Cornacchia's step on
that omega again (eisenstein.cornacchia_element), which gives pi or
conj(pi), and the congruence picks the one of the two.  The routes stay
independent all the same: the candidate comes from the congruence, and
only the curve E: y^2 = x^3 - 432, which has p + 1 + Tr J points over F_p
(Ireland and Rosen, ch. 18), accepts it, by the order of one point of E
or of its quadratic twist (certified_trace).  When no point proves the
candidate, J is refused, never guessed; no p is refused for its size.

certified_trace searches nothing: it accepts the one candidate only when
the order of one point leaves a single group order in Hasse's interval
(R. Schoof, "Counting points on elliptic curves over finite fields", 1995;
Cohen, ch. 7).  Points are taken in order of x on E and on its twist,
without a square root.  They are affine pairs (x, y) of integers mod p,
and None is the point at infinity; the group law of y^2 = x^3 + B does not
read B, so one pair of functions serves every model of E and of its twist.

For q = 9 the cube of the six-term sum is multiplied out in Z[zeta9].
One tuple of cubes per conductor feeds the periods.

The identification is never assumed: every step is re-checked exactly,
N(J) = p and J = -1 mod 3 included.
"""

from __future__ import annotations

import functools
import itertools
import math

from .arith import MR_BOUND, Conductor, _component_moduli, factorize
from .eisenstein import EisensteinInt, cornacchia_element
from .errors import (
    BudgetExceeded,
    CongruenceFailure,
    FactorizationMismatch,
    IdentityFailure,
)

# Points tried before the trace is left open.  Of the 8,988 primes = 1 mod 3
# below 2*10^5 the first point proves 8,742, and 19441 needs the most, 11.
# The points of E alone leave 225 of them unproven, 7 and 13 among them.
# The first point proves each of 4,000 seeded primes in 10^22..10^23.6,
# and 11 points prove every one of the 1,000 largest below MR_BOUND.
_POINT_TRIES = 32


def _add(
    P: tuple[int, int] | None, Q: tuple[int, int] | None, p: int
) -> tuple[int, int] | None:
    """P + Q on a curve y^2 = x^3 + B over F_p."""
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


def _mul(k: int, P: tuple[int, int], p: int) -> tuple[int, int] | None:
    """k*P for k >= 1, doubling from the top bit of k."""
    R = None
    for bit in bin(k)[2:]:
        R = _add(R, R, p)
        if bit == "1":
            R = _add(R, P, p)
    return R


def _points(p: int):
    """(P, sign) for x = 1, 2, ... with s = x^3 - 432 nonzero mod p.

    P = (s*x, s^2) lies on Y^2 = X^3 - 432*s^3, which is s*y^2 = x^3 - 432
    in X = s*x, Y = s^2*y: the twist of E by s.  It is E when s is a square
    mod p, sign 1, and the quadratic twist of E when not, sign -1.
    """
    half = (p - 1) // 2
    for x in itertools.count(1):
        s = (x * x * x - 432) % p
        if s:
            yield (s * x % p, s * s % p), 1 if pow(s, half, p) == 1 else -1


def certified_trace(p: int, t: int) -> bool:
    """Whether the order of one point proves that t = Tr J(chi, chi).

    A point P of E (sign 1) or of its twist (sign -1) must satisfy n*P = O
    for n = p + 1 + sign*t, and one that does not refutes t.  d, the
    product of the q-parts of ord(P) over the prime powers q^e || n from the
    largest q down, divides n and the group order.  The first q-part is
    found by multiplying (n/q^e)*P by q up to e times, which checks
    n*P = O on the way.  Hasse's bound puts the
    group order within 2*sqrt(p) of p + 1, as t^2 <= 4p puts n, and for
    t = -(p + 1) mod 9 both are = n mod 9 (#E = 0 and #E' = 2(p + 1) mod 9,
    as J = -1 mod 3).  So once lcm(d, 9)^2 > 16p the group order is n, the
    one number of its class mod lcm(d, 9) in the interval.  _points starts
    past the 3-torsion points of E at x = 0; the others, such as those at
    x = 12, have 9P = O and prove nothing.  Each of the two orders is
    factored once, at its first point.  The points of an order at or above
    MR_BOUND, where factorize proves no prime, prove nothing: only f = p
    has one, and one at most, as the mean of the two orders is p + 1.
    """
    if t * t > 4 * p or (p + 1 + t) % 9:
        return False
    factors = {}
    for P, sign in itertools.islice(_points(p), _POINT_TRIES):
        n = p + 1 + sign * t
        if n >= MR_BOUND:
            continue
        if n not in factors:
            factors[n] = factorize(n)
        d = 1
        for q, e in reversed(factors[n]):
            Q = _mul(n // q**e, P, p)
            for _ in range(e):
                if Q is None:
                    break
                Q = _mul(q, Q, p)
                d *= q
            if Q is not None:
                return False
            if math.lcm(d, 9) ** 2 > 16 * p:
                return True
    return False


def jacobi_sum(p: int, omega: int) -> EisensteinInt:
    """J(chi, chi) = sum over 2 <= a < p of chi(a) * chi(1 - a) for the
    character chi(a) = zeta3^e when a^((p-1)/3) = omega^e mod p, a prime
    = 1 mod 3.  Then tau(chi)^3 = p * J(chi, chi) exactly.

    J = -pi for the primary prime element pi of norm p with
    a + b*omega = 0 mod p (Stickelberger's congruence):
    cornacchia_element(p, omega) or its conjugate.  J is taken only when
    certified_trace proves Tr J, and is refused with BudgetExceeded
    otherwise, never for the size of p.  N(J) = p and J = -1 mod 3 are
    checked (Ireland and Rosen, ch. 9 section 4).  Over 1,000 seeded primes
    in 10^22..10^23.6 this took 1.2-1.5 ms at the median, 4.7-7.3 ms at p90
    and 0.27-0.43 s at most, on three seeds (2-core Xeon VM, Python 3.11.7).
    Every number factored is below MR_BOUND, so rho splits off a prime below
    1.8*10^12: 0.44-1.48 s at two constructed p, and about a second at most,
    an estimate.
    """
    pi = cornacchia_element(p, omega)
    if (pi.a + pi.b * omega) % p:
        pi = pi.conjugate()
    jacobi = -pi
    if not certified_trace(p, jacobi.trace()):
        raise BudgetExceeded(
            f"the points mod {p} leave Tr J(chi, chi) open, and J is never guessed"
        )
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
    """tau_q^3 for the component character chi_q of each component q of f,
    in component order: p * J(chi_p, chi_p) for a prime p (omegas[p] =
    omega_p), the cube multiplied out in Z[zeta9] for q = 9.  The character
    chi_q^2 has the conjugate cube, since chi_q(-1) = 1.
    """
    return tuple(
        _chi9_gauss_sum(1)[1] if q == 9 else q * jacobi_sum(q, omegas[q])
        for q in _component_moduli(f)
    )
