"""The curve E: y^2 = x^3 - 432 over F_p, p = 1 mod 3, and the proof that
a candidate is the trace of the Jacobi sum.

For the cubic character chi mod p, E has p + 1 + Tr J(chi, chi) points
over F_p and its quadratic twist p + 1 - Tr J (Ireland and Rosen, ch. 18,
the curves y^2 = x^3 + D).  certified_trace searches nothing: it is given
the one candidate that Stickelberger's congruence names
(gausssums.jacobi_sum) and accepts it only when the order of one point
leaves a single group order in Hasse's interval (R. Schoof, "Counting
points on elliptic curves over finite fields", 1995; Cohen, ch. 7).
Points are taken in order of x on E and on its twist, without a square
root, and a candidate that no point proves is refused, never taken.

Points are affine pairs (x, y) of integers mod p, and None is the point at
infinity.  The group law of y^2 = x^3 + B does not read B, so one pair of
functions serves every model of E and of its twist.

gausssums.jacobi_sum imports this module where it first runs, so only a
conductor with a prime component loads it: enumerate never does, nor
verify of 9.
"""

from __future__ import annotations

import itertools
import math

from .arith import MR_BOUND, factorize

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
