"""The curve E: y^2 = x^3 - 432 over F_p, p = 1 mod 3, and the trace of the
Jacobi sum that its number of points gives.

For the cubic character chi mod p, E has p + 1 + Tr J(chi, chi) points
over F_p and its quadratic twist p + 1 - Tr J (Ireland and Rosen, ch. 18,
the curves y^2 = x^3 + D).  jacobi_trace finds t = Tr J among the
O(sqrt(p)) candidates that the Hasse bound and a congruence mod 9 leave, by
baby-step giant-step in O(p^(1/4)) group operations (Cohen, ch. 7,
Shanks-Mestre).  Points are taken in order of x on E and on its twist,
without a square root, and the answer is None, never a guess, when they
leave more than one candidate.

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

# Points tried before the trace is left open.  The primes = 1 mod 3 from
# 7 to 2*10^5 need one point in 98% of cases and 19441 needs the most, 11.
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
