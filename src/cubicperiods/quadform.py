"""Normalized solutions of 4f = M^2 + 27 N^2 for a conductor f.

Each valid conductor admits finitely many pairs (M, N) under the standard
normalization: N > 0 with M = 2 mod 3 in the tame case, and M = 3*M0 with
M0 = 2 mod 3 and 3 not dividing N in the wild case.  There are exactly
2^(nu-1) pairs when tame and 2^nu when wild, and the pairs parametrize the
cyclic cubic fields of conductor f.  They are not searched for: each pair
is the element (M + 3N*sqrt(-3))/2 = a + b*zeta3 of Z[zeta3], a unit times
one prime element above each odd prime of f (eisenstein.rhs_elements), so
the factorization of f gives them all at O(nu log p + 2^nu) integer cost.
Each pair keeps that factorization, the unit and the prime elements, for
the character check of a wild field to read.
The substitution n1 = (M - 3N)/2, n2 = N turns a pair into coprime
parameters with n1^2 + 3*n1*n2 + 9*n2^2 = f.  Each pair is checked once,
where it is built (_check_pair); M0 and (n1, n2) are derived from it
unchecked.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import Conductor, Kind
from .eisenstein import EisensteinInt, rhs_elements
from .errors import CountMismatch, FactorizationMismatch


class Representation(NamedTuple):
    """One normalized pair (M, N); M0 = M/3 is derived, in the wild case only.

    (M + 3N*sqrt(-3))/2 = unit * prod(prime_elements), as rhs_elements built
    it: the unit is 1 when tame and 3*zeta3^(+-1) when wild, and there is one
    prime element, pi_p or conj(pi_p), per odd prime p of f, in order.  Only
    the character check, which re-multiplies them, relies on the unit and
    the prime elements.  They take part in equality and hashing like every
    field; representations builds each pair once, so nothing compares two
    builds of one pair.  The constructor checks nothing: representations
    checks each pair it builds (_check_pair).
    """

    M: int
    N: int
    conductor: Conductor
    unit: EisensteinInt
    prime_elements: tuple[EisensteinInt, ...]

    @property
    def M0(self) -> int | None:
        """M/3 when f is wild, None when tame."""
        return self.M // 3 if self.conductor.is_wild else None


def _check_pair(r: Representation) -> None:
    """Raise ValueError unless r solves 4f = M^2 + 27N^2, is normalized and
    gives coprime Shanks parameters; the one check of a pair.

    What shanks_params derives, n1 = (M - 3N)/2 and n2 = N, then needs no
    check of its own.  The equation forces M = N mod 2, since M^2 + 3N^2 is
    0 mod 4, so n1 is an integer; and it is n1^2 + 3*n1*n2 + 9*n2^2 =
    (M^2 + 27N^2)/4 = f.  As 2*n1 = M mod 3, n1 = 0 mod 3 exactly when
    M = 0 mod 3, and then 2*n1/3 + n2 = M/3 = M0, so the wild normalization
    is the wild congruence of (n1, n2).  Only gcd(n1, n2) = 1 is checked
    here for its own sake: a common prime p of n1 and n2 puts p^2 in f.
    """
    f = r.conductor
    if r.M * r.M + 27 * r.N * r.N != 4 * f.value:
        raise ValueError("(M, N) does not solve 4f = M^2 + 27N^2")
    if r.N <= 0:
        raise ValueError("N must be positive")
    if f.kind is Kind.TAME:
        if r.M % 3 != 2:
            raise ValueError("tame normalization violated")
    elif r.M % 3 != 0 or r.M0 % 3 != 2 or r.N % 3 == 0:
        raise ValueError("wild normalization violated")
    if math.gcd((r.M - 3 * r.N) // 2, r.N) != 1:
        raise ValueError("n1 and n2 are not coprime")


class ShanksParams(NamedTuple):
    """Coprime (n1, n2) with delta(n1, n2) = n1^2 + 3*n1*n2 + 9*n2^2 = f."""

    n1: int
    n2: int


def delta(n1: int, n2: int) -> int:
    return n1 * n1 + 3 * n1 * n2 + 9 * n2 * n2


def representations(f: Conductor) -> list[Representation]:
    """All normalized (M, N) for f, sorted by M descending.

    Each element a + b*zeta3 of eisenstein.rhs_elements(f) equals
    (M + 3N*sqrt(-3))/2 with sqrt(-3) = 1 + 2*zeta3, so M = 2a - b and
    N = b/3.  _check_pair re-checks the equation and the normalization of
    every pair, and the count must be the field count.
    """
    found: list[Representation] = []
    for x, unit, prime_elements in rhs_elements(f):
        r = Representation(2 * x.a - x.b, x.b // 3, f, unit, prime_elements)
        try:
            _check_pair(r)
        except ValueError as exc:
            raise FactorizationMismatch(
                f"conductor {f.value}: {x} gives no normalized pair ({exc})"
            ) from exc
        found.append(r)
    found.sort(key=lambda r: -r.M)
    if len(found) != f.field_count:
        raise CountMismatch(
            f"conductor {f.value}: found {len(found)} pairs, expected {f.field_count}"
        )
    return found


def shanks_params(r: Representation) -> ShanksParams:
    """Derive (n1, n2) = ((M - 3N)/2, N) from a representation.

    It checks nothing: _check_pair has checked every pair that
    representations builds, and its docstring shows why n1 is an integer,
    delta(n1, n2) = f and the wild congruence hold.
    """
    return ShanksParams((r.M - 3 * r.N) // 2, r.N)
