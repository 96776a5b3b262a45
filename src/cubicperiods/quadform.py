"""Normalized solutions of 4f = M^2 + 27 N^2 for a conductor f.

Each valid conductor admits finitely many pairs (M, N) under the standard
normalization: N > 0 with M = 2 mod 3 in the tame case, and M = 3*M0 with
M0 = 2 mod 3 and 3 not dividing N in the wild case.  There are exactly
2^(nu-1) pairs when tame and 2^nu when wild, and the pairs parametrize the
cyclic cubic fields of conductor f.  They are not searched for: each pair
is the element (M + 3N*sqrt(-3))/2 = a + b*zeta3 of Z[zeta3], a unit times
one prime element above each odd prime of f (eisenstein.rhs_elements), so
the factorization of f gives them all at O(nu log p + 2^nu) integer cost.
The substitution n1 = (M - 3N)/2, n2 = N turns a pair into coprime
parameters with n1^2 + 3*n1*n2 + 9*n2^2 = f, and shanks_params derives with
them the paper's relation eta = scale*rho + offset between the periods and
the roots of f_n, once per pair.  Each pair is checked once, where it is
built (_check_pair); M0 and (n1, n2) are derived from it unchecked.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import Conductor
from .eisenstein import EisensteinInt, PrimeElement, prime_elements, rhs_elements
from .errors import CountMismatch, FactorizationMismatch, NonIntegralCoefficient


class Representation(NamedTuple):
    """One normalized pair (M, N) of its conductor; M0 and the element w are
    derived.  The constructor checks nothing; representations checks each
    pair it builds (_check_pair).
    """

    M: int
    N: int
    conductor: Conductor

    @property
    def M0(self) -> int | None:
        """M/3 when f is wild, None when tame."""
        return self.M // 3 if self.conductor.is_wild else None

    @property
    def element(self) -> EisensteinInt:
        """w = (M + 3N*sqrt(-3))/2 = (M + 3N)/2 + 3N*zeta3, as sqrt(-3) = 1 + 2*zeta3."""
        return EisensteinInt((self.M + 3 * self.N) // 2, 3 * self.N)


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
    if not f.is_wild:
        if r.M % 3 != 2:
            raise ValueError("tame normalization violated")
    elif r.M % 3 != 0 or r.M0 % 3 != 2 or r.N % 3 == 0:
        raise ValueError("wild normalization violated")
    if math.gcd((r.M - 3 * r.N) // 2, r.N) != 1:
        raise ValueError("n1 and n2 are not coprime")


class ShanksParams(NamedTuple):
    """Coprime (n1, n2) with n1^2 + 3*n1*n2 + 9*n2^2 = f, and the relation
    eta = scale*rho + offset = mu*(n2*rho + shift) of the pair."""

    n1: int
    n2: int
    scale: int
    offset: int


def representations(
    f: Conductor, primes: dict[int, PrimeElement] | None = None
) -> list[Representation]:
    """All normalized (M, N) for f, sorted by M descending, built from the
    records of its primes (eisenstein.prime_elements), derived here unless
    the caller holds them.

    Each element a + b*zeta3 of eisenstein.rhs_elements equals
    (M + 3N*sqrt(-3))/2 with sqrt(-3) = 1 + 2*zeta3, so M = 2a - b is its
    trace and N = b/3.  _check_pair re-checks the equation and the
    normalization of every pair, and the count must be the field count.
    """
    found: list[Representation] = []
    for x in rhs_elements(f, prime_elements(f) if primes is None else primes):
        r = Representation(x.trace(), x.b // 3, f)
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
    """Derive (n1, n2) = ((M - 3N)/2, N) from a representation, with the
    relation eta = mu*(n2*rho + shift) between the periods and the roots rho
    of f_n as scale = mu*n2 and offset = mu*shift.  mu is the Moebius value
    of f (tame) or f/9 (wild), and the shift is (1 - n1)/3 when tame and
    -n1/3 when wild; a shift that is not an integer raises
    NonIntegralCoefficient.

    It checks nothing else: _check_pair has checked every pair that
    representations builds, and its docstring shows why n1 is an integer,
    n1^2 + 3*n1*n2 + 9*n2^2 = f and the wild congruence hold.
    """
    M, n2, f = r
    n1 = (M - 3 * n2) // 2
    numerator = -n1 if f.is_wild else 1 - n1
    if numerator % 3 != 0:
        raise NonIntegralCoefficient(
            f"shift {numerator}/3 for f={f.value}, n1={n1} is not an integer"
        )
    mu = f.mu
    return ShanksParams(n1, n2, mu * n2, mu * (numerator // 3))
