"""Normalized solutions of 4f = M^2 + 27 N^2 for a conductor f.

Each valid conductor admits finitely many pairs (M, N) under the standard
normalization: N > 0 with M = 2 mod 3 in the tame case, and M = 3*M0 with
M0 = 2 mod 3 and 3 not dividing N in the wild case.  There are exactly
2^(nu-1) pairs when tame and 2^nu when wild, and the pairs parametrize the
cyclic cubic fields of conductor f.  The substitution n1 = (M - 3N)/2,
n2 = N turns a pair into coprime parameters with
n1^2 + 3*n1*n2 + 9*n2^2 = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Conductor, Kind
from .errors import CongruenceFailure, CountMismatch, IdentityFailure, ParityError


@dataclass(frozen=True)
class Representation:
    """One normalized pair (M, N); M0 = M/3 is set only in the wild case."""

    M: int
    N: int
    M0: int | None
    conductor: Conductor

    def __post_init__(self) -> None:
        f = self.conductor
        if self.M * self.M + 27 * self.N * self.N != 4 * f.value:
            raise ValueError("(M, N) does not solve 4f = M^2 + 27N^2")
        if self.N <= 0:
            raise ValueError("N must be positive")
        if f.kind is Kind.TAME:
            if self.M0 is not None or self.M % 3 != 2:
                raise ValueError("tame normalization violated")
        else:
            if self.M0 is None or self.M != 3 * self.M0:
                raise ValueError("wild pairs need M = 3*M0")
            if self.M0 % 3 != 2 or self.N % 3 == 0:
                raise ValueError("wild normalization violated")


@dataclass(frozen=True)
class ShanksParams:
    """Coprime (n1, n2) with delta = n1^2 + 3*n1*n2 + 9*n2^2."""

    n1: int
    n2: int
    delta: int


def delta(n1: int, n2: int) -> int:
    return n1 * n1 + 3 * n1 * n2 + 9 * n2 * n2


def representations(f: Conductor) -> list[Representation]:
    """All normalized (M, N) for f, sorted by M descending.

    Enumeration is exhaustive over N up to sqrt(4f/27); for each N the
    complementary square fixes |M| and the mod-3 side condition fixes the
    sign, so the search is complete by construction.
    """
    four_f = 4 * f.value
    found: list[Representation] = []
    for n in range(1, math.isqrt(four_f // 27) + 1):
        square = four_f - 27 * n * n
        s = math.isqrt(square)
        if s * s != square:
            continue
        if f.kind is Kind.TAME:
            for m in (s, -s):
                if m % 3 == 2:
                    found.append(Representation(m, n, None, f))
                    break
        else:
            if s % 3 != 0 or n % 3 == 0:
                continue
            for m0 in (s // 3, -s // 3):
                if m0 % 3 == 2:
                    found.append(Representation(3 * m0, n, m0, f))
                    break
    found.sort(key=lambda r: -r.M)
    if len(found) != f.field_count:
        raise CountMismatch(
            f"conductor {f.value}: found {len(found)} pairs, expected {f.field_count}"
        )
    return found


def shanks_params(r: Representation) -> ShanksParams:
    """Derive (n1, n2) = ((M - 3N)/2, N) from a representation."""
    if (r.M - r.N) % 2 != 0:
        # impossible for a genuine solution of 4f = M^2 + 27N^2
        raise ParityError(f"M = {r.M} and N = {r.N} differ mod 2")
    n1 = (r.M - 3 * r.N) // 2
    n2 = r.N
    d = delta(n1, n2)
    if math.gcd(n1, n2) != 1:
        raise IdentityFailure(f"n1 = {n1} and n2 = {n2} are not coprime")
    if d != r.conductor.value:
        raise IdentityFailure(
            f"n1^2 + 3*n1*n2 + 9*n2^2 = {d}, not the conductor {r.conductor.value}"
        )
    if r.conductor.kind is Kind.WILD and (n1 % 3 != 0 or (2 * n1 // 3 + n2) % 3 != 2):
        raise CongruenceFailure(
            f"wild parameters ({n1}, {n2}) violate the mod-3 normalization"
        )
    return ShanksParams(n1, n2, d)
