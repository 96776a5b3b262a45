"""Exact integer cubics: the one-parameter family f_n, the period
polynomial, affine substitution, and the identity tying the two together.
disc(n2*f_n) = f^2 for f = n1^2 + 3*n1*n2 + 9*n2^2, so f_n is totally real.

f_n(X) = X^3 - n*X^2 - (n+3)*X - 1 is generic for cyclic cubic fields and
has square discriminant (n^2 + 3n + 9)^2.  For n = n1/n2 the package holds
it as the integer cubic n2*f_n (cleared_shanks_poly), its one home.

The periods eta_j of conductor f sum to m = period_sum(f), mu(f) when f
is tame and 0 when wild, and with tau = prod (3*eta_j - m) (periods shows
why) their cubic is

    X^3 - m*X^2 + (m^2 - f)/3 * X - (m^3 - 3*f*m + tau)/27,

period_poly(f, tau), the one formula.  The pair (M, N) of a field has
tau = mu*f*M, with mu = Conductor.mu, so its closed form is
period_poly_formula(f, M): when tame, m = mu and mu^2 = 1 give

    X^3 - mu*X^2 + (1-f)/3 * X - mu*((M-3)*f + 1)/27,

and when wild, m = 0 and mu = mu(f/9) give

    X^3 - f/3 * X - mu*f*M/27.

It agrees with f_n up to the change of variable X -> scale*X + offset of
the pair's relation (quadform.shanks_params).  That identity is checked
exactly in integer arithmetic, on n2*f_n.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import Conductor
from .errors import IdentityFailure, NonIntegralCoefficient
from .quadform import ShanksParams


class RationalCubic(NamedTuple):
    """c3*X^3 + c2*X^2 + c1*X + c0 with integer coefficients; iterating it
    gives them in descending degree order."""

    c3: int
    c2: int
    c1: int
    c0: int

    def scale(self, k: int) -> "RationalCubic":
        return RationalCubic(self.c3 * k, self.c2 * k, self.c1 * k, self.c0 * k)


def cleared_shanks_poly(sp: ShanksParams) -> RationalCubic:
    """n2*f_n for n = n1/n2: n2*X^3 - n1*X^2 - (n1 + 3*n2)*X - n2, in integers."""
    return RationalCubic(sp.n2, -sp.n1, -(sp.n1 + 3 * sp.n2), -sp.n2)


def period_sum(f: Conductor) -> int:
    """The sum of the three periods: mu(f) when f is tame, 0 when wild."""
    return 0 if f.is_wild else f.mu


def period_poly(f: Conductor, trace: int) -> RationalCubic:
    """The module docstring's formula at tau = trace, Tr(T) for the cube T
    of the periods' Gaussian sum.  Nothing is rounded; a coefficient that
    is not an integer raises NonIntegralCoefficient."""
    v = f.value
    m = period_sum(f)
    c1, r1 = divmod(m * m - v, 3)
    c0, r0 = divmod(-(m**3 - 3 * v * m + trace), 27)
    if r1 or r0:
        raise NonIntegralCoefficient(
            f"period polynomial for f={v}, Tr T={trace}: remainders {r1} mod 3, {r0} mod 27"
        )
    return RationalCubic(1, -m, c1, c0)


def period_poly_formula(f: Conductor, M: int) -> RationalCubic:
    """Closed-form period polynomial for conductor f and the M of one of its
    pairs: period_poly at Tr T = mu*f*M."""
    v = f.value
    n_squared, rest = divmod(4 * v - M * M, 27)
    if rest or n_squared <= 0 or math.isqrt(n_squared) ** 2 != n_squared:
        raise ValueError(f"M = {M} does not solve 4f = M^2 + 27N^2 for f={v}")
    return period_poly(f, f.mu * v * M)


def substitute_affine(p: RationalCubic, a: int, b: int) -> RationalCubic:
    """Exact expansion of p(a*X + b)."""
    c3, c2, c1, c0 = p
    return RationalCubic(
        c3 * a**3,
        3 * c3 * a * a * b + c2 * a * a,
        3 * c3 * a * b * b + 2 * c2 * a * b + c1 * a,
        c3 * b**3 + c2 * b * b + c1 * b + c0,
    )


def main_identity_sides(
    sp: ShanksParams, poly: RationalCubic
) -> tuple[RationalCubic, RationalCubic]:
    """The two sides of n2^3 * mu * f_n(X) = P(scale*X + offset), in integers,
    for the relation eta = scale*rho + offset of sp and the closed form P =
    poly of the pair, period_poly_formula(f, M) with M = 2*n1 + 3*n2.  The
    left side is scale*n2 = mu*n2^2 times the integer cubic n2*f_n.
    """
    lhs = cleared_shanks_poly(sp).scale(sp.scale * sp.n2)
    rhs = substitute_affine(poly, sp.scale, sp.offset)
    return lhs, rhs


def verify_main_identity(f: Conductor, sp: ShanksParams, poly: RationalCubic) -> float:
    """Check the two sides of main_identity_sides for exact equality; any
    coefficient difference raises IdentityFailure.  The residual is 0.0."""
    lhs, rhs = main_identity_sides(sp, poly)
    if lhs != rhs:
        diffs = [
            (deg, lc, rc)
            for deg, lc, rc in zip((3, 2, 1, 0), lhs, rhs)
            if lc != rc
        ]
        raise IdentityFailure(
            f"f={f.value}, (n1,n2)=({sp.n1},{sp.n2}): coefficients differ at {diffs}"
        )
    return 0.0

