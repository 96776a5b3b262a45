"""Group-ring arithmetic over Q for a cyclic group of order three.

Elements c0 + c1*s + c2*s^2 multiply by cyclic convolution (s^3 = 1).  The
averaging idempotent e1 = (1 + s + s^2)/3 and its complement (2 - s - s^2)/3
split the algebra; 1 - 2*e1 is an involution.  The unit group relevant to
ring-of-integers generators is {+-s^i} in the tame case and gains the
factor 1 - 2*e1 in the wild case, for twelve units total.  The generator
checks of a wild field run in integer arithmetic; periods.match_fields
calls them on every wild record, so this module reads FieldRecord only
as a type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .arith import Kind
from .cubicpoly import RationalCubic, affine_relation, substitute_affine
from .errors import GeneratorFailure
from .quadform import ShanksParams
from .verdicts import DEFAULT_TOLERANCE, Verdict

if TYPE_CHECKING:
    from .periods import FieldRecord


class GroupRingElement(NamedTuple):
    c0: int | Fraction
    c1: int | Fraction
    c2: int | Fraction

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GroupRingElement(self.c0 * other, self.c1 * other, self.c2 * other)
        return gr_mul(self, other)

    __rmul__ = __mul__


ONE = GroupRingElement(1, 0, 0)
SIGMA = GroupRingElement(0, 1, 0)
SIGMA_SQ = GroupRingElement(0, 0, 1)


def gr_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Cyclic convolution of coefficients."""
    return GroupRingElement(
        x.c0 * y.c0 + x.c1 * y.c2 + x.c2 * y.c1,
        x.c0 * y.c1 + x.c1 * y.c0 + x.c2 * y.c2,
        x.c0 * y.c2 + x.c1 * y.c1 + x.c2 * y.c0,
    )


def idempotents() -> tuple[GroupRingElement, GroupRingElement]:
    """(e1, ef) with e1 the averaging idempotent; they are orthogonal and sum to 1."""
    e1 = GroupRingElement(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    ef = GroupRingElement(Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
    return e1, ef


def unit_list_p3(wild: bool) -> list[GroupRingElement]:
    """Units of the relevant order: 6 elements, or 12 when wild.

    Closure under multiplication and the presence of every inverse are
    checked before returning.
    """
    e1, _ = idempotents()
    flip = ONE - 2 * e1
    powers = [ONE, SIGMA, SIGMA_SQ]
    units = [sign * p for sign in (1, -1) for p in powers]
    if wild:
        units += [sign * (flip * p) for sign in (1, -1) for p in powers]
    for x in units:
        if not any(gr_mul(x, y) == ONE for y in units):
            raise GeneratorFailure(f"{x} has no inverse in the unit list")
        for y in units:
            if gr_mul(x, y) not in units:
                raise GeneratorFailure(f"{x} * {y} leaves the unit list")
    return units


class ConjugateVector(NamedTuple):
    """(x, s(x), s^2(x)) for an algebraic number x of a matched field."""

    x0: float
    x1: float
    x2: float

    def values(self) -> tuple[float, float, float]:
        return (self.x0, self.x1, self.x2)


def apply(x: GroupRingElement, v: ConjugateVector) -> ConjugateVector:
    """Linear action: s shifts coordinates cyclically."""
    c0, c1, c2 = float(x.c0), float(x.c1), float(x.c2)
    return ConjugateVector(
        c0 * v.x0 + c1 * v.x1 + c2 * v.x2,
        c0 * v.x1 + c1 * v.x2 + c2 * v.x0,
        c0 * v.x2 + c1 * v.x0 + c2 * v.x1,
    )


def generator_polys(
    sp: ShanksParams, shift: int
) -> tuple[RationalCubic, dict[tuple[int, int], RationalCubic]]:
    """The minimal polynomial h of alpha = n2*rho + shift over the roots rho
    of f_n, and that of s*alpha + t for each pair of signs (s, t), in integers.

    h is g(X - shift) for the integer cubic g(X) = n2^3*f_n(X/n2), whose
    roots are the n2*rho, and the minimal polynomial of s*alpha + t is
    s*h(s*X - t*s).
    """
    g = RationalCubic(1, -sp.n1, -(sp.n1 + 3 * sp.n2) * sp.n2, -(sp.n2**3))
    h = substitute_affine(g, 1, -shift)
    signs = [(s, t) for s in (1, -1) for t in (1, -1)]
    return h, {(s, t): substitute_affine(h, s, -t * s).scale(s) for s, t in signs}


def verify_generators(rec: "FieldRecord", tolerance: float = DEFAULT_TOLERANCE) -> Verdict:
    """Checks on the twelve ring-of-integers generators of a wild field.

    (a) alpha = n2*rho - n1/3 has trace zero;
    (b) each period plus one coincides with one of +-alpha^(i) +- 1;
    (c) every coefficient of the minimal polynomial h of alpha and of the
        minimal polynomials of +-alpha +- 1, as generator_polys builds them,
        is an int (so the candidates are algebraic integers), and
        h(X) = mu*P(mu*X) exactly.
    """
    f = rec.conductor
    if f.kind is not Kind.WILD:
        raise ValueError("generator checks apply to wild records")
    sp = rec.shanks_params
    mu, shift = affine_relation(f, sp.n1)
    alphas = [sp.n2 * rho + shift for rho in rec.shanks_roots]

    trace = abs(sum(alphas))
    if trace > tolerance:
        raise GeneratorFailure(f"(a) trace of alpha is {trace}, not 0")

    twelve = [s * a + t for a in alphas for s in (1, -1) for t in (1, -1)]
    worst = 0.0
    for eta in rec.periods.values():
        worst = max(worst, min(abs(eta + 1 - g) for g in twelve))
    if worst > tolerance:
        raise GeneratorFailure(
            f"(b) a period plus one misses the twelve candidates by {worst}"
        )

    h, shifted = generator_polys(sp, shift)
    polys = {"alpha": h, **{f"{s}*alpha{t:+d}": p for (s, t), p in shifted.items()}}
    for x, poly in polys.items():
        if any(type(c) is not int for c in poly.coefficients()):
            raise GeneratorFailure(
                f"(c) the minimal polynomial {poly.coefficients()} of {x} has a "
                "coefficient that is not an int"
            )
    expected = substitute_affine(rec.predicted_poly, mu, 0).scale(mu)
    if h != expected:
        raise GeneratorFailure(
            f"(c) h(X) = {h.coefficients()} differs from mu*P(mu*X) = "
            f"{expected.coefficients()}"
        )
    return Verdict("generators", max(trace, worst))
