"""Generator checks of a wild cyclic cubic field.

The Galois group <s> has order three.  In its group ring over Q the units
that carry one ring-of-integers generator to another are +-s^i and, when 3
ramifies wildly, also +-(1 - 2*e1)*s^i, with e1 = (1 + s + s^2)/3 the
averaging idempotent: twelve units.  On alpha + 1 with alpha of trace zero,
s^i acts as the conjugation alpha -> alpha^(i) and 1 - 2*e1 as
x -> x - 2*Tr(x)/3, which sends alpha + 1 to alpha - 1, so the twelve
images of alpha + 1 are +-alpha^(i) +- 1.  verify_generators inlines that
action: it compares each period plus one with those twelve numbers and
builds no group-ring element.  periods.match_fields calls it on every wild
record, so this module reads FieldRecord only as a type.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .arith import Kind
from .cubicpoly import RationalCubic, affine_relation, substitute_affine
from .errors import GeneratorFailure
from .quadform import ShanksParams
from .verdicts import DEFAULT_TOLERANCE, Verdict

if TYPE_CHECKING:
    from .periods import FieldRecord


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
