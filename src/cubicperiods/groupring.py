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

from .cubicpoly import affine_relation
from .errors import GeneratorFailure
from .verdicts import Verdict, rounding_bound

if TYPE_CHECKING:
    from .periods import FieldRecord


def verify_generators(rec: "FieldRecord") -> Verdict:
    """Checks on the twelve ring-of-integers generators of a wild field.

    (a) alpha = n2*rho - n1/3 has trace zero;
    (b) each period plus one coincides with one of +-alpha^(i) +- 1.

    Both are corollaries of the exact checks, held to the rounding bound:
    (a) is the X^2 coefficient of h below, 0, and (b) is the period relation
    eta_j + 1 = mu*alpha_j + 1 with mu = +-1.

    That the candidates are algebraic integers is the main identity: the
    minimal polynomial of alpha is h(Y) = n2^3*f_n((Y - shift)/n2), so the
    identity n2^3*mu*f_n(X) = P(mu*(n2*X + shift)) at Y = n2*X + shift reads
    h(Y) = mu*P(mu*Y), an integer cubic, and so is s*h(s*Y - t*s), that of
    s*alpha + t, for the signs s and t.
    """
    f = rec.conductor
    if not f.is_wild:
        raise ValueError("generator checks apply to wild records")
    sp = rec.shanks_params
    _, shift = affine_relation(f, sp.n1)
    alphas = [sp.n2 * rho + shift for rho in rec.shanks_roots]
    bound = rounding_bound(rec.periods.values(), sp.n2, rec.shanks_roots, shift)

    trace = abs(sum(alphas))
    if trace > bound:
        raise GeneratorFailure(f"(a) trace of alpha is {trace}, over {bound}")

    twelve = [s * a + t for a in alphas for s in (1, -1) for t in (1, -1)]
    worst = 0.0
    for eta in rec.periods.values():
        worst = max(worst, min(abs(eta + 1 - g) for g in twelve))
    if worst > bound:
        raise GeneratorFailure(
            f"(b) a period plus one misses the twelve candidates by {worst} > {bound}"
        )
    return Verdict("generators", max(trace, worst))
