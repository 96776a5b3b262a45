"""Success records returned by the verify_* checks, and the rounding bounds
of their float comparisons.

The exact matching and the main identity prove eta_j = mu*(n2*rho_j +
shift), so the float checks (the period relation, generator checks (a) and
(b)) fail only on rounding: each residual is held to C*u*S, for u = 2^-53
and S the size of what the check subtracts.  C counts roundings of at most
u*S each, added up in the worst case (Higham, Accuracy and Stability of
Numerical Algorithms, section 5.1).  A period (mu + 2*sqrt(f)*cos(theta))/3
carries about 24 in sqrt(f)*cos(theta), 19 of them in the angle, scaled by
2*sqrt(f)/3 <= 1.54*S (a period is at least (sqrt(3f) - 1)/3), and 1 more:
38.  mu*(n2*rho + shift) carries about 7: a polished root within two ulps,
the product, the shift and the sum; (a) sums three of those, about 25.  (b)
adds 2 for its +-1, so 47 in all, and C = 64.  The largest residual
measured is 8.2*u*S, at f = 86149.
"""

from __future__ import annotations

from typing import NamedTuple

_U = 2.0**-53
_RELATION_ROUNDOFF = 64
# The residual |p(x)| of a float root x of a cubic, relative to the sum of
# its Horner terms: about 10 units (3 from rounding the root, 6 from
# evaluating, 1 from the coefficients), with room for a root an ulp off.
_ROOT_ROUNDOFF = 16 * _U


def rounding_bound(etas, n2: int, roots, shift: int) -> float:
    """C*u*S for the periods and the roots rho of f_n of one field, with
    S = max over j of max(|eta_j|, |n2*rho_j| + |shift|, 1)."""
    pairs = zip(etas, roots, strict=True)
    scale = max(max(abs(eta), abs(n2 * rho) + abs(shift), 1.0) for eta, rho in pairs)
    return _RELATION_ROUNDOFF * _U * scale


class Verdict(NamedTuple):
    """Outcome of one named check that passed: checks raise a
    VerificationError subclass when they fail.  residual is the worst float
    deviation observed (0.0 for exact checks); data carries a check's
    payload, such as the two sides of a polynomial identity, or None.
    """

    name: str
    residual: float = 0.0
    data: dict | None = None
