"""The rounding bounds of the float checks.  A check that passes returns
its residual, the worst float deviation it saw (0.0 for the exact ones),
and one that fails raises a VerificationError subclass.  relation gives
the float side of a field: the values of its relation and their bound.

The exact matching and the main identity prove eta_j = scale*rho_j +
offset, the relation of the pair (quadform.shanks_params), so the float
checks (the period relation, generator checks (a) and (b)) fail only on
rounding: each residual is held to C*u*S, for u = 2^-53 and S the size of
what the check subtracts.  C counts roundings of at most
u*S each, added up in the worst case (Higham, Accuracy and Stability of
Numerical Algorithms, section 5.1).  A period (mu + 2*sqrt(f)*cos(theta))/3
carries about 24 in sqrt(f)*cos(theta), 19 of them in the angle, scaled by
2*sqrt(f)/3 <= 1.54*S (a period is at least (sqrt(3f) - 1)/3), and 1 more:
38.  scale*rho + offset carries about 7: a polished root within two ulps,
the product, the offset and the sum; (a) sums three of those, about 25.  (b)
adds 2 for its +-1, so 47 in all, and C = 64.  The largest residual
measured is 8.2*u*S, at f = 86149.
"""

from __future__ import annotations

_U = 2.0**-53
_RELATION_ROUNDOFF = 64
# The residual |p(x)| of a float root x of a cubic, relative to the sum of
# its Horner terms: about 10 units (3 from rounding the root, 6 from
# evaluating, 1 from the coefficients), with room for a root an ulp off.
_ROOT_ROUNDOFF = 16 * _U


def relation(rec) -> tuple[list[float], float]:
    """The float relation of a field (a periods.FieldRecord): the values
    scale*rho + offset of its pair's relation (quadform.shanks_params) over
    the roots rho of its Shanks cubic, in root order, and their rounding
    bound C*u*S against its periods eta, S = max over j of max(|eta_j|,
    |scale*rho_j| + |offset|, 1)."""
    sp = rec.shanks_params
    mapped = [sp.scale * rho + sp.offset for rho in rec.shanks_roots]
    pairs = zip(rec.periods.values(), rec.shanks_roots, strict=True)
    size = max(max(abs(eta), abs(sp.scale * rho) + abs(sp.offset), 1.0) for eta, rho in pairs)
    return mapped, _RELATION_ROUNDOFF * _U * size
