"""Numeric Gaussian periods and the matching of kernels to representations.

The units mod f split by the CRT over the components q of f (each prime
p | f, and 9 when f is wild) into cyclic groups, each with its smallest
generator g_q.  A cubic character is a product of component characters
chi_q(g_q) = zeta3^(c_q); it is primitive when every c_q is nonzero, and
conjugate characters share a kernel, so each kernel is the coefficient
vector (1, c_2, ..., c_k) with c_i in {1, 2}.

The periods are the finite Fourier sums over the three characters trivial
on a kernel: with t = tau(chi) the Gaussian sum mod f of a character that
cuts it out,

    eta_j = (mu(f) + zeta3^-j * t + zeta3^j * conj(t)) / 3,

since tau(chi-bar) = conj(tau(chi)) when chi(-1) = 1, as for every cubic
character.  The Gaussian sum factors over the components, so one sum
tau_q per component (eisenstein.component_gauss_sums, O(q) terms) gives
the periods of every kernel, and no sum runs over the units mod f.

The periods are the roots of a monic integer cubic.  Rounding its numeric
coefficients and comparing with the closed-form period polynomial for each
pair (M, N) produces a perfect matching between representations and
kernels; that matching is the central two-route consistency check of the
package, with the Gaussian sums on one side and exact rational arithmetic
on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .arith import (
    Conductor,
    Kind,
    _component_moduli,
    _generator,
    euler_phi,
    factorize,
)
from .cubicpoly import (
    RationalCubic,
    affine_relation,
    cubic_discriminant,
    period_poly_formula,
    shanks_poly,
    verify_main_identity,
)
from .eisenstein import (
    ONE,
    ZETA,
    ZETA_SQ,
    character_for_representation,
    component_gauss_sums,
)
from .errors import (
    ComplexRoots,
    CongruenceFailure,
    CountMismatch,
    MatchingFailure,
    RelationFailure,
    RoundingFailure,
    ToleranceExceeded,
)
from .quadform import Representation, ShanksParams, representations, shanks_params
from .verdicts import Verdict

DEFAULT_TOLERANCE = 1e-6
# zeta3^-j for j = 0, 1, 2
_ZETA3_INVERSE_POWERS = tuple(z.to_complex() for z in (ONE, ZETA_SQ, ZETA))


@dataclass(frozen=True)
class UnitGroup:
    """(Z/fZ)^x as a product of cyclic groups, one per prime-power factor."""

    modulus: int
    generators: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PeriodTriple:
    """The three periods for one kernel (a coefficient vector), sorted in
    descending order."""

    eta0: float
    eta1: float
    eta2: float
    kernel: tuple[int, ...]
    conductor: Conductor

    def values(self) -> tuple[float, float, float]:
        return (self.eta0, self.eta1, self.eta2)


@dataclass(frozen=True)
class FieldRecord:
    """One cyclic cubic field: pair, parameters, polynomial, kernel, periods,
    and the verdicts of every check run against it."""

    conductor: Conductor
    representation: Representation
    shanks_params: ShanksParams
    predicted_poly: RationalCubic
    matched_kernel: tuple[int, ...]
    periods: PeriodTriple
    verdicts: dict[str, Verdict]

    def max_residual(self) -> float:
        return max((v.residual for v in self.verdicts.values()), default=0.0)


def unit_group(f: Conductor) -> UnitGroup:
    gens = []
    for q in _component_moduli(f):
        g, order = _generator(q)
        rest = f.value // q
        # lift to a residue that is g mod q and 1 mod f/q
        lift = (1 + rest * ((g - 1) * pow(rest, -1, q) % q)) % f.value
        gens.append((lift, order))
    if math.prod(o for _, o in gens) != euler_phi(factorize(f.value)):
        raise CountMismatch(f"component orders do not multiply to phi({f.value})")
    return UnitGroup(f.value, tuple(gens))


def primitive_cubic_kernels(f: Conductor) -> list[tuple[int, ...]]:
    """One coefficient vector per conjugate pair of primitive cubic characters mod f.

    The character a -> c . label(a) mod 3 is primitive exactly when every
    coefficient is nonzero, and c and 2c share a kernel, so fixing the
    first coefficient to 1 enumerates kernels without repetition.
    """
    k = len(_component_moduli(f))
    kernels = [(1, *tail) for tail in product((1, 2), repeat=k - 1)]
    if len(kernels) != f.field_count:
        raise CountMismatch(
            f"conductor {f.value}: {len(kernels)} kernels, expected {f.field_count}"
        )
    return kernels


def gaussian_periods(f: Conductor) -> list[PeriodTriple]:
    """The periods of every kernel, in the order of primitive_cubic_kernels.

    tau_q is the Gaussian sum of the character chi_q(g_q) = zeta3, one per
    component.  For the kernel c, t is the product of tau_q where c_q = 1
    and of conj(tau_q) where c_q = 2, and period j is
    (mu(f) + 2*Re(zeta3^-j * t))/3, with mu(f) = 0 when f is wild.
    """
    mu = 0 if f.is_wild else f.mu
    taus = component_gauss_sums(f)
    triples = []
    for kernel in primitive_cubic_kernels(f):
        # The Gaussian sum mod f is prod chi_q(f/q) * tau(chi_q).  That
        # product of chi_q(f/q) is a cube root of unity, which only permutes
        # the three periods of the kernel; they are sorted, so it is left out.
        t = math.prod(tau if c == 1 else tau.conjugate() for tau, c in zip(taus, kernel))
        etas = sorted(
            ((mu + 2 * (z * t).real) / 3 for z in _ZETA3_INVERSE_POWERS), reverse=True
        )
        triples.append(PeriodTriple(*etas, kernel, f))
    return triples


def numeric_period_poly(
    pt: PeriodTriple, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[RationalCubic, float]:
    """Expand (X - eta0)(X - eta1)(X - eta2) and round to integers.

    Returns the integer cubic and the largest distance of a float
    coefficient from its integer.
    """
    x, y, z = pt.values()
    coeffs = (-(x + y + z), x * y + x * z + y * z, -(x * y * z))
    rounded = [round(c) for c in coeffs]
    worst = max(abs(c - r) for c, r in zip(coeffs, rounded))
    if worst > tolerance:
        offender = max(coeffs, key=lambda c: abs(c - round(c)))
        raise RoundingFailure(
            f"coefficient {offender} is {abs(offender - round(offender))} "
            f"from an integer (tolerance {tolerance})"
        )
    return RationalCubic(Fraction(1), *(Fraction(r) for r in rounded)), worst


def real_roots_cubic(
    p: RationalCubic, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[float, float, float]:
    """Three real roots of a totally real cubic, sorted descending.

    The discriminant is computed exactly to decide realness; the roots come
    from the trigonometric form of the depressed cubic with two Newton
    polishing steps, and each residual |p(root)| must stay below tolerance.
    """
    if p.c3 == 0:
        raise ValueError("degree must be exactly 3")
    disc = cubic_discriminant(p)
    if disc <= 0:
        raise ComplexRoots(f"discriminant {disc} is not positive")
    b = float(p.c2 / p.c3)
    c = float(p.c1 / p.c3)
    d = float(p.c0 / p.c3)
    dep_p = c - b * b / 3
    dep_q = 2 * b**3 / 27 - b * c / 3 + d
    m = 2 * math.sqrt(-dep_p / 3)
    arg = min(1.0, max(-1.0, 3 * dep_q / (dep_p * m)))
    theta = math.acos(arg) / 3
    roots = []
    fc3, fc2, fc1, fc0 = (float(x) for x in p.coefficients())
    for k in range(3):
        x = m * math.cos(theta - 2 * math.pi * k / 3) - b / 3
        for _ in range(2):
            fx = ((fc3 * x + fc2) * x + fc1) * x + fc0
            dfx = (3 * fc3 * x + 2 * fc2) * x + fc1
            if dfx != 0:
                x -= fx / dfx
        roots.append(x)
    roots.sort(reverse=True)
    for x in roots:
        residual = abs(((fc3 * x + fc2) * x + fc1) * x + fc0)
        if residual > tolerance:
            raise ToleranceExceeded(f"|p({x})| = {residual} exceeds {tolerance}")
    return (roots[0], roots[1], roots[2])


def verify_period_relation(
    rec: FieldRecord, tolerance: float = DEFAULT_TOLERANCE
) -> Verdict:
    """The periods equal mu*(n2*rho + shift) over the roots rho of f_n,
    compared as multisets (no ordering of the conjugates is implied)."""
    f = rec.conductor
    sp = rec.shanks_params
    mu, shift = affine_relation(f, sp.n1)
    roots = real_roots_cubic(shanks_poly(Fraction(sp.n1, sp.n2)), tolerance)
    mapped = sorted((mu * (sp.n2 * rho + float(shift)) for rho in roots), reverse=True)
    residual = max(abs(m - e) for m, e in zip(mapped, rec.periods.values()))
    if residual > tolerance:
        raise RelationFailure(
            f"f={f.value}, (n1,n2)=({sp.n1},{sp.n2}): multiset distance {residual}"
        )
    return Verdict("period_relation", residual)


def verify_sign_congruences(rec: FieldRecord) -> Verdict:
    """Exact integer congruences pinning the sign of the constant term:
    the product of the periods is (-1)^(nu+1) mod 3 and f*M/27 is -1 mod 3."""
    f = rec.conductor
    if f.kind is not Kind.WILD:
        raise ValueError("sign congruences apply to wild records")
    const = rec.predicted_poly.integer_coefficients()[3]
    eta_product = -const
    if (eta_product - (-1) ** (f.nu + 1)) % 3 != 0:
        raise CongruenceFailure(
            f"f={f.value}: period product {eta_product} is not (-1)^(nu+1) mod 3"
        )
    m_val = rec.representation.M
    if (f.value * m_val) % 27 != 0:
        raise CongruenceFailure(f"27 does not divide f*M for f={f.value}, M={m_val}")
    fm27 = f.value * m_val // 27
    if fm27 != f.odd_part * rec.representation.M0:
        raise CongruenceFailure(f"f*M/27 = {fm27} differs from (f/9)*M0")
    if (fm27 + 1) % 3 != 0:
        raise CongruenceFailure(f"f*M/27 = {fm27} is not -1 mod 3")
    return Verdict("sign_congruences")


def verify_kernel_character(rec: FieldRecord) -> Verdict:
    """The character built from (M, N) must cut out the kernel matched to it
    by the period-polynomial comparison.

    On labels the character is the functional whose coefficients are its
    exponents at the component generators.  Two functionals on (Z/3)^k
    have the same kernel exactly when they are proportional, so the
    exponents are scaled to first coordinate 1, as every kernel vector is,
    and compared with the matched vector.
    """
    exponents = character_for_representation(rec.representation)
    # 1 and 2 are their own inverses mod 3
    scaled = tuple(e * exponents[0] % 3 for e in exponents)
    if scaled != rec.matched_kernel:
        raise MatchingFailure(
            f"f={rec.conductor.value}, M={rec.representation.M}: character exponents "
            f"{exponents} do not cut out the period-matched kernel {rec.matched_kernel}"
        )
    return Verdict("kernel_character")


def match_fields(
    f: Conductor, tolerance: float = DEFAULT_TOLERANCE
) -> list[FieldRecord]:
    """Bijectively match representations to kernels and verify each field.

    Matching is by exact equality of the rounded numeric period polynomial
    with the closed form.  Every record is then checked against the affine
    identity and the period relation; a record only exists if all of its
    checks pass.
    """
    reps = representations(f)
    triples = gaussian_periods(f)
    if len(triples) != len(reps):
        raise CountMismatch(
            f"conductor {f.value}: {len(reps)} pairs but {len(triples)} kernels"
        )
    predicted: dict[tuple[int, int, int, int], Representation] = {}
    polys: dict[Representation, RationalCubic] = {}
    for r in reps:
        poly = period_poly_formula(f, r.M)
        key = poly.integer_coefficients()
        if key in predicted:
            raise MatchingFailure(f"duplicate predicted polynomial for f={f.value}")
        predicted[key] = r
        polys[r] = poly
    assigned: dict[Representation, tuple[PeriodTriple, float]] = {}
    for pt in triples:
        numeric, residual = numeric_period_poly(pt, tolerance)
        key = numeric.integer_coefficients()
        if key not in predicted:
            raise MatchingFailure(
                f"conductor {f.value}: no pair predicts the numeric polynomial {key}"
            )
        r = predicted[key]
        if r in assigned:
            raise MatchingFailure(
                f"conductor {f.value}: two kernels match the pair M={r.M}"
            )
        assigned[r] = (pt, residual)
    if len(assigned) != len(reps):
        raise MatchingFailure(f"conductor {f.value}: matching is not a bijection")
    records = []
    for r in reps:
        sp = shanks_params(r)
        pt, residual = assigned[r]
        verdicts = {
            "oracle_equivalence": Verdict("oracle_equivalence", residual),
            "main_identity": verify_main_identity(f, sp),
        }
        rec = FieldRecord(f, r, sp, polys[r], pt.kernel, pt, verdicts)
        verdicts["period_relation"] = verify_period_relation(rec, tolerance)
        records.append(rec)
    return records
