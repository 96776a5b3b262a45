"""Gaussian periods, the exact period polynomial of each kernel, and the
matching of kernels to representations.

The units mod f split by the CRT over the components q of f (each prime
p | f, and 9 when f is wild) into cyclic groups, each with its smallest
generator g_q.  A cubic character is a product of component characters
chi_q(g_q) = zeta3^(c_q); it is primitive when every c_q is nonzero, and
conjugate characters share a kernel, so each kernel is the coefficient
vector (1, c_2, ..., c_k) with c_i in {1, 2}.

The periods are the finite Fourier sums over the three characters trivial
on a kernel: with t = tau(chi) the Gaussian sum mod f of a character that
cuts it out and mu the period sum (mu(f) tame, 0 wild),

    eta_j = (mu + zeta3^-j * t + zeta3^j * conj(t)) / 3,

since tau(chi-bar) = conj(tau(chi)) when chi(-1) = 1, as for every cubic
character.  So Y_j = 3*eta_j - mu has e1 = 0, e2 = -3*|t|^2 = -3f and
e3 = t^3 + conj(t)^3 = Tr(T) for T = t^3, and the period polynomial is

    X^3 - mu*X^2 + (mu^2 - f)/3 * X - (mu^3 - 3*f*mu + Tr(T))/27.

T is exact: the Gaussian sum factors over the components up to a cube
root of unity, which the cube removes, so T is the product of the exact
cubes tau_q^3 in Z[zeta3] (eisenstein.component_gauss_sums) and their
conjugates.  This cubic and the closed form of a pair (M, N) agree in X^2
and X, and in the constant exactly when Tr(T) = m*f*M for m = Conductor.mu
(mu(f) tame, mu(f/9) wild): the closed form's -27*c0 is m*((M - 3)*f + 1)
when tame, where m^2 = 1, and m*f*M when wild.  So each kernel is matched
to a pair by the trace of its cube, which pins T down to conjugation: for
w = (M + 3N*sqrt(-3))/2, N(T) = |t|^6 = f^3 = N(m*f*w), and T is a root of
X^2 - Tr(T)*X + N(T), so T is m*f*w or its conjugate.  That matching is
the central two-route consistency check of the package, with Jacobi sums
on one side and the quadratic form on the other.  The float periods, which
the period relation and the generator checks compare with roots of the
Shanks cubics, come from a cube root of T in O(1) per kernel.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .arith import Conductor, _component_moduli
from .cubicpoly import (
    RationalCubic,
    affine_relation,
    cleared_shanks_poly,
    cubic_discriminant,
    period_poly_formula,
    verify_main_identity,
)
from .eisenstein import EisensteinInt, character_for_representation, component_gauss_sums
from .errors import (
    ComplexRoots,
    CongruenceFailure,
    CountMismatch,
    MatchingFailure,
    NonIntegralCoefficient,
    RelationFailure,
    ToleranceExceeded,
)
from .groupring import verify_generators
from .quadform import Representation, ShanksParams, representations, shanks_params
from .verdicts import _ROOT_ROUNDOFF, Verdict, rounding_bound


class PeriodTriple(NamedTuple):
    """The three periods for one kernel (a coefficient vector), sorted in
    descending order, with the exact cube T = t^3 of the kernel's Gaussian
    sum that they come from."""

    eta0: float
    eta1: float
    eta2: float
    kernel: tuple[int, ...]
    conductor: Conductor
    cube: EisensteinInt

    def values(self) -> tuple[float, float, float]:
        return (self.eta0, self.eta1, self.eta2)


class FieldRecord(NamedTuple):
    """One cyclic cubic field: the pair, the periods of the kernel matched to
    it, the roots of its Shanks cubic, and the verdicts of its checks.  The
    conductor, (n1, n2) and the closed form are the pair's, the matched
    kernel the periods'."""

    representation: Representation
    periods: PeriodTriple
    shanks_roots: tuple[float, float, float]
    verdicts: dict[str, Verdict]

    @property
    def conductor(self) -> Conductor:
        return self.representation.conductor

    @property
    def shanks_params(self) -> ShanksParams:
        return shanks_params(self.representation)

    @property
    def predicted_poly(self) -> RationalCubic:
        return period_poly_formula(self.conductor, self.representation.M)

    @property
    def matched_kernel(self) -> tuple[int, ...]:
        return self.periods.kernel

    def max_residual(self) -> float:
        return max((v.residual for v in self.verdicts.values()), default=0.0)


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


def _period_sum(f: Conductor) -> int:
    """mu = eta0 + eta1 + eta2: mu(f) when f is tame, 0 when wild."""
    return 0 if f.is_wild else f.mu


def gaussian_periods(f: Conductor) -> list[PeriodTriple]:
    """The periods of every kernel, in the order of primitive_cubic_kernels.

    tau_q^3 is the exact cube for the character chi_q(g_q) = zeta3, one per
    component.  For the kernel c, T is the product of tau_q^3 where c_q = 1
    and of its conjugate where c_q = 2, and with t = sqrt(f)*exp(i*phi/3),
    phi = arg(T), period j is (mu + 2*Re(zeta3^-j * t))/3.  The products are
    built by doubling over the components, the last one varying fastest, as
    in primitive_cubic_kernels: about one multiplication per kernel.
    """
    mu = _period_sum(f)
    root_f = math.sqrt(f.value)
    first, *rest = component_gauss_sums(f)
    # The Gaussian sum mod f is prod chi_q(f/q) * tau(chi_q).  That product
    # of chi_q(f/q) is a cube root of unity: it leaves T unchanged, and any
    # cube root of T only permutes the three periods of the kernel, which
    # are sorted.
    products = [first]
    for t in rest:
        t_bar = t.conjugate()
        products = [x * y for x in products for y in (t, t_bar)]
    triples = []
    for kernel, cube in zip(primitive_cubic_kernels(f), products, strict=True):
        z = cube.to_complex()
        phi = math.atan2(z.imag, z.real)
        etas = sorted(
            (
                (mu + 2 * root_f * math.cos((phi - 2 * math.pi * j) / 3)) / 3
                for j in range(3)
            ),
            reverse=True,
        )
        triples.append(PeriodTriple(*etas, kernel, f, cube))
    return triples


def numeric_period_poly(pt: PeriodTriple) -> RationalCubic:
    """The period polynomial of pt, exactly, from its cube T:

        X^3 - mu*X^2 + (mu^2 - f)/3 * X - (mu^3 - 3*f*mu + Tr(T))/27.

    Nothing is rounded; a coefficient that is not an integer raises
    NonIntegralCoefficient.
    """
    f = pt.conductor.value
    mu = _period_sum(pt.conductor)
    c1, r1 = divmod(mu * mu - f, 3)
    c0, r0 = divmod(-(mu**3 - 3 * f * mu + pt.cube.trace()), 27)
    if r1 or r0:
        raise NonIntegralCoefficient(
            f"f={f}: the period polynomial of T = {pt.cube} has a coefficient "
            f"that is not an integer"
        )
    return RationalCubic(1, -mu, c1, c0)


def real_roots_cubic(p: RationalCubic) -> tuple[float, float, float]:
    """Three real roots of a totally real cubic, sorted descending.

    The discriminant is computed exactly to decide realness.  The roots of
    the monic cubic with the float coefficients c_i/c3, each correctly
    rounded, come from the trigonometric form of the depressed cubic with two
    Newton polishing steps; each |p(x)| may exceed only _ROOT_ROUNDOFF times
    the sum of the Horner terms at x, what rounding alone leaves.
    """
    if p.c3 == 0:
        raise ValueError("degree must be exactly 3")
    disc = cubic_discriminant(p)
    if disc <= 0:
        raise ComplexRoots(f"discriminant {disc} is not positive")
    b, c, d = (float(x / p.c3) for x in (p.c2, p.c1, p.c0))
    dep_p = c - b * b / 3
    dep_q = 2 * b**3 / 27 - b * c / 3 + d
    m = 2 * math.sqrt(-dep_p / 3)
    arg = min(1.0, max(-1.0, 3 * dep_q / (dep_p * m)))
    theta = math.acos(arg) / 3
    roots = []
    for k in range(3):
        x = m * math.cos(theta - 2 * math.pi * k / 3) - b / 3
        for _ in range(2):
            fx = ((x + b) * x + c) * x + d
            dfx = (3 * x + 2 * b) * x + c
            if dfx != 0:
                x -= fx / dfx
        roots.append(x)
    roots.sort(reverse=True)
    for x in roots:
        residual = abs(((x + b) * x + c) * x + d)
        terms = ((abs(x) + abs(b)) * abs(x) + abs(c)) * abs(x) + abs(d)
        bound = _ROOT_ROUNDOFF * terms
        if residual > bound:
            raise ToleranceExceeded(f"|p({x})| = {residual} exceeds {bound}")
    return (roots[0], roots[1], roots[2])


def verify_period_relation(rec: FieldRecord) -> Verdict:
    """The periods equal mu*(n2*rho + shift) over the roots rho of f_n,
    compared as multisets (no ordering of the conjugates is implied).  The
    exact checks prove it, so the float distance is held to rounding_bound.
    """
    f = rec.conductor
    sp = rec.shanks_params
    mu, shift = affine_relation(f, sp.n1)
    mapped = sorted(
        (mu * (sp.n2 * rho + float(shift)) for rho in rec.shanks_roots), reverse=True
    )
    residual = max(abs(m - e) for m, e in zip(mapped, rec.periods.values()))
    bound = rounding_bound(rec.periods.values(), sp.n2, rec.shanks_roots, shift)
    if residual > bound:
        raise RelationFailure(
            f"f={f.value}, (n1,n2)=({sp.n1},{sp.n2}): multiset distance {residual} > {bound}"
        )
    return Verdict("period_relation", residual)


def verify_sign_congruences(rec: FieldRecord) -> Verdict:
    """The product of the periods is -mu = (-1)^(nu+1) mod 3.  It is read
    from the Gauss sum, as -c0 of numeric_period_poly (Tr(T)/27 when f is
    wild), so a wrong cube T fails it.

    On a record of match_fields it cannot fail, so it guards records built
    elsewhere: the matching made Tr(T) = mu*f*M, so the product is the
    closed form's, mu*f*M/27 with mu = mu(f/9) = (-1)^nu, and _check_pair's
    wild normalization makes M = 3*M0 with M0 = 2 mod 3, so f*M/27 =
    (f/9)*M0 is -1 mod 3, as f/9 is a product of primes = 1 mod 3.
    """
    f = rec.conductor
    if not f.is_wild:
        raise ValueError("sign congruences apply to wild records")
    eta_product = -numeric_period_poly(rec.periods).c0
    if (eta_product + f.mu) % 3 != 0:
        raise CongruenceFailure(
            f"f={f.value}: period product {eta_product} is not (-1)^(nu+1) mod 3"
        )
    return Verdict("sign_congruences")


def verify_kernel_character(rec: FieldRecord) -> Verdict:
    """The character built from (M, N) must cut out the kernel matched to it
    by the trace of its cube.

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


def match_fields(f: Conductor) -> list[FieldRecord]:
    """Match each kernel to the pair with f.mu*f*M = Tr(T) for its cube T,
    and run every check of each field.

    The pairs have distinct M, so each has its own key.  A kernel that
    matches no pair, or a pair that two kernels match, raises
    MatchingFailure; with as many kernels as pairs, the matching is then a
    bijection.  Each record is then checked, in this order, against the
    affine identity and the period relation, and when f is wild against the
    sign congruences, the twelve generators and the kernel character; a
    record only exists if all of its checks pass, and its verdicts keep that
    order.  The roots of f_n are found once per record, here, for the float
    checks to share.
    """
    reps = representations(f)
    triples = gaussian_periods(f)
    if len(triples) != len(reps):
        raise CountMismatch(
            f"conductor {f.value}: {len(reps)} pairs but {len(triples)} kernels"
        )
    by_trace = {f.mu * f.value * r.M: r for r in reps}
    assigned: dict[Representation, PeriodTriple] = {}
    for pt in triples:
        r = by_trace.get(pt.cube.trace())
        if r is None:
            raise MatchingFailure(
                f"conductor {f.value}: no pair has mu*f*M = Tr T for T = {pt.cube}"
            )
        if r in assigned:
            raise MatchingFailure(
                f"conductor {f.value}: two kernels match the pair M={r.M}"
            )
        assigned[r] = pt
    records = []
    for r in reps:
        sp = shanks_params(r)
        verdicts = {
            "oracle_equivalence": Verdict("oracle_equivalence"),
            "main_identity": verify_main_identity(f, sp),
        }
        roots = real_roots_cubic(cleared_shanks_poly(sp))
        rec = FieldRecord(r, assigned[r], roots, verdicts)
        verdicts["period_relation"] = verify_period_relation(rec)
        if f.is_wild:
            verdicts["sign_congruences"] = verify_sign_congruences(rec)
            verdicts["generators"] = verify_generators(rec)
            verdicts["kernel_character"] = verify_kernel_character(rec)
        records.append(rec)
    return records
