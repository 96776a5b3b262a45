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
cuts it out and mu = cubicpoly.period_sum(f) (mu(f) tame, 0 wild),

    eta_j = (mu + zeta3^-j * t + zeta3^j * conj(t)) / 3,

since tau(chi-bar) = conj(tau(chi)) when chi(-1) = 1, as for every cubic
character.  So Y_j = 3*eta_j - mu has e1 = 0, e2 = -3*|t|^2 = -3f and
e3 = t^3 + conj(t)^3 = Tr(T) for T = t^3, and the period polynomial is
cubicpoly.period_poly(f, Tr(T)).

T is exact: the Gaussian sum factors over the components up to a cube
root of unity, which the cube removes, so T is the product of the exact
cubes tau_q^3 in Z[zeta3] (gausssums.component_gauss_sums) and their
conjugates.  Each pair (M, N) is matched to the kernel its own character
cuts out, whose T must be m*f*w or its conjugate, for w = (M +
3N*sqrt(-3))/2 and m = Conductor.mu (verify_kernel_character).  That one
exact equation is the central two-route consistency check of the package,
with Jacobi sums on one side (gausssums, which match_fields imports where
it first runs) and the quadratic form on the other (eisenstein), and it
proves the rest of the matching.  It gives Tr(T) = m*f*M, so this cubic is
the closed form of the pair, period_poly_formula(f, M) = period_poly(f,
m*f*M): one polynomial.  It fixes w up to conjugation, and no two
normalized pairs (N > 0) are conjugate, so no two pairs reach one
kernel.  representations checks that there are field_count pairs, and the
2^(k-1) kernels of k components are field_count by construction, so every
kernel is reached once: the matching is a bijection.  The float periods,
which the period relation and the generator checks compare with roots of
the Shanks cubics, come from a cube root of T in O(1) per field.  The one
value per prime that the routes share, omega_p (eisenstein.zeta3_residue),
match_fields derives once.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .arith import Conductor, _component_moduli
from .cubicpoly import (
    RationalCubic,
    cleared_shanks_poly,
    cubic_discriminant,
    period_poly,
    period_poly_formula,
    period_sum,
    verify_main_identity,
)
from .eisenstein import ONE, EisensteinInt, character_for_representation, zeta3_residue
from .errors import (
    ComplexRoots,
    CongruenceFailure,
    CountMismatch,
    NormalizationFailure,
    RelationFailure,
    ToleranceExceeded,
)
from .groupring import verify_generators
from .quadform import Representation, ShanksParams, representations, shanks_params


class PeriodTriple(NamedTuple):
    """The three periods for one kernel (a coefficient vector), sorted in
    descending order, with the exact cube T = t^3 of the kernel's Gaussian
    sum that they come from."""

    eta0: float
    eta1: float
    eta2: float
    kernel: tuple[int, ...]
    cube: EisensteinInt

    def values(self) -> tuple[float, float, float]:
        return (self.eta0, self.eta1, self.eta2)


class FieldRecord(NamedTuple):
    """One cyclic cubic field: the pair, its (n1, n2) and relation eta =
    scale*rho + offset (quadform.shanks_params), its closed form
    (cubicpoly.period_poly_formula) and float relation (relation), each
    derived once, the periods of the kernel its character cuts out
    (verify_kernel_character), and each check's residual by name, in the
    order run (0.0 if exact).  The conductor is the pair's."""

    representation: Representation
    shanks_params: ShanksParams
    period_poly: RationalCubic
    periods: PeriodTriple
    relation: tuple[tuple[float, float, float], float]
    verdicts: dict[str, float]

    @property
    def conductor(self) -> Conductor:
        return self.representation.conductor

    def max_residual(self) -> float:
        return max(self.verdicts.values(), default=0.0)


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


def gaussian_periods(
    f: Conductor, kernel: tuple[int, ...], cubes: tuple[EisensteinInt, ...]
) -> PeriodTriple:
    """The periods of one kernel (a coefficient vector).

    cubes, from component_gauss_sums, holds tau_q^3, the exact cube for the
    character chi_q(g_q) = zeta3 of each component.  T is the product of
    tau_q^3 where c_q = 1 and of its conjugate where c_q = 2, and with t =
    sqrt(f)*exp(i*phi/3), phi = arg(T), period j is (mu + 2*Re(zeta3^-j * t))/3.
    """
    mu = period_sum(f)
    root_f = math.sqrt(f.value)
    # The Gaussian sum mod f is prod chi_q(f/q) * tau(chi_q).  That product
    # of chi_q(f/q) is a cube root of unity: it leaves T unchanged, and any
    # cube root of T only permutes the three periods of the kernel, which
    # are sorted.
    cube = math.prod(
        (t if c == 1 else t.conjugate() for t, c in zip(cubes, kernel, strict=True)), start=ONE
    )
    z = cube.to_complex()
    phi = math.atan2(z.imag, z.real)
    etas = sorted(
        ((mu + 2 * root_f * math.cos((phi - 2 * math.pi * j) / 3)) / 3 for j in range(3)),
        reverse=True,
    )
    return PeriodTriple(*etas, kernel, cube)


def numeric_period_poly(f: Conductor, pt: PeriodTriple) -> RationalCubic:
    """The exact period polynomial of pt, periods mod f: cubicpoly.period_poly
    at the trace of its cube T."""
    return period_poly(f, pt.cube.trace())


_U = 2.0**-53
_RELATION_ROUNDOFF = 64
# The residual |p(x)| of a float root x of a cubic, relative to the sum of
# its Horner terms: about 10 units (3 from rounding the root, 6 from
# evaluating, 1 from the coefficients), with room for a root an ulp off.
_ROOT_ROUNDOFF = 16 * _U


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


def relation(
    sp: ShanksParams, roots: tuple[float, float, float], periods: PeriodTriple
) -> tuple[tuple[float, float, float], float]:
    """The float side of a field: the values scale*rho + offset of its
    pair's relation (quadform.shanks_params) over the roots rho of its
    Shanks cubic, in root order, and their rounding bound C*u*S against its
    periods eta, S = max over j of max(|eta_j|, |scale*rho_j| + |offset|, 1).

    The exact matching and the main identity prove the relation, so the
    float checks (the period relation, generator checks (a) and (b)) fail
    only on rounding: each residual, the worst float deviation a check saw,
    is held to C*u*S, u = 2^-53.  C counts roundings of at most u*S each,
    added up in the worst case (Higham, Accuracy and Stability of Numerical
    Algorithms, section 5.1).  A period (mu + 2*sqrt(f)*cos(theta))/3
    carries about 24 in sqrt(f)*cos(theta), 19 of them in the angle, scaled
    by 2*sqrt(f)/3 <= 1.54*S (a period is at least (sqrt(3f) - 1)/3), and 1
    more: 38.  scale*rho + offset carries about 7: a polished root within
    two ulps, the product, the offset and the sum; (a) sums three of those,
    about 25.  (b) adds 2 for its +-1, so 47 in all, and C = 64.  The
    largest residual measured is 8.2*u*S, at f = 86149.
    """
    mapped = tuple(sp.scale * rho + sp.offset for rho in roots)
    pairs = zip(periods.values(), roots, strict=True)
    size = max(max(abs(eta), abs(sp.scale * rho) + abs(sp.offset), 1.0) for eta, rho in pairs)
    return mapped, _RELATION_ROUNDOFF * _U * size


def verify_period_relation(rec: FieldRecord) -> float:
    """The periods equal scale*rho + offset over the roots rho of f_n: the
    values of rec.relation, sorted descending, are compared one by one with
    the periods in their stored descending order.  The exact checks prove
    it, so the float distance, the residual, is held to the bound that
    rec.relation holds.
    """
    f = rec.conductor
    sp = rec.shanks_params
    values, bound = rec.relation
    mapped = sorted(values, reverse=True)
    residual = max(abs(m - e) for m, e in zip(mapped, rec.periods.values()))
    if residual > bound:
        raise RelationFailure(
            f"f={f.value}, (n1,n2)=({sp.n1},{sp.n2}): ordered distance {residual} > {bound}"
        )
    return residual


def verify_sign_congruences(rec: FieldRecord) -> float:
    """The product of the periods is -mu = (-1)^(nu+1) mod 3.  It is read
    from the Gauss sum, as -c0 of cubicpoly.period_poly at Tr(T) (Tr(T)/27
    when f is wild), so a wrong cube T fails it.

    On a record of match_fields it cannot fail, so it guards records built
    elsewhere: the matching made Tr(T) = mu*f*M, so the product is the
    closed form's, mu*f*M/27 with mu = mu(f/9) = (-1)^nu, and _check_pair's
    wild normalization makes M = 3*M0 with M0 = 2 mod 3, so f*M/27 =
    (f/9)*M0 is -1 mod 3, as f/9 is a product of primes = 1 mod 3.
    """
    f = rec.conductor
    if not f.is_wild:
        raise ValueError("sign congruences apply to wild records")
    eta_product = -numeric_period_poly(f, rec.periods).c0
    if (eta_product + f.mu) % 3 != 0:
        raise CongruenceFailure(
            f"f={f.value}: period product {eta_product} is not (-1)^(nu+1) mod 3"
        )
    return 0.0


def verify_kernel_character(
    r: Representation, cubes: tuple[EisensteinInt, ...], omegas: dict[int, int]
) -> PeriodTriple:
    """The periods of the kernel that the pair's character cuts out, once
    its cube T is checked to be the pair's; cubes as for gaussian_periods,
    omegas as for character_for_representation.

    Two functionals on (Z/3)^k share a kernel exactly when they are
    proportional, so the character with exponents e cuts out the kernel of
    e scaled to first coordinate 1.  Its Gaussian sum has tau^3 = m*f*w, m =
    Conductor.mu, and a kernel's T is the cube for the exponents that start
    with 1, so T = m*f*w when e0 = 1 and its conjugate when e0 = 2;
    otherwise NormalizationFailure.  This implies tau_p^3 = -p*pi_p at each
    p by unique factorization.
    """
    f = r.conductor
    exponents = character_for_representation(r, omegas)
    # 1 and 2 are their own inverses mod 3
    kernel = tuple(e * exponents[0] % 3 for e in exponents)
    pt = gaussian_periods(f, kernel, cubes)
    expected = f.mu * f.value * r.element
    if exponents[0] == 2:
        expected = expected.conjugate()
    if pt.cube != expected:
        raise NormalizationFailure(
            f"f={f.value}, M={r.M}: T = {pt.cube} of kernel {kernel} is not {expected}"
        )
    return pt


def match_fields(f: Conductor) -> list[FieldRecord]:
    """Match each pair to the kernel its character cuts out, and run every
    check of each field.

    For each pair, in this order: the kernel character, which matches the
    pair to its kernel and requires that kernel's T (verify_kernel_character),
    the affine identity, the period relation, and when f is wild the sign
    congruences and the twelve generators.  The module docstring shows why
    the matching is a bijection.  A record only exists if all of its checks
    pass; its verdicts keep that order, but a wild record lists the kernel
    character last, and a tame one does not list it.  The cubes and omega_p
    (once per conductor) and each pair's relation, closed form and float
    side are derived here, once, and passed to the checks that read them.
    """
    # Imported here, so that a command that matches no field, such as
    # enumerate, never compiles the Gaussian-sum route.
    from .gausssums import component_gauss_sums

    reps = representations(f)
    omegas = {p: zeta3_residue(p) for p in f.odd_primes}
    cubes = component_gauss_sums(f, omegas)
    records = []
    for r in reps:
        pt = verify_kernel_character(r, cubes, omegas)
        sp = shanks_params(r)
        poly = period_poly_formula(f, r.M)
        verdicts = {"oracle_equivalence": 0.0, "main_identity": verify_main_identity(f, sp, poly)}
        roots = real_roots_cubic(cleared_shanks_poly(sp))
        rec = FieldRecord(r, sp, poly, pt, relation(sp, roots, pt), verdicts)
        verdicts["period_relation"] = verify_period_relation(rec)
        if f.is_wild:
            verdicts["sign_congruences"] = verify_sign_congruences(rec)
            verdicts["generators"] = verify_generators(rec)
            verdicts["kernel_character"] = 0.0
        records.append(rec)
    return records
