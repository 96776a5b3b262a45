"""Gaussian periods, the exact period polynomial of each kernel, and the
matching of kernels to representations.

The units mod f split by the CRT over the components q of f (each prime
p | f, and 9 when f is wild).  A cubic character is a product of powers
chi_q^(c_q) of the component characters of eisenstein (chi_p named by
omega_p, chi_9(2) = zeta3); it is primitive when every c_q is nonzero, and
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
with Jacobi sums on one side (gausssums, the Gaussian-sum route) and the
quadratic form on the other (eisenstein, the pair route), and it
proves the rest of the matching.  It gives Tr(T) = m*f*M, so this cubic is
the closed form of the pair, period_poly_formula(f, M) = period_poly(f,
m*f*M): one polynomial.  It fixes w up to conjugation, and no two
normalized pairs (N > 0) are conjugate, so no two pairs reach one
kernel.  representations checks that there are field_count pairs, and the
2^(k-1) kernels of k components are field_count by construction, so every
kernel is reached once: the matching is a bijection.  The float periods,
which the period relation and the generator checks compare with the roots
of the Shanks cubics, come from a cube root of T in O(1) per field, and
the roots of f_n are one Galois orbit of rho -> -1/(1 + rho): one root is
solved for, and the other two are its images (shanks_roots).  The one
value per prime that the routes share, omega_p, match_fields reads from
the records that build the pairs (eisenstein.prime_elements).
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .arith import Conductor, _component_moduli
from .cubicpoly import (
    RationalCubic,
    period_poly,
    period_poly_formula,
    period_sum,
    verify_main_identity,
)
from .eisenstein import ONE, EisensteinInt, character_for_representation, prime_elements
from .errors import (
    CongruenceFailure,
    CountMismatch,
    NormalizationFailure,
    RelationFailure,
    ToleranceExceeded,
)
from .gausssums import component_gauss_sums
from .groupring import verify_generators
from .quadform import Representation, ShanksParams, representations, shanks_params


class PeriodTriple(NamedTuple):
    """The three periods for one kernel, sorted in descending order, with
    the exact cube T = t^3 of the kernel's Gaussian sum that they come
    from.  The kernel is a coefficient vector over the component characters
    chi_q of eisenstein, chi_p named by omega_p."""

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
    component character chi_q of each component.  T is the product of
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
    # T and conj(T) (angle -phi) give the same periods but not the same last
    # digits, and which one a kernel holds depends on omega_p: the angle is
    # read from the one with b >= 0, so the floats depend on the field alone.
    z = (cube if cube.b >= 0 else cube.conjugate()).to_complex()
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
# The residual |f_n(x)| of a float root x of f_n, relative to the sum of
# its Horner terms: about 10 units (3 from rounding the root, 6 from
# evaluating, 1 from the coefficients), with room for a root an ulp off.
_ROOT_ROUNDOFF = 16 * _U


def shanks_roots(sp: ShanksParams) -> tuple[float, float, float]:
    """The three roots of f_n, n = n1/n2, sorted descending.

    As f_n(-1) = 1 and f_n(0) = -1, the roots are r0 > 0 > r1 > -1 > r2,
    and they are one orbit of rho -> -1/(1 + rho), r0 -> r1 -> r2 -> r0
    (D. Shanks, "The simplest cubic fields", Math. Comp. 28, 1974).  As
    f_n(1) = f_n(-2) = -(2n + 3), r0 > 1 when n >= -3/2 and r2 < -2 when
    not, and that root rho is the one solved for: by the trigonometric
    form of the depressed monic cubic with the float coefficients -n and
    -(n + 3), each correctly rounded, and two Newton polishing steps.  It
    is isolated, and -b/3 and the cosine term add without cancelling.  The
    other two are -1/(1 + rho) and -(1 + rho)/rho, where |1 + rho| > 1
    leaves nothing to cancel, whereas the trigonometric form loses their
    digits near -1 and 0 once |n| passes about 5*10^5.  Each |f_n(x)| may
    exceed only _ROOT_ROUNDOFF times the sum of the Horner terms at x, what
    rounding alone leaves.
    """
    b, c = -sp.n1 / sp.n2, -(sp.n1 + 3 * sp.n2) / sp.n2
    dep_p = c - b * b / 3
    dep_q = 2 * b**3 / 27 - b * c / 3 - 1
    m = 2 * math.sqrt(-dep_p / 3)
    theta = math.acos(min(1.0, max(-1.0, 3 * dep_q / (dep_p * m)))) / 3
    largest = b <= 1.5
    x = m * math.cos(theta if largest else theta - 4 * math.pi / 3) - b / 3
    for _ in range(2):
        fx = ((x + b) * x + c) * x - 1
        dfx = (3 * x + 2 * b) * x + c
        if dfx != 0:
            x -= fx / dfx
    images = (-1 / (1 + x), -(1 + x) / x)
    roots = (x, *images) if largest else (*images, x)
    for x in roots:
        residual = abs(((x + b) * x + c) * x - 1)
        terms = ((abs(x) + abs(b)) * abs(x) + abs(c)) * abs(x) + 1
        bound = _ROOT_ROUNDOFF * terms
        if residual > bound:
            raise ToleranceExceeded(f"|f_n({x})| = {residual} exceeds {bound}")
    return roots


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
    more: 38.  A root of shanks_roots carries about 4, relative to itself:
    the solved root rho is within an ulp, and its images -1/(1 + rho) and
    -(1 + rho)/rho carry that error times |rho/(1 + rho)| < 2 or
    1/|1 + rho| < 1, and 2 for the sum and the quotient; over 60,000
    seeded (n1, n2) up to 10^12 the largest measured is 2.1 for rho and 3.6
    for an image.  scale*rho + offset carries about 7: the root's 4, the
    product, the offset and the sum; (a) sums three of those, about 25.
    (b) adds 2 for its +-1, so 47 in all, and C = 64.  The largest residual
    measured is 5.7*u*S, at f = 76459.
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
    character last, and a tame one does not list it.  The records of the
    primes, which give the pairs and omega_p, and the cubes (once per
    conductor) and each pair's relation, closed form and float side are
    derived here, once, and passed to the checks that read them.
    """
    primes = prime_elements(f)
    reps = representations(f, primes)
    omegas = {p: e.omega for p, e in primes.items()}
    cubes = component_gauss_sums(f, omegas)
    records = []
    for r in reps:
        pt = verify_kernel_character(r, cubes, omegas)
        sp = shanks_params(r)
        poly = period_poly_formula(f, r.M)
        verdicts = {"oracle_equivalence": 0.0, "main_identity": verify_main_identity(f, sp, poly)}
        roots = shanks_roots(sp)
        rec = FieldRecord(r, sp, poly, pt, relation(sp, roots, pt), verdicts)
        verdicts["period_relation"] = verify_period_relation(rec)
        if f.is_wild:
            verdicts["sign_congruences"] = verify_sign_congruences(rec)
            verdicts["generators"] = verify_generators(rec)
            verdicts["kernel_character"] = 0.0
        records.append(rec)
    return records
