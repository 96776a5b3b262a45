import math
import random
from fractions import Fraction

import pytest
from conftest import (
    cubic_discriminant,
    delta,
    irreducibility_criterion,
    is_irreducible_cubic,
    paper_relation,
    resolvent_identities,
    shanks_poly,
)

from cubicperiods import (
    RationalCubic,
    NonIntegralCoefficient,
    Representation,
    ShanksParams,
    cleared_shanks_poly,
    conductors_up_to,
    main_identity_sides,
    period_poly_formula,
    representations,
    shanks_params,
    substitute_affine,
    validate_conductor,
    verify_main_identity,
)


def C(*coeffs) -> RationalCubic:
    return RationalCubic(*[Fraction(c) for c in coeffs])


def test_shanks_poly_examples():
    assert shanks_poly(Fraction(18, 5)) == C(1, Fraction(-18, 5), Fraction(-33, 5), -1)
    assert shanks_poly(0) == C(1, 0, -3, -1)
    assert shanks_poly(-30) == C(1, 30, 27, -1)
    # the package's one Shanks cubic is the oracle's times n2, in integers
    for n1, n2 in ((18, 5), (0, 1), (-30, 1), (-18, 11)):
        # the relation (scale, offset) does not enter the cubic
        cleared = cleared_shanks_poly(ShanksParams(n1, n2, 0, 0))
        assert cleared == shanks_poly(Fraction(n1, n2)).scale(n2)
        assert all(type(c) is int for c in cleared)


@pytest.mark.parametrize(
    "f,M,expected",
    [
        (819, -57, (1, 0, -273, 1729)),
        (819, 24, (1, 0, -273, -728)),
        (7, -1, (1, 1, -2, -1)),
        (9, -3, (1, 0, -3, 1)),
    ],
)
def test_period_poly_formula(f, M, expected):
    cond = validate_conductor(f)
    rep = next(r for r in representations(cond) if r.M == M)
    poly = period_poly_formula(cond, rep.M)
    assert poly == expected
    assert all(type(c) is int for c in poly)


def test_period_poly_rejects_foreign_representation():
    f7 = validate_conductor(7)
    f13 = validate_conductor(13)
    rep = representations(f13)[0]
    with pytest.raises(ValueError):
        period_poly_formula(f7, rep.M)


@pytest.mark.parametrize(
    "f,n1,expected",
    [(819, 18, (1, -6)), (819, -30, (1, 10)), (7, -2, (-1, 1)), (9, -3, (1, 1))],
)
def test_affine_relation_examples(f, n1, expected):
    # (mu, shift) of eta = mu*(n2*rho + shift), as shanks_params derives it:
    # scale = mu*n2 and offset = mu*shift
    mu, shift = expected
    rep = next(r for r in representations(validate_conductor(f)) if r.M - 3 * r.N == 2 * n1)
    sp = shanks_params(rep)
    assert (sp.n1, sp.scale, sp.offset) == (n1, mu * sp.n2, mu * shift)


@pytest.mark.parametrize("f,n1", [(7, 0), (9, 1)])
def test_affine_relation_rejects_fractional_shift(f, n1):
    # an unnormalized pair with N = 1 and M = 2*n1 + 3; the constructor
    # checks nothing, and the shift of n1 is not an integer
    rep = Representation(2 * n1 + 3, 1, validate_conductor(f))
    with pytest.raises(NonIntegralCoefficient):
        shanks_params(rep)


def test_substitute_affine_examples():
    x_cubed = C(1, 0, 0, 0)
    assert substitute_affine(x_cubed, 1, 0) == x_cubed
    # shift of the conductor-9 period polynomial; expanding by hand:
    # (X+1)^3 - 3(X+1) + 1 = X^3 + 3X^2 - 1
    # (X-1)^3 - 3(X-1) + 1 = X^3 - 3X^2 + 3
    p9 = C(1, 0, -3, 1)
    assert substitute_affine(p9, 1, 1) == C(1, 3, 0, -1)
    assert substitute_affine(p9, 1, -1) == C(1, -3, 0, 3)
    assert substitute_affine(C(1, 0, -273, -1547), 5, -6) == C(125, -450, -825, -125)
    assert substitute_affine(C(1, 0, -273, -1547), 5, -6) == shanks_poly(
        Fraction(18, 5)
    ).scale(125)


def test_substitute_affine_roundtrip_random():
    rng = random.Random(20260810)
    for _ in range(1000):
        p = C(*[Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(4)])
        a = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        assert substitute_affine(substitute_affine(p, a, b), 1 / a, -b / a) == p


@pytest.mark.parametrize("f,MN", [(819, (51, 5)), (9, (-3, 1)), (7, (-1, 1))])
def test_main_identity_examples(f, MN):
    cond = validate_conductor(f)
    rep = next(r for r in representations(cond) if (r.M, r.N) == MN)
    sp = shanks_params(rep)
    poly = period_poly_formula(cond, rep.M)
    assert verify_main_identity(cond, sp, poly) == 0.0
    lhs, rhs = main_identity_sides(sp, poly)
    assert lhs == rhs


def test_main_identity_exhaustive():
    for cond in conductors_up_to(100_000):
        for rep in representations(cond):
            verify_main_identity(cond, shanks_params(rep), period_poly_formula(cond, rep.M))


def test_delta_examples():
    assert delta(18, 5) == 819
    assert delta(0, 1) == 9
    assert delta(-2, 1) == 7


def test_irreducibility():
    assert is_irreducible_cubic(C(1, 0, -3, -1))
    assert not is_irreducible_cubic(C(1, 0, -1, 0))
    assert is_irreducible_cubic(shanks_poly(Fraction(18, 5)))
    assert not is_irreducible_cubic(C(2, 1, -2, -1))  # root 1/2... check below
    with pytest.raises(ValueError):
        is_irreducible_cubic(C(0, 1, 0, 0))


def test_irreducibility_catches_rational_root():
    # (2X - 1)(X^2 + X + 1) = 2X^3 + X^2 + X - 1
    assert not is_irreducible_cubic(C(2, 1, 1, -1))


@pytest.mark.parametrize(
    "n1,n2,expected", [(18, 5, True), (-2, 1, False), (-3, 1, True), (3, 1, False)]
)
def test_irreducibility_criterion(n1, n2, expected):
    assert irreducibility_criterion(n1, n2) is expected


def test_irreducibility_criterion_rejects_non_coprime():
    with pytest.raises(ValueError):
        irreducibility_criterion(6, 3)


def test_irreducibility_criterion_implies_irreducible():
    for cond in conductors_up_to(2000):
        for rep in representations(cond):
            sp = shanks_params(rep)
            poly = shanks_poly(Fraction(sp.n1, sp.n2))
            if irreducibility_criterion(sp.n1, sp.n2):
                assert is_irreducible_cubic(poly)
            # irreducibility holds for every generated pair regardless
            assert is_irreducible_cubic(poly)


def test_discriminant_examples():
    assert cubic_discriminant(C(1, 0, -3, -1)) == 81
    for n in (0, Fraction(18, 5), -30):
        assert cubic_discriminant(shanks_poly(n)) == (n * n + 3 * n + 9) ** 2
    assert cubic_discriminant(shanks_poly(Fraction(18, 5))) == Fraction(819, 25) ** 2


def test_distinct_representations_give_distinct_polys():
    for cond in conductors_up_to(1000):
        polys = {period_poly_formula(cond, rep.M) for rep in representations(cond)}
        assert len(polys) == len(representations(cond))


def assert_resolvent_identities(n1, n2, shift):
    """r^3 = f*w in exact arithmetic, as its two halves: the cubed
    resolvents of alpha_j = n2*rho_j + shift sum to f*M, and
    D = (alpha_0 - alpha_1)*(alpha_1 - alpha_2)*(alpha_2 - alpha_0) is
    -f*n2, for f = n1^2 + 3*n1*n2 + 9*n2^2 and M = 2*n1 + 3*n2."""
    f, M = n1 * n1 + 3 * n1 * n2 + 9 * n2 * n2, 2 * n1 + 3 * n2
    got = resolvent_identities(n1, n2, shift)
    assert got["cycle"] == [(-1, 0, 0)] * 3, (n1, n2)
    assert got["at_roots"] == [(0, 0, 0)] * 3, (n1, n2)
    assert got["resolvent_sum"] == (f * M, 0, 0), (n1, n2, shift)
    assert got["D"] == (-f * n2, 0, 0), (n1, n2, shift)


@pytest.mark.parametrize("f", [7, 9, 819, 104823])
def test_resolvent_identities_at_every_pair(f):
    cond = validate_conductor(f)
    for rep in representations(cond):
        sp = shanks_params(rep)
        _, shift = paper_relation(cond, sp.n1)
        assert_resolvent_identities(sp.n1, sp.n2, shift)


def test_resolvent_identities_on_random_pairs():
    # uniform pairs up to 10^10 put f near 10^21; the resolvent sum and D do
    # not depend on the shift, so it is drawn freely
    rng = random.Random(20261018)
    checked = 0
    while checked < 120:
        n1, n2 = rng.randint(-(10**10), 10**10), rng.randint(1, 10**10)
        if math.gcd(n1, n2) != 1:
            continue
        assert_resolvent_identities(n1, n2, rng.randint(-(10**10), 10**10))
        checked += 1
