import random
from fractions import Fraction

import pytest

from cubicperiods import (
    GeneratorFailure,
    match_fields,
    real_roots_cubic,
    shanks_poly,
    substitute_affine,
    validate_conductor,
    verify_generators,
)


def test_gr_mul_examples(group_ring):
    ONE, SIGMA, SIGMA_SQ = group_ring.ONE, group_ring.SIGMA, group_ring.SIGMA_SQ
    GroupRingElement, gr_mul = group_ring.GroupRingElement, group_ring.gr_mul
    idempotents = group_ring.idempotents
    assert gr_mul(SIGMA, SIGMA_SQ) == ONE
    e1, ef = idempotents()
    assert gr_mul(e1, e1) == e1
    assert gr_mul(ef, ef) == ef
    assert gr_mul(e1, ef) == GroupRingElement(0, 0, 0)
    assert e1 + ef == ONE
    flip = ONE - 2 * e1
    assert gr_mul(flip, flip) == ONE


def test_ring_axioms_on_grid(group_ring):
    GroupRingElement, gr_mul = group_ring.GroupRingElement, group_ring.gr_mul
    vals = [Fraction(-1), Fraction(0), Fraction(1), Fraction(1, 2)]
    grid = [GroupRingElement(a, b, c) for a in vals for b in vals for c in vals][:20]
    for x in grid:
        for y in grid:
            assert gr_mul(x, y) == gr_mul(y, x)
            for z in grid[:5]:
                assert gr_mul(gr_mul(x, y), z) == gr_mul(x, gr_mul(y, z))
                assert gr_mul(x, y + z) == gr_mul(x, y) + gr_mul(x, z)


def test_unit_lists(group_ring):
    ONE, gr_mul, unit_list_p3 = group_ring.ONE, group_ring.gr_mul, group_ring.unit_list_p3
    tame = unit_list_p3(wild=False)
    assert len(tame) == 6
    wild = unit_list_p3(wild=True)
    assert len(wild) == 12
    assert all(u in wild for u in tame)

    def order(x):
        acc, n = x, 1
        while acc != ONE:
            acc = gr_mul(acc, x)
            n += 1
            assert n <= 12
        return n

    # cyclic of order 6 has one involution; the wild group has three
    assert sum(1 for u in tame if order(u) == 2) == 1
    assert sum(1 for u in wild if order(u) == 2) == 3
    assert max(order(u) for u in wild) == 6


def test_apply_examples(group_ring):
    ConjugateVector, ONE, SIGMA = group_ring.ConjugateVector, group_ring.ONE, group_ring.SIGMA
    apply, idempotents = group_ring.apply, group_ring.idempotents
    v = ConjugateVector(1.0, 2.0, 3.0)
    assert apply(SIGMA, v).values() == (2.0, 3.0, 1.0)
    e1, _ = idempotents()
    assert apply(e1, v).values() == pytest.approx([2.0, 2.0, 2.0])
    flip = ONE - 2 * e1
    # alpha with zero trace: flip maps alpha + 1 to alpha - 1
    alpha = ConjugateVector(0.5, 1.25, -1.75)
    shifted = ConjugateVector(alpha.x0 + 1, alpha.x1 + 1, alpha.x2 + 1)
    assert apply(flip, shifted).values() == pytest.approx(
        [alpha.x0 - 1, alpha.x1 - 1, alpha.x2 - 1]
    )


def test_apply_respects_multiplication(group_ring):
    GroupRingElement, ConjugateVector = group_ring.GroupRingElement, group_ring.ConjugateVector
    apply, gr_mul = group_ring.apply, group_ring.gr_mul
    rng = random.Random(99)
    for _ in range(100):
        x = GroupRingElement(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        y = GroupRingElement(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        v = ConjugateVector(*[rng.uniform(-5, 5) for _ in range(3)])
        lhs = apply(gr_mul(x, y), v).values()
        rhs = apply(x, apply(y, v)).values()
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_verify_generators_819():
    records = {
        (rec.shanks_params.n1, rec.shanks_params.n2): rec
        for rec in match_fields(validate_conductor(819))
    }
    for rec in records.values():
        verify_generators(rec)
    # h(X) = P(X) for the pair (18, 5) since the Moebius factor is +1
    rec = records[(18, 5)]
    sp = rec.shanks_params
    fn = shanks_poly(Fraction(sp.n1, sp.n2))
    h = substitute_affine(fn, Fraction(1, sp.n2), Fraction(sp.n1, 3 * sp.n2)).scale(
        sp.n2**3
    )
    assert h.integer_coefficients() == (1, 0, -273, -1547)
    assert h == rec.predicted_poly


def test_verify_generators_nine():
    (rec,) = match_fields(validate_conductor(9))
    verify_generators(rec)
    # eta0 + 1 is alpha + 1 for the largest root
    rho = real_roots_cubic(shanks_poly(-3))[0]
    alpha = rho + 1
    assert rec.periods.eta0 + 1 == pytest.approx(alpha + 1, abs=1e-9)


def test_verify_generators_rejects_tame():
    (rec,) = match_fields(validate_conductor(7))
    with pytest.raises(ValueError):
        verify_generators(rec)


def test_verify_generators_all_wild(wild_records_10k):
    for rec in wild_records_10k:
        verify_generators(rec)


def test_verify_generators_rejects_a_period_moved_by_1e_9():
    # check (b) compares eta + 1 with the twelve candidates within the
    # rounding bound, 1.3e-13 to 2.8e-13 at 819
    for rec in match_fields(validate_conductor(819)):
        moved = rec.periods._replace(eta0=rec.periods.eta0 + 1e-9)
        with pytest.raises(GeneratorFailure, match=r"\(b\)"):
            verify_generators(rec._replace(periods=moved))


def test_verify_generators_rejects_a_moved_period():
    # eta0 + 1/2 + 1 is 0.15 away from the nearest of the twelve candidates
    (rec,) = match_fields(validate_conductor(9))
    moved = rec.periods._replace(eta0=rec.periods.eta0 + 0.5)
    with pytest.raises(GeneratorFailure, match=r"\(b\)"):
        verify_generators(rec._replace(periods=moved))
