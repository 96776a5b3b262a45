import math
from fractions import Fraction

import pytest

from cubicperiods import (
    ComplexRoots,
    Kind,
    RationalCubic,
    RoundingFailure,
    conductors_up_to,
    gaussian_periods,
    match_fields,
    numeric_period_poly,
    primitive_cubic_kernels,
    real_roots_cubic,
    representations,
    shanks_poly,
    unit_group,
    validate_conductor,
    verify_kernel_character,
    verify_period_relation,
    verify_sign_congruences,
)

F9 = validate_conductor(9)
F7 = validate_conductor(7)
F63 = validate_conductor(63)
F819 = validate_conductor(819)


def test_unit_group_examples():
    assert unit_group(F9).generators == ((2, 6),)
    assert unit_group(F7).generators == ((3, 6),)
    gens = unit_group(F63).generators
    assert tuple(o for _, o in gens) == (6, 6)
    for g, order in gens:
        assert pow(g, order, 63) == 1
        assert all(pow(g, order // p, 63) != 1 for p in (2, 3))


def test_kernels_examples():
    assert primitive_cubic_kernels(F9) == [frozenset({1, 8})]
    assert primitive_cubic_kernels(F7) == [frozenset({1, 6})]
    kernels = primitive_cubic_kernels(F819)
    assert len(kernels) == 4
    assert all(len(k) == 432 // 3 for k in kernels)
    assert len(set(kernels)) == 4


def test_kernels_contain_minus_one():
    for cond in (F9, F7, F63, F819):
        for kern in primitive_cubic_kernels(cond):
            assert (cond.value - 1) in kern


def test_prime_kernel_equals_cubes():
    # independent characterization: for a prime-power conductor the unique
    # kernel is the set of cubes of units
    for f in (7, 13, 19, 31, 61, 9):
        cond = validate_conductor(f)
        (kern,) = primitive_cubic_kernels(cond)
        cubes = {pow(x, 3, f) for x in range(1, f) if math.gcd(x, f) == 1}
        assert kern == cubes


def test_gaussian_periods_nine():
    pt = gaussian_periods(F9, frozenset({1, 8}))
    expected = sorted((2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4)), reverse=True)
    assert pt.values() == pytest.approx(expected, abs=1e-12)
    assert pt.values() == pytest.approx(
        [1.5320888862, 0.3472963553, -1.8793852416], abs=1e-9
    )


def test_gaussian_periods_seven_sum():
    pt = gaussian_periods(F7, frozenset({1, 6}))
    assert sum(pt.values()) == pytest.approx(-1.0, abs=1e-12)


def test_period_sum_partition():
    for cond in conductors_up_to(500):
        expected = 0 if cond.kind is Kind.WILD else (-1) ** cond.nu
        for kern in primitive_cubic_kernels(cond):
            pt = gaussian_periods(cond, kern)
            assert sum(pt.values()) == pytest.approx(expected, abs=1e-9 * cond.value)


def test_numeric_period_poly_examples():
    pt9 = gaussian_periods(F9, frozenset({1, 8}))
    assert numeric_period_poly(pt9)[0].integer_coefficients() == (1, 0, -3, 1)
    pt7 = gaussian_periods(F7, frozenset({1, 6}))
    assert numeric_period_poly(pt7)[0].integer_coefficients() == (1, 1, -2, -1)
    got = {
        numeric_period_poly(gaussian_periods(F819, k))[0].integer_coefficients()
        for k in primitive_cubic_kernels(F819)
    }
    assert got == {
        (1, 0, -273, 1729),
        (1, 0, -273, -1547),
        (1, 0, -273, -728),
        (1, 0, -273, 91),
    }


def test_numeric_period_poly_residual_is_the_oracle_residual():
    for rec in match_fields(F819):
        poly, residual = numeric_period_poly(rec.periods)
        assert poly == rec.predicted_poly
        assert residual == rec.verdicts["oracle_equivalence"].residual < 1e-9


def test_numeric_period_poly_unattainable_tolerance():
    pt = gaussian_periods(F819, primitive_cubic_kernels(F819)[0])
    with pytest.raises(RoundingFailure):
        numeric_period_poly(pt, tolerance=1e-30)


def test_real_roots_examples():
    assert real_roots_cubic(RationalCubic(1, 0, -1, 0)) == pytest.approx(
        [1.0, 0.0, -1.0], abs=1e-12
    )
    roots = real_roots_cubic(RationalCubic(1, 0, -3, 1))
    assert roots == pytest.approx(
        [1.5320888862, 0.3472963553, -1.8793852416], abs=1e-9
    )
    fn = shanks_poly(Fraction(18, 5))
    for rho in real_roots_cubic(fn):
        assert abs(float(fn.evaluate(rho))) < 1e-9


def test_real_roots_rejects_complex():
    with pytest.raises(ComplexRoots):
        real_roots_cubic(RationalCubic(1, 0, 0, -2))  # single real root
    with pytest.raises(ComplexRoots):
        real_roots_cubic(RationalCubic(1, 0, 0, 0))  # triple root, zero discriminant


def test_match_fields_819_rows():
    records = match_fields(F819)
    by_pair = {
        (rec.shanks_params.n1, rec.shanks_params.n2): rec.predicted_poly.integer_coefficients()
        for rec in records
    }
    assert by_pair == {
        (-30, 1): (1, 0, -273, 1729),
        (18, 5): (1, 0, -273, -1547),
        (-3, 10): (1, 0, -273, -728),
        (-18, 11): (1, 0, -273, 91),
    }
    assert all(
        set(rec.verdicts) == {"oracle_equivalence", "main_identity", "period_relation"}
        for rec in records
    )
    assert all(rec.max_residual() < 1e-6 for rec in records)


def test_match_fields_nine_and_63():
    (rec,) = match_fields(F9)
    assert (rec.shanks_params.n1, rec.shanks_params.n2) == (-3, 1)
    recs = match_fields(F63)
    assert len(recs) == 2
    assert len({rec.predicted_poly.integer_coefficients() for rec in recs}) == 2


def test_period_relation_values_819():
    records = {
        (rec.shanks_params.n1, rec.shanks_params.n2): rec for rec in match_fields(F819)
    }
    # eta = rho + 10 for the pair (-30, 1)
    rec = records[(-30, 1)]
    roots = real_roots_cubic(shanks_poly(-30))
    assert sorted(r + 10 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-9
    )
    # eta = 10*rho + 1 for the pair (-3, 10)
    rec = records[(-3, 10)]
    roots = real_roots_cubic(shanks_poly(Fraction(-3, 10)))
    assert sorted(10 * r + 1 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-9
    )
    for rec in records.values():
        assert verify_period_relation(rec).residual < 1e-9


def test_period_relation_nine():
    (rec,) = match_fields(F9)
    roots = real_roots_cubic(shanks_poly(-3))
    assert sorted(r + 1 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-12
    )


def test_sign_congruences():
    for rec in match_fields(F819):
        verify_sign_congruences(rec)
    (rec9,) = match_fields(F9)
    verify_sign_congruences(rec9)
    const = rec9.predicted_poly.integer_coefficients()[3]
    assert (-const - (-1) ** (0 + 1)) % 3 == 0


def test_sign_congruences_rejects_tame():
    (rec,) = match_fields(F7)
    with pytest.raises(ValueError):
        verify_sign_congruences(rec)


def test_coset_relabeling_leaves_multiset_invariant():
    # computing the three fiber sums directly, in any labeling, must give
    # the same multiset as the sorted PeriodTriple
    for cond in (F9, F7, F63):
        for kern in primitive_cubic_kernels(cond):
            fv = cond.value
            units = [a for a in range(1, fv) if math.gcd(a, fv) == 1]
            outside = [a for a in units if a not in kern]
            for rep_choice in outside[:3]:
                coset1 = {rep_choice * h % fv for h in kern}
                coset2 = set(units) - set(kern) - coset1
                sums = sorted(
                    (
                        sum(math.cos(2 * math.pi * a / fv) for a in group)
                        for group in (kern, coset1, coset2)
                    ),
                    reverse=True,
                )
                pt = gaussian_periods(cond, kern)
                assert sums == pytest.approx(list(pt.values()), abs=1e-9)


def test_kernel_character_cross_check_wild(wild_records_10k):
    assert len(wild_records_10k) > 0
    for rec in wild_records_10k:
        verify_kernel_character(rec)


def test_counts_and_bijection_small():
    for cond in conductors_up_to(1500):
        reps = representations(cond)
        kernels = primitive_cubic_kernels(cond)
        assert len(reps) == len(kernels)
        records = match_fields(cond)
        assert len(records) == len(reps)
        assert {rec.matched_kernel for rec in records} == set(kernels)
