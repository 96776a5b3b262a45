import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cubicperiods import (
    MR_BOUND,
    BudgetExceeded,
    ComplexRoots,
    CongruenceFailure,
    FactorizationMismatch,
    Kind,
    MatchingFailure,
    NormalizationFailure,
    RationalCubic,
    RelationFailure,
    affine_relation,
    conductors_up_to,
    gaussian_periods,
    match_fields,
    numeric_period_poly,
    period_poly_formula,
    primitive_cubic_kernels,
    real_roots_cubic,
    representations,
    shanks_params,
    shanks_poly,
    validate_conductor,
    verify_kernel_character,
    verify_main_identity,
    verify_period_relation,
    verify_sign_congruences,
)
from cubicperiods import periods as periods_module
from cubicperiods.arith import is_probable_prime
from cubicperiods.eisenstein import ZETA, EisensteinInt, component_gauss_sums
from cubicperiods.verdicts import rounding_bound

F9 = validate_conductor(9)
F7 = validate_conductor(7)
F63 = validate_conductor(63)
F819 = validate_conductor(819)
F15561 = validate_conductor(9 * 7 * 13 * 19)
# the checks of a wild field in the order match_fields runs them
WILD_VERDICTS = [
    "oracle_equivalence",
    "main_identity",
    "period_relation",
    "sign_congruences",
    "generators",
    "kernel_character",
]


def test_unit_group_examples(unit_group):
    assert unit_group(F9).generators == ((2, 6),)
    assert unit_group(F7).generators == ((3, 6),)
    gens = unit_group(F63).generators
    assert tuple(o for _, o in gens) == (6, 6)
    for g, order in gens:
        assert pow(g, order, 63) == 1
        assert all(pow(g, order // p, 63) != 1 for p in (2, 3))


def test_kernels_examples(residue_sets):
    assert primitive_cubic_kernels(F9) == [(1,)]
    assert residue_sets(F9, (1,))[0] == frozenset({1, 8})
    assert primitive_cubic_kernels(F7) == [(1,)]
    assert residue_sets(F7, (1,))[0] == frozenset({1, 6})
    kernels = [residue_sets(F819, k)[0] for k in primitive_cubic_kernels(F819)]
    assert len(kernels) == 4
    assert all(len(k) == 432 // 3 for k in kernels)
    assert len(set(kernels)) == 4


def test_kernels_contain_minus_one(residue_sets):
    for cond in (F9, F7, F63, F819):
        for vector in primitive_cubic_kernels(cond):
            assert (cond.value - 1) in residue_sets(cond, vector)[0]


def test_prime_kernel_equals_cubes(residue_sets):
    # independent characterization: for a prime-power conductor the unique
    # kernel is the set of cubes of units
    for f in (7, 13, 19, 31, 61, 9):
        cond = validate_conductor(f)
        (vector,) = primitive_cubic_kernels(cond)
        cubes = {pow(x, 3, f) for x in range(1, f) if math.gcd(x, f) == 1}
        assert residue_sets(cond, vector)[0] == cubes


def test_gaussian_periods_nine(residue_sets):
    (pt,) = gaussian_periods(F9)
    assert residue_sets(F9, pt.kernel)[0] == frozenset({1, 8})
    expected = sorted((2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4)), reverse=True)
    assert pt.values() == pytest.approx(expected, abs=1e-12)
    assert pt.values() == pytest.approx(
        [1.5320888862, 0.3472963553, -1.8793852416], abs=1e-9
    )


def test_gaussian_periods_seven_sum(residue_sets):
    (pt,) = gaussian_periods(F7)
    assert residue_sets(F7, pt.kernel)[0] == frozenset({1, 6})
    assert sum(pt.values()) == pytest.approx(-1.0, abs=1e-12)


def test_period_sum_partition(residue_sets):
    for cond in conductors_up_to(500):
        expected = 0 if cond.kind is Kind.WILD else (-1) ** cond.nu
        units = {a for a in range(1, cond.value) if math.gcd(a, cond.value) == 1}
        for pt in gaussian_periods(cond):
            cosets = residue_sets(cond, pt.kernel)
            assert set().union(*cosets) == units
            assert sum(map(len, cosets)) == len(units)
            assert sum(pt.values()) == pytest.approx(expected, abs=1e-9 * cond.value)


def test_periods_equal_direct_cosine_sums(residue_sets):
    # the periods from the component Gaussian sums against the definition:
    # O(f) cosine sums over the materialized kernel and cosets of each
    # coefficient vector, at every f <= 2000 and at larger fixed conductors
    large = [validate_conductor(f) for f in (15561, 53599, 60433, 73237, 482391)]
    for cond in conductors_up_to(2000) + large:
        triples = gaussian_periods(cond)
        assert [pt.kernel for pt in triples] == primitive_cubic_kernels(cond)
        for pt in triples:
            direct = sorted(
                (
                    sum(math.cos(2 * math.pi * a / cond.value) for a in coset)
                    for coset in residue_sets(cond, pt.kernel)
                ),
                reverse=True,
            )
            assert list(pt.values()) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("f", [85276009, 767484081])
def test_periods_make_no_pass_over_the_units(f):
    # 7*13*19*31*37*43 (tame) and 9 times it (wild), nu = 6: a pass over
    # the phi(f) units would build lists of up to 3.5*10^8 residues, while
    # the component Gaussian sums add at most 42 terms each
    cond = validate_conductor(f)
    mu = 0 if cond.is_wild else cond.mu
    start = time.perf_counter()
    triples = gaussian_periods(cond)
    assert time.perf_counter() - start < 1.0
    assert len(triples) == cond.field_count
    # the closed form X^3 - mu*X^2 + (mu^2 - f)/3*X + ... gives the trace mu
    # and the sum of squares mu^2 - 2*(mu^2 - f)/3 = (2f + mu^2)/3
    squares = (2 * f + mu * mu) / 3
    for pt in triples:
        assert abs(sum(pt.values()) - mu) < 1e-6
        assert abs(sum(eta * eta for eta in pt.values()) - squares) < 1e-12 * squares


def test_gaussian_periods_follow_the_kernel_order():
    # the cubes are built by doubling over the components, and must come out
    # in the order of primitive_cubic_kernels, each the product over the
    # components of tau_q^3 or its conjugate as the kernel says
    kernels = [(1, *tail) for tail in itertools.product((1, 2), repeat=3)]
    assert primitive_cubic_kernels(F15561) == kernels
    cubes = component_gauss_sums(F15561)
    triples = gaussian_periods(F15561)
    assert [pt.kernel for pt in triples] == kernels
    for pt in triples:
        expected = math.prod(t if c == 1 else t.conjugate() for t, c in zip(cubes, pt.kernel))
        assert pt.cube == expected, pt.kernel


def test_numeric_period_poly_examples():
    (pt9,) = gaussian_periods(F9)
    assert numeric_period_poly(pt9).integer_coefficients() == (1, 0, -3, 1)
    (pt7,) = gaussian_periods(F7)
    assert numeric_period_poly(pt7).integer_coefficients() == (1, 1, -2, -1)
    got = {
        numeric_period_poly(pt).integer_coefficients()
        for pt in gaussian_periods(F819)
    }
    assert got == {
        (1, 0, -273, 1729),
        (1, 0, -273, -1547),
        (1, 0, -273, -728),
        (1, 0, -273, 91),
    }


def test_numeric_period_poly_residual_is_the_oracle_residual():
    # the polynomial is exact, so the matching verdict carries no residual
    for rec in match_fields(F819):
        assert numeric_period_poly(rec.periods) == rec.predicted_poly
        assert rec.verdicts["oracle_equivalence"].residual == 0.0


def assert_kernels_match_pairs(cond):
    """The integer cubic of every kernel, from the exact cube T of its
    Gaussian sum, against the closed form of every pair: equal as sets, with
    nothing rounded.  Tr T is mu*f*M of exactly one pair, and T is mu*f*w or
    its conjugate for w = (M + 3N*sqrt(-3))/2 of that pair."""
    reps = representations(cond)
    triples = gaussian_periods(cond)
    exact = {numeric_period_poly(pt) for pt in triples}
    closed = {period_poly_formula(cond, r.M) for r in reps}
    assert exact == closed, cond.value
    assert len(exact) == cond.field_count
    for pt in triples:
        matches = [r for r in reps if cond.mu * cond.value * r.M == pt.cube.trace()]
        assert len(matches) == 1, (cond.value, pt.kernel)
        (r,) = matches
        w = EisensteinInt((r.M + 3 * r.N) // 2, 3 * r.N) * (cond.mu * cond.value)
        assert pt.cube in (w, w.conjugate()), (cond.value, r.M)


def test_exact_period_poly_equals_the_closed_form():
    for cond in conductors_up_to(20_000):
        assert_kernels_match_pairs(cond)


def prime_1_mod_3_at_most(n: int) -> int:
    """The largest prime = 1 mod 3 that is at most n, or 7."""
    n -= (n - 1) % 3
    while n > 7 and not is_probable_prime(n):
        n -= 3
    return max(n, 7)


# The random conductors draw their smaller primes up to SMALL_PRIMES, where
# the points settle the trace of every prime = 1 mod 3 (a sweep of all
# 332,194 of them from 7 to 10^7), and at most one larger prime up to
# LARGE_PRIMES, where the points take about 4 ms a prime.
SMALL_PRIMES = 10**7
LARGE_PRIMES = 10**12


@st.composite
def conductors_within_the_budget(draw):
    """Tame and wild conductors with nu <= 6 primes = 1 mod 3 up to
    SMALL_PRIMES, each with a uniform number of digits, and in about half
    the draws one more prime in (SMALL_PRIMES, LARGE_PRIMES]; the largest
    of the smaller primes are dropped until f is below MR_BOUND."""
    cofactor = draw(st.sampled_from((1, 9)))
    nu = draw(st.integers(1 if cofactor == 1 else 0, 6))
    digits = len(str(SMALL_PRIMES)) - 1
    seeds = draw(
        st.lists(
            st.integers(1, digits).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d)),
            min_size=nu,
            max_size=nu,
        )
    )
    primes = sorted({prime_1_mod_3_at_most(seed) for seed in seeds})
    large = []
    if draw(st.booleans()):
        seed = draw(
            st.integers(digits + 1, len(str(LARGE_PRIMES)) - 1).flatmap(
                lambda d: st.integers(2 * 10 ** (d - 1), 10**d)
            )
        )
        large = [prime_1_mod_3_at_most(seed)]
        assert SMALL_PRIMES < large[0] <= LARGE_PRIMES
    while primes and cofactor * math.prod(primes + large) >= MR_BOUND:
        primes.pop()
    return validate_conductor(cofactor * math.prod(primes + large))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(conductors_within_the_budget())
def test_exact_period_poly_equals_the_closed_form_on_random_conductors(cond):
    # a trace the points leave open is refused, never guessed, so it may
    # stop a draw with BudgetExceeded but not with a mismatch; none is known
    # below SMALL_PRIMES
    try:
        assert_kernels_match_pairs(cond)
    except BudgetExceeded:
        assert max(cond.odd_primes) > SMALL_PRIMES
        reject()


def plant_cubes(monkeypatch, plant):
    """Make match_fields see the periods of gaussian_periods with their list
    of cubes rewritten by plant."""

    def planted(f):
        triples = gaussian_periods(f)
        cubes = plant([pt.cube for pt in triples])
        return [pt._replace(cube=cube) for pt, cube in zip(triples, cubes, strict=True)]

    monkeypatch.setattr(periods_module, "gaussian_periods", planted)


@pytest.mark.parametrize("cond", [F7, F819, F15561], ids=lambda c: str(c.value))
def test_matching_rejects_a_cube_times_zeta3(monkeypatch, cond):
    # zeta3*T has another trace.  Not at f = 9, where T = 27*zeta3 and
    # zeta3*T = conj(T) gives the same periods.
    for i in range(cond.field_count):
        plant_cubes(
            monkeypatch, lambda cubes: [ZETA * c if j == i else c for j, c in enumerate(cubes)]
        )
        with pytest.raises(MatchingFailure):
            match_fields(cond)


@pytest.mark.parametrize("cond", [F63, F819, F15561], ids=lambda c: str(c.value))
def test_matching_rejects_two_kernels_with_one_cube(monkeypatch, cond):
    plant_cubes(monkeypatch, lambda cubes: [cubes[0], cubes[0], *cubes[2:]])
    with pytest.raises(MatchingFailure, match="two kernels"):
        match_fields(cond)


def assert_integer_identities_match(cond, oracle):
    """The integer sides of the main identity equal their Fraction
    formulation, for every pair.  On that formulation alone, what the
    identity implies for the generators of a wild field holds too: h, the
    minimal polynomial of alpha, is mu*P(mu*X), and h and the minimal
    polynomials of +-alpha +- 1 have integer coefficients."""
    for rep in representations(cond):
        sp = shanks_params(rep)
        expected = oracle(cond, sp)
        data = verify_main_identity(cond, sp).data
        assert data["lhs"] == expected["lhs"] and data["rhs"] == expected["rhs"]
        sides = (data["lhs"], data["rhs"])
        assert all(type(c) is int for p in sides for c in p.coefficients()), (cond.value, sp)
        assert expected["h"] == expected["mu_p_mu_x"]
        polys = [expected["h"], *expected["shifted"].values()]
        assert all(c.denominator == 1 for p in polys for c in p.coefficients()), (cond.value, sp)


def test_integer_identities_equal_the_fraction_oracle(fraction_oracle):
    for cond in conductors_up_to(20_000):
        assert_integer_identities_match(cond, fraction_oracle)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(conductors_within_the_budget())
def test_integer_identities_equal_the_fraction_oracle_on_random_conductors(
    fraction_oracle, cond
):
    assert_integer_identities_match(cond, fraction_oracle)


def test_real_roots_examples():
    assert real_roots_cubic(RationalCubic(1, 0, -1, 0)) == pytest.approx(
        [1.0, 0.0, -1.0], abs=1e-12
    )
    roots = real_roots_cubic(RationalCubic(1, 0, -3, 1))
    assert roots == pytest.approx(
        [1.5320888862, 0.3472963553, -1.8793852416], abs=1e-9
    )
    fn = shanks_poly(Fraction(18, 5))
    c3, c2, c1, c0 = fn.coefficients()
    for rho in real_roots_cubic(fn):
        assert abs(float(((c3 * rho + c2) * rho + c1) * rho + c0)) < 1e-9


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
    assert all(list(rec.verdicts) == WILD_VERDICTS for rec in records)
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


def test_period_relation_rejects_a_period_moved_by_1e_9():
    # the matching is exact, so the relation's float distance, at most
    # 1.2e-14 at 819, may exceed only the rounding bound, 1.3e-13 to 2.8e-13
    for rec in match_fields(F819):
        moved = rec.periods._replace(eta0=rec.periods.eta0 + 1e-9)
        with pytest.raises(RelationFailure):
            verify_period_relation(rec._replace(periods=moved))


def assert_float_headroom(records):
    """Every float residual is at most a quarter of its rounding bound."""
    for rec in records:
        sp = rec.shanks_params
        _, shift = affine_relation(rec.conductor, sp.n1)
        bound = rounding_bound(rec.periods.values(), sp.n2, rec.shanks_roots, shift)
        for name in ("period_relation", "generators"):
            if name in rec.verdicts:
                assert rec.verdicts[name].residual <= bound / 4, (rec.conductor.value, name)


def test_float_residuals_keep_headroom_up_to_10k(all_records_10k):
    for records in all_records_10k.values():
        assert_float_headroom(records)


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(
    st.lists(
        st.integers(10**6 + 1000, 10**7).map(prime_1_mod_3_at_most),
        min_size=3,
        max_size=3,
        unique=True,
    ),
    st.sampled_from((1, 9)),
)
def test_float_residuals_keep_headroom_on_three_primes_above_1e6(primes, cofactor):
    # periods near 10^10 miss the mapped Shanks roots by 1e-6 to 3e-5,
    # which an absolute tolerance of 1e-6 failed
    assert_float_headroom(match_fields(validate_conductor(cofactor * math.prod(primes))))


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


@pytest.mark.parametrize("cond", [F9, F819, F15561], ids=lambda c: str(c.value))
def test_sign_congruences_reject_a_negated_cube(cond):
    # the period product comes from the Gaussian sum cube T, and -T negates it
    for rec in match_fields(cond):
        negated = rec.periods._replace(cube=-rec.periods.cube)
        with pytest.raises(CongruenceFailure):
            verify_sign_congruences(rec._replace(periods=negated))


def test_sign_congruences_rejects_tame():
    (rec,) = match_fields(F7)
    with pytest.raises(ValueError):
        verify_sign_congruences(rec)


def test_coset_relabeling_leaves_multiset_invariant(residue_sets):
    # computing the three fiber sums directly, in any labeling, must give
    # the same multiset as the sorted PeriodTriple
    for cond in (F9, F7, F63):
        for pt in gaussian_periods(cond):
            fv = cond.value
            kern = residue_sets(cond, pt.kernel)[0]
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
                assert sums == pytest.approx(list(pt.values()), abs=1e-9)


def test_kernel_character_cross_check_wild(wild_records_10k):
    assert len(wild_records_10k) > 0
    for rec in wild_records_10k:
        verify_kernel_character(rec)


def test_kernel_character_rejects_another_kernel():
    records = match_fields(F819)
    vectors = [rec.matched_kernel for rec in records]
    for rec in records:
        for other in vectors:
            if other == rec.matched_kernel:
                continue
            with pytest.raises(MatchingFailure):
                verify_kernel_character(rec._replace(periods=rec.periods._replace(kernel=other)))


def replace_factorization(rec, **changes):
    """A copy of a field record whose pair carries another factorization."""
    return rec._replace(representation=rec.representation._replace(**changes))


def test_kernel_character_rejects_a_conjugated_prime_element():
    # the conjugate of one carried prime element no longer multiplies out to
    # (M + 3N*sqrt(-3))/2
    for rec in match_fields(F15561):
        elements = rec.representation.prime_elements
        for i in range(len(elements)):
            swapped = (*elements[:i], elements[i].conjugate(), *elements[i + 1 :])
            with pytest.raises(FactorizationMismatch):
                verify_kernel_character(replace_factorization(rec, prime_elements=swapped))


def test_kernel_character_rejects_a_flipped_unit():
    # 3*zeta3^-sign in place of 3*zeta3^sign
    for rec in match_fields(F15561):
        flipped = rec.representation.unit.conjugate()
        with pytest.raises(FactorizationMismatch):
            verify_kernel_character(replace_factorization(rec, unit=flipped))


def test_kernel_character_rejects_associates_with_the_same_product():
    # zeta3*pi_1 and zeta3^2*pi_2 keep the product and the norms, but are not
    # primary, so tau_p^3 = -p*pi_p fails
    for rec in match_fields(F15561):
        first, second, *rest = rec.representation.prime_elements
        moved = (ZETA * first, ZETA * ZETA * second, *rest)
        with pytest.raises(NormalizationFailure):
            verify_kernel_character(replace_factorization(rec, prime_elements=moved))


def test_glued_character_cuts_out_the_matched_kernel(
    wild_records_10k, character_values, residue_sets, factor_rhs
):
    # the O(f) character evaluated from its definition and glued along the
    # residues mod f, against the residue set of the matched coefficient vector
    for rec in wild_records_10k:
        chi = character_values(rec.conductor.value, *factor_rhs(rec.representation))
        kernel = frozenset(a for a, e in chi.items() if e == 0)
        assert kernel == residue_sets(rec.conductor, rec.matched_kernel)[0]


def test_records_hold_coefficient_vectors():
    # a kernel is stored as its coefficients over the components 7, 9 and
    # 13, not as its phi(819)/3 = 144 residues
    for rec in match_fields(F819):
        assert type(rec.matched_kernel) is tuple and len(rec.matched_kernel) == 3
        assert rec.periods.kernel == rec.matched_kernel


def test_counts_and_bijection_small(residue_sets):
    for cond in conductors_up_to(1500):
        reps = representations(cond)
        kernels = [residue_sets(cond, v)[0] for v in primitive_cubic_kernels(cond)]
        assert len(reps) == len(kernels)
        records = match_fields(cond)
        assert len(records) == len(reps)
        assert {residue_sets(cond, rec.matched_kernel)[0] for rec in records} == set(kernels)


PRIMES_1_MOD_3_BELOW_2E5 = [p for p in range(7, 200_000, 6) if is_probable_prime(p)]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from(PRIMES_1_MOD_3_BELOW_2E5), min_size=1, max_size=3, unique=True)
)
def test_wild_checks_pass_on_random_wild_conductors(primes):
    # f = 9 * p_1 * ... * p_k for 1 to 3 distinct primes = 1 mod 3 below 2*10^5:
    # every field passes the sign congruences, the twelve generator checks
    # and the character check, which match_fields runs and raises on
    cond = validate_conductor(9 * math.prod(primes))
    records = match_fields(cond)
    assert len(records) == cond.field_count
    assert all(list(rec.verdicts) == WILD_VERDICTS for rec in records)
