import ast
import itertools
import math
import random
import struct
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
import conftest
from conftest import (
    centered,
    closed_form_period_poly,
    fraction_identities,
    generator_omega,
    generator_primes,
    kernel_labels,
    pair_labels,
    period_poly_mod_ell,
    periods_mod_ell,
    root_of_unity,
    shanks_poly,
    shanks_root_oracle,
)
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cubicperiods import (
    MR_BOUND,
    BudgetExceeded,
    CongruenceFailure,
    GeneratorFailure,
    NonIntegralCoefficient,
    NormalizationFailure,
    RationalCubic,
    RelationFailure,
    ShanksParams,
    conductors_up_to,
    gaussian_periods,
    match_fields,
    numeric_period_poly,
    period_poly,
    period_poly_formula,
    primitive_cubic_kernels,
    representations,
    main_identity_sides,
    shanks_params,
    shanks_roots,
    validate_conductor,
    verify_generators,
    verify_kernel_character,
    verify_period_relation,
    verify_sign_congruences,
)
from cubicperiods import eisenstein
from cubicperiods import periods as periods_module
from cubicperiods.arith import is_probable_prime
from cubicperiods.cli import main
from cubicperiods import quadform
from cubicperiods.eisenstein import ZETA, EisensteinInt, PrimeElement
from cubicperiods.periods import PrimeRecord, component_gauss_sums, prime_records

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


def is_kernel_sum(cond, kernel, residues) -> bool:
    """Whether eta_0 of the kernel vector (conftest.periods_mod_ell) is the
    sum of z^a over the residues a, in F_ell."""
    ell, etas = periods_mod_ell(cond, kernel_labels(cond, kernel))
    z = root_of_unity(cond.value, ell)
    return etas[0] == sum(pow(z, a, ell) for a in residues) % ell


def test_kernels_examples():
    # the one kernel mod 9 and mod 7 is {1, -1}, and the four kernels of 819
    # cut out four fields: four period polynomials, from the definition
    assert primitive_cubic_kernels(F9) == [(1,)]
    assert is_kernel_sum(F9, (1,), {1, 8})
    assert primitive_cubic_kernels(F7) == [(1,)]
    assert is_kernel_sum(F7, (1,), {1, 6})
    kernels = primitive_cubic_kernels(F819)
    assert len({period_poly_mod_ell(F819, kernel_labels(F819, k)) for k in kernels}) == 4


def test_gaussian_periods_nine():
    (kernel,) = primitive_cubic_kernels(F9)
    pt = gaussian_periods(F9, kernel, component_gauss_sums(F9, generator_primes(F9)))
    assert is_kernel_sum(F9, pt.kernel, {1, 8})
    expected = sorted((2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4)), reverse=True)
    assert pt.values() == pytest.approx(expected, abs=1e-12)
    assert pt.values() == pytest.approx(
        [1.5320888862, 0.3472963553, -1.8793852416], abs=1e-9
    )


def test_gaussian_periods_seven_sum():
    (kernel,) = primitive_cubic_kernels(F7)
    pt = gaussian_periods(F7, kernel, component_gauss_sums(F7, generator_primes(F7)))
    assert is_kernel_sum(F7, pt.kernel, {1, 6})
    assert sum(pt.values()) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("f", [85276009, 767484081])
def test_periods_make_no_pass_over_the_units(f):
    # 7*13*19*31*37*43 (tame) and 9 times it (wild), nu = 6: a pass over
    # the phi(f) units would build lists of up to 3.5*10^8 residues, while
    # the component Gaussian sums add at most 42 terms each
    cond = validate_conductor(f)
    mu = 0 if cond.is_wild else cond.mu
    start = time.perf_counter()
    cubes = component_gauss_sums(cond, generator_primes(cond))
    triples = [gaussian_periods(cond, k, cubes) for k in primitive_cubic_kernels(cond)]
    assert time.perf_counter() - start < 1.0
    assert len(triples) == cond.field_count
    # the closed form X^3 - mu*X^2 + (mu^2 - f)/3*X + ... gives the trace mu
    # and the sum of squares mu^2 - 2*(mu^2 - f)/3 = (2f + mu^2)/3
    squares = (2 * f + mu * mu) / 3
    for pt in triples:
        assert abs(sum(pt.values()) - mu) < 1e-6
        assert abs(sum(eta * eta for eta in pt.values()) - squares) < 1e-12 * squares


def test_gaussian_periods_follow_the_kernel_order():
    # the cube of each kernel is the product over the components of tau_q^3
    # or its conjugate as the kernel says, and the eight kernels of 15561
    # have eight cubes
    kernels = [(1, *tail) for tail in itertools.product((1, 2), repeat=3)]
    assert primitive_cubic_kernels(F15561) == kernels
    cubes = component_gauss_sums(F15561, generator_primes(F15561))
    triples = [gaussian_periods(F15561, k, cubes) for k in kernels]
    assert [pt.kernel for pt in triples] == kernels
    for pt in triples:
        expected = math.prod(t if c == 1 else t.conjugate() for t, c in zip(cubes, pt.kernel))
        assert pt.cube == expected, pt.kernel
    assert len({pt.cube for pt in triples}) == 8


def test_numeric_period_poly_examples():
    for cond, expected in ((F9, (1, 0, -3, 1)), (F7, (1, 1, -2, -1))):
        (kernel,) = primitive_cubic_kernels(cond)
        pt = gaussian_periods(cond, kernel, component_gauss_sums(cond, generator_primes(cond)))
        assert numeric_period_poly(cond, pt) == expected
    cubes = component_gauss_sums(F819, generator_primes(F819))
    got = {
        numeric_period_poly(F819, gaussian_periods(F819, k, cubes))
        for k in primitive_cubic_kernels(F819)
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
        assert numeric_period_poly(F819, rec.periods) == rec.period_poly
        assert rec.verdicts["oracle_equivalence"] == 0.0


def test_period_poly_rejects_a_trace_off_by_one():
    # the one integrality check of the Gauss-sum cubic and the closed form:
    # at f = 7 the trace mu*f*M = 7 gives X^3 + X^2 - 2X - 1, and 8 leaves
    # -(20 + 8)/27 for the constant term
    assert period_poly(F7, 7) == (1, 1, -2, -1)
    with pytest.raises(NonIntegralCoefficient):
        period_poly(F7, 8)


def assert_kernels_match_pairs(cond):
    """The integer cubic of every kernel, from the exact cube T of its
    Gaussian sum, against the closed form of every pair: equal as sets, with
    nothing rounded.  Tr T is mu*f*M of exactly one pair, and T is mu*f*w or
    its conjugate for w = (M + 3N*sqrt(-3))/2 of that pair."""
    reps = representations(cond)
    cubes = component_gauss_sums(cond, generator_primes(cond))
    triples = [gaussian_periods(cond, k, cubes) for k in primitive_cubic_kernels(cond)]
    exact = {numeric_period_poly(cond, pt) for pt in triples}
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
def random_conductors(draw):
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
@given(random_conductors())
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
    """Make match_fields see the periods of gaussian_periods with the cubes
    of the kernels, in the order of primitive_cubic_kernels, rewritten by
    plant."""

    def planted(f, kernel, cubes):
        kernels = primitive_cubic_kernels(f)
        planted_cubes = plant([gaussian_periods(f, k, cubes).cube for k in kernels])
        pt = gaussian_periods(f, kernel, cubes)
        return pt._replace(cube=planted_cubes[kernels.index(kernel)])

    monkeypatch.setattr(periods_module, "gaussian_periods", planted)


@pytest.mark.parametrize("cond", [F7, F819, F15561], ids=lambda c: str(c.value))
def test_matching_rejects_a_cube_times_zeta3(monkeypatch, cond):
    # zeta3*T has another trace.  Not at f = 9, where T = 27*zeta3 and
    # zeta3*T = conj(T) gives the same periods.
    for i in range(cond.field_count):
        plant_cubes(
            monkeypatch, lambda cubes: [ZETA * c if j == i else c for j, c in enumerate(cubes)]
        )
        with pytest.raises(NormalizationFailure):
            match_fields(cond)


@pytest.mark.parametrize("cond", [F63, F819, F15561], ids=lambda c: str(c.value))
def test_matching_rejects_two_kernels_with_one_cube(monkeypatch, cond):
    plant_cubes(monkeypatch, lambda cubes: [cubes[0], cubes[0], *cubes[2:]])
    with pytest.raises(NormalizationFailure):
        match_fields(cond)


def assert_integer_identities_match(cond):
    """The closed form of every pair is the paper's, and the integer sides
    of the main identity equal their Fraction formulation.  On that
    formulation alone, what the identity implies for the generators of a
    wild field holds too: h, the minimal polynomial of alpha, is
    mu*P(mu*X), and h and the minimal polynomials of +-alpha +- 1 have
    integer coefficients."""
    for rep in representations(cond):
        sp = shanks_params(rep)
        expected = fraction_identities(cond, sp)
        poly = period_poly_formula(cond, rep.M)
        assert poly == closed_form_period_poly(cond, rep.M), (cond.value, rep.M)
        sides = main_identity_sides(sp, poly)
        assert sides == (expected["lhs"], expected["rhs"])
        assert all(type(c) is int for p in sides for c in p), (cond.value, sp)
        assert expected["h"] == expected["mu_p_mu_x"]
        polys = [expected["h"], *expected["shifted"].values()]
        assert all(c.denominator == 1 for p in polys for c in p), (cond.value, sp)


def test_integer_identities_equal_the_fraction_oracle():
    for cond in conductors_up_to(20_000):
        assert_integer_identities_match(cond)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(random_conductors())
def test_integer_identities_equal_the_fraction_oracle_on_random_conductors(cond):
    assert_integer_identities_match(cond)


def test_real_roots_examples():
    # f_0 = X^3 - 3X - 1 has the roots of X^3 - 3X + 1, negated
    roots = shanks_roots(ShanksParams(0, 1, 0, 0))
    assert roots == pytest.approx(
        [1.8793852416, -0.3472963553, -1.5320888862], abs=1e-9
    )
    fn = shanks_poly(Fraction(18, 5))
    c3, c2, c1, c0 = fn
    for rho in shanks_roots(ShanksParams(18, 5, 0, 0)):
        assert abs(float(((c3 * rho + c2) * rho + c1) * rho + c0)) < 1e-9


def test_shanks_roots_are_within_4u_on_random_pairs():
    # n1 of either sign and n2 > 0, each of a seeded log-uniform size up to
    # 10^12.  The trigonometric form of all three roots, which loses the
    # digits of the two near -1 and 0, raised ToleranceExceeded on 260 of
    # these 2000 pairs; from one root by the orbit the worst error is 2.4u,
    # at n = -1819/616
    rng = random.Random(2024)
    bound = Decimal(4 * 2.0**-53)
    for _ in range(2000):
        n1 = rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 12))
        n2 = int(10 ** rng.uniform(0, 12))
        for x in shanks_roots(ShanksParams(n1, n2, 0, 0)):
            rho = shanks_root_oracle(n1, n2, x)
            assert abs(Decimal(x) - rho) <= bound * abs(rho), (n1, n2, x)


def test_match_fields_819_rows():
    records = match_fields(F819)
    by_pair = {
        (rec.shanks_params.n1, rec.shanks_params.n2): rec.period_poly
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
    assert len({rec.period_poly for rec in recs}) == 2


def test_period_relation_values_819():
    records = {
        (rec.shanks_params.n1, rec.shanks_params.n2): rec for rec in match_fields(F819)
    }
    # eta = rho + 10 for the pair (-30, 1)
    rec = records[(-30, 1)]
    roots = shanks_roots(rec.shanks_params)
    assert sorted(r + 10 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-9
    )
    # eta = 10*rho + 1 for the pair (-3, 10)
    rec = records[(-3, 10)]
    roots = shanks_roots(rec.shanks_params)
    assert sorted(10 * r + 1 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-9
    )
    for rec in records.values():
        assert verify_period_relation(rec) < 1e-9


def test_period_relation_rejects_a_period_moved_by_1e_9():
    # the matching is exact, so the relation's float distance, at most
    # 1.2e-14 at 819, may exceed only the rounding bound, 1.3e-13 to 2.8e-13
    for rec in match_fields(F819):
        moved = rec.periods._replace(eta0=rec.periods.eta0 + 1e-9)
        with pytest.raises(RelationFailure):
            verify_period_relation(rec._replace(periods=moved))


def test_float_checks_read_the_relation_on_the_record():
    # match_fields derives rec.relation once, and both float checks read
    # it: one value moved by 1e-9 fails the period relation, and the trace
    # of the generator check (a)
    for rec in match_fields(F819):
        values, bound = rec.relation
        moved = rec._replace(relation=((values[0] + 1e-9, *values[1:]), bound))
        with pytest.raises(RelationFailure):
            verify_period_relation(moved)
        with pytest.raises(GeneratorFailure, match=r"^\(a\)"):
            verify_generators(moved)


def assert_float_headroom(records):
    """Every float residual is at most a quarter of its rounding bound."""
    for rec in records:
        _, bound = rec.relation
        for name in ("period_relation", "generators"):
            if name in rec.verdicts:
                assert rec.verdicts[name] <= bound / 4, (rec.conductor.value, name)


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
    roots = shanks_roots(rec.shanks_params)
    assert sorted(r + 1 for r in roots) == pytest.approx(
        sorted(rec.periods.values()), abs=1e-12
    )


def test_sign_congruences():
    for rec in match_fields(F819):
        verify_sign_congruences(rec)
    (rec9,) = match_fields(F9)
    verify_sign_congruences(rec9)
    const = rec9.period_poly.c0
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


def test_kernel_character_cross_check_wild(wild_records_10k):
    # with the omega_p of the package's records, which label the kernels of
    # match_fields
    assert len(wild_records_10k) > 0
    for rec in wild_records_10k:
        cond = rec.conductor
        primes = prime_records(cond)
        cubes = component_gauss_sums(cond, primes)
        assert verify_kernel_character(rec.representation, cubes, primes) == rec.periods


def test_kernel_character_rejects_another_kernel(monkeypatch):
    records = match_fields(F819)
    cubes = component_gauss_sums(F819, generator_primes(F819))
    for rec in records:
        for other in records:
            if other is rec:
                continue
            # the other record's periods under this pair's kernel
            monkeypatch.setattr(
                periods_module,
                "gaussian_periods",
                lambda f, kernel, cubes, other=other: other.periods._replace(kernel=kernel),
            )
            with pytest.raises(NormalizationFailure):
                verify_kernel_character(rec.representation, cubes, generator_primes(F819))


# The Gaussian-sum route and the names of the pair route it must not read:
# the two routes share periods, so what keeps them independent is what
# each function of the Gaussian-sum route, and the proof it returns, names.
GAUSS_SUM_ROUTE = (
    "component_gauss_sums", "jacobi_sum", "certified_trace", "TraceProof", "_points", "_mul",
    "_chi9_gauss_sum", "_z9", "_z9_mul",
)
PAIR_ROUTE_NAMES = {
    "prime_elements", "_prime_element", "rhs_elements", "representations",
    "character_for_representation", "Representation", "PrimeElement",
}
PAIR_ROUTE_ATTRIBUTES = PAIR_ROUTE_NAMES | {"pi", "element"}
# And the other way: the pair route must name no Jacobi sum, no proof, no
# field of a prime's record that the Gaussian-sum route adds, and not the
# module periods.
PAIR_ROUTE = {
    eisenstein: (
        "_prime_element", "prime_elements", "cornacchia_element", "rhs_elements",
        "character_for_representation",
    ),
    quadform: ("representations",),
}
GAUSS_SUM_ROUTE_NAMES = {
    "jacobi_sum", "certified_trace", "component_gauss_sums", "prime_records", "PrimeRecord",
    "TraceProof", "periods",
}
GAUSS_SUM_ROUTE_ATTRIBUTES = GAUSS_SUM_ROUTE_NAMES | (
    set(PrimeRecord._fields) - set(PrimeElement._fields)
)


def names_read(module, names, read_names, read_attributes) -> set[tuple[str, str]]:
    """(definition, name) for each use, in the top-level functions and
    classes of module called names, of a name in read_names, an attribute
    in read_attributes, or an import of or from one of read_names."""
    tree = ast.parse(Path(module.__file__).read_text())
    definitions = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(names) <= set(definitions)
    read = set()
    for name in names:
        for node in ast.walk(definitions[name]):
            if isinstance(node, ast.Name) and node.id in read_names:
                read.add((name, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in read_attributes:
                read.add((name, "." + node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules.append(node.module or "")
                read |= {(name, m) for m in modules if m.split(".")[-1] in read_names}
    return read


def test_the_gaussian_sum_route_reads_no_pair():
    read = names_read(periods_module, GAUSS_SUM_ROUTE, PAIR_ROUTE_NAMES, PAIR_ROUTE_ATTRIBUTES)
    assert not read, sorted(read)


def test_the_pair_route_reads_no_gaussian_sum():
    # a record of a prime holds J and its proof next to omega and pi, and
    # the pair route reads only the two that its own Cornacchia step made
    assert GAUSS_SUM_ROUTE_ATTRIBUTES > {"jacobi", "proof"}
    read = set()
    for module, names in PAIR_ROUTE.items():
        read |= names_read(module, names, GAUSS_SUM_ROUTE_NAMES, GAUSS_SUM_ROUTE_ATTRIBUTES)
    assert not read, sorted(read)


def test_verify_is_the_same_with_either_prime_element(capsys, monkeypatch):
    # which of pi_p and conj(pi_p) prime_element returns changes no pair and
    # no report, so a pair needs to carry no factor of its element
    def reports():
        out = []
        for f in (91, 1729, 819, 15561):
            assert main(["verify", "--conductor", str(f), "--format", "json"]) == 0
            out.append(capsys.readouterr().out)
        return out

    expected = reports()
    prime_element = eisenstein._prime_element

    def conjugated(p):
        record = prime_element(p)
        return record._replace(pi=record.pi.conjugate()) if p in (7, 13) else record

    monkeypatch.setattr(eisenstein, "_prime_element", conjugated)
    assert eisenstein._prime_element(7).pi == prime_element(7).pi.conjugate()
    assert reports() == expected


def test_periods_do_not_depend_on_which_omega_labels_the_characters(monkeypatch):
    # omega_p = g^((p-1)/3) at the smallest generator g in each prime's
    # record, in place of the package's: the kernels and cubes of some fields
    # are relabelled (a coordinate of a kernel doubles, T turns into conj(T)),
    # but the pairs, the periods, the relations and the verdicts with their
    # residuals stay the same, bit for bit, at every conductor up to 2*10^4
    def floats(records):
        return [
            (
                rec.representation,
                struct.pack("<3d", *rec.periods.values()),
                struct.pack("<4d", *rec.relation[0], rec.relation[1]),
                list(rec.verdicts),
                struct.pack(f"<{len(rec.verdicts)}d", *rec.verdicts.values()),
            )
            for rec in records
        ]

    conductors = conductors_up_to(20_000)
    package = {cond.value: match_fields(cond) for cond in conductors}
    prime_element = eisenstein._prime_element
    monkeypatch.setattr(
        eisenstein,
        "_prime_element",
        lambda p: prime_element(p)._replace(omega=generator_omega(p)),
    )
    kernels = cubes = 0
    for cond in conductors:
        records = match_fields(cond)
        assert floats(records) == floats(package[cond.value]), cond.value
        for rec, other in zip(records, package[cond.value]):
            kernels += rec.periods.kernel != other.periods.kernel
            cubes += rec.periods.cube == other.periods.cube.conjugate()
    # 860 kernels and 976 cubes are relabelled: the two omegas differ at many primes
    assert kernels > 0 and cubes > 0


def orbit_step(rho: int, ell: int) -> int:
    """rho -> -1/(1 + rho) mod ell, the Galois orbit of the roots of f_n."""
    return -pow(1 + rho, -1, ell) % ell


def assert_periods_from_the_definition(records):
    """Each record against its periods from their definition, in F_ell
    (conftest.periods_mod_ell): (i) the period polynomial of its own kernel
    vector, under the package's omega_p, is rec.period_poly; (ii) with eta_j
    indexed by the pair's own character, rho_j = (eta_j - offset)/scale are
    roots of n2*f_n with rho_{j+1} = -1/(1 + rho_j), the paper's relation
    ordered, in this orientation and not the other (n2*f_n has
    discriminant f^2 < ell, so its roots stay distinct mod ell); (iii) when
    f is wild, the product of the periods is -mu mod 3."""
    for rec in records:
        cond, sp = rec.conductor, rec.shanks_params
        where = (cond.value, sp.n1, sp.n2)
        poly = period_poly_mod_ell(cond, kernel_labels(cond, rec.periods.kernel))
        assert poly == rec.period_poly, where
        ell, etas = periods_mod_ell(cond, pair_labels(rec.representation))
        rhos = [(eta - sp.offset) * pow(sp.scale, -1, ell) % ell for eta in etas]
        for rho in rhos:
            assert (((sp.n2 * rho - sp.n1) * rho - sp.n1 - 3 * sp.n2) * rho - sp.n2) % ell == 0
        forward = [rhos[(j + 1) % 3] == orbit_step(rhos[j], ell) for j in range(3)]
        backward = [rhos[(j - 1) % 3] == orbit_step(rhos[j], ell) for j in range(3)]
        assert all(forward) and not all(backward), where
        if cond.is_wild:
            assert (centered(math.prod(etas), ell) + cond.mu) % 3 == 0, where


def test_periods_from_the_definition_up_to_10k(all_records_10k):
    assert_periods_from_the_definition(itertools.chain.from_iterable(all_records_10k.values()))


def test_periods_from_the_definition_on_seeded_conductors():
    # two conductors of eight components, 128 fields each, eight seeded
    # primes = 1 mod 3 in (10^4, 2*10^5] and eight seeded products of two or
    # three below 2000, every other one times 9: all below 9*10^11, so ell <
    # 4*10^24 is within conftest.miller_rabin's reach
    rng = random.Random(53)
    small = [p for p in range(7, 2000, 6) if is_probable_prime(p)]
    large = [p for p in range(10_003, 200_000, 6) if is_probable_prime(p)]
    conductors = [9 * 7 * 13 * 19 * 31 * 37 * 43 * 61, 7 * 13 * 19 * 31 * 37 * 43 * 61 * 67]
    conductors += [9 ** (k % 2) * p for k, p in enumerate(rng.sample(large, 8))]
    conductors += [9 ** (k % 2) * math.prod(rng.sample(small, rng.randint(2, 3))) for k in range(8)]
    for f in conductors:
        assert_periods_from_the_definition(match_fields(validate_conductor(f)))


# What the exact oracle of the periods, and each conftest helper it reaches,
# must not read: the Gaussian-sum route, closed forms, the pair's character.
NOT_DEFINITIONS = GAUSS_SUM_ROUTE_NAMES | {
    "period_poly", "period_poly_formula", "numeric_period_poly", "character_for_representation",
}


def test_the_definition_oracle_reads_no_gaussian_sum_and_no_closed_form():
    tree = ast.parse(Path(conftest.__file__).read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names = {"period_poly_mod_ell", "pair_labels", "kernel_labels"}
    names |= {"gauss_field", "gauss_sum_mod_ell"}
    reached = set()
    while names:
        reached |= names
        names = {
            node.id for name in names for node in ast.walk(defs[name]) if isinstance(node, ast.Name)
        } & defs.keys() - reached
    assert {"periods_mod_ell", "factor_rhs", "generator", "miller_rabin"} < reached
    attributes = NOT_DEFINITIONS | GAUSS_SUM_ROUTE_ATTRIBUTES
    read = names_read(conftest, reached, NOT_DEFINITIONS, attributes)
    assert not read, sorted(read)


def test_records_hold_coefficient_vectors():
    # a kernel is stored as its coefficients over the components 7, 9 and
    # 13, not as its phi(819)/3 = 144 residues
    for rec in match_fields(F819):
        assert type(rec.periods.kernel) is tuple and len(rec.periods.kernel) == 3


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
