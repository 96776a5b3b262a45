import cmath
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import generator_omega, prime_element

import cubicperiods
from cubicperiods import (
    BudgetExceeded,
    EisensteinInt,
    FactorizationMismatch,
    character_for_representation,
    chi9,
    chi9_gauss_sum_report,
    representations,
    rhs_elements,
    validate_conductor,
)
from cubicperiods import periods
from cubicperiods.arith import MR_BOUND, _primes_below, is_probable_prime
from cubicperiods.eisenstein import (
    UNITS,
    ZETA,
    _prime_element,
    primary_associate,
    prime_elements,
)
from cubicperiods.periods import jacobi_sum

PRIMES_1_MOD_3 = [p for p in range(7, 20_000, 6) if is_probable_prime(p)]
# Every prime = 1 mod 3 below 2*10^5.
POINT_PRIMES = [p for p in _primes_below(200_000) if p % 3 == 1]
# The first periods._POINT_TRIES points of E alone prove no trace at these
# primes, two near 10^3, two near 10^4 and four in 1.2..1.31*10^5; they
# prove none at 225 primes = 1 mod 3 below 2*10^5, 7 and 13 among them, and
# left more than one trace at 169 of them to baby-step giant-step.
E_AMBIGUOUS = [1117, 1123, 9901, 11131, 121453, 123553, 127807, 129169]


def seeded_primes() -> list[int]:
    """70 primes = 1 mod 3: 50 with a seeded number of digits from 6 to 16,
    then 20 log-uniform in (10^16, MR_BOUND/7), as large as the prime of a
    conductor 7p can be."""
    rng = random.Random(19)
    sampled = []
    for k in range(70):
        if k < 50:
            digits = rng.randint(6, 16)
            n = rng.randrange(10 ** (digits - 1), 10**digits)
        else:
            n = int(10 ** rng.uniform(16, math.log10(MR_BOUND // 7)))
        n -= (n - 1) % 6
        while not is_probable_prime(n):
            n -= 6
        sampled.append(n)
    return sampled


def test_basic_algebra():
    z = ZETA
    assert z * z == EisensteinInt(-1, -1)
    assert z * z * z == EisensteinInt(1, 0)
    sqrt_m3 = EisensteinInt(1, 2)
    assert sqrt_m3 * sqrt_m3 == EisensteinInt(-3, 0)
    assert all(u.norm() == 1 for u in UNITS)
    assert len(set(UNITS)) == 6


def test_norm_multiplicative_random():
    rng = random.Random(7)
    for _ in range(300):
        x = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        y = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        assert (x * y).norm() == x.norm() * y.norm()
        assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-9


def test_trace():
    # x + conj(x) is twice the real part, and conjugation keeps it
    rng = random.Random(3)
    for _ in range(300):
        x = EisensteinInt(rng.randint(-40, 40), rng.randint(-40, 40))
        assert x.trace() == x.conjugate().trace()
        assert x.trace() == pytest.approx(2 * x.to_complex().real, abs=1e-9)
    # the element (M + 3N*sqrt(-3))/2 each pair of 819 is built from has trace M
    f819 = validate_conductor(819)
    elements = rhs_elements(f819, prime_elements(f819))
    for r in representations(f819):
        assert r.element in elements and r.element.trace() == r.M


def test_gcd_examples(gcd_oracle):
    eis_gcd, _, canonical_associate = gcd_oracle
    g = eis_gcd(EisensteinInt(7, 0), EisensteinInt(1, 3))
    assert g == EisensteinInt(3, 2) and g.norm() == 7
    x = EisensteinInt(1, 1)
    assert eis_gcd(x, EisensteinInt(0, 0)) == canonical_associate(x)
    assert eis_gcd(x, x) == canonical_associate(x)
    with pytest.raises(ValueError):
        eis_gcd(EisensteinInt(0, 0), EisensteinInt(0, 0))


def test_gcd_divides_both_random(gcd_oracle):
    eis_gcd, exact_div, _ = gcd_oracle
    rng = random.Random(11)
    for _ in range(200):
        x = EisensteinInt(rng.randint(-30, 30), rng.randint(-30, 30))
        y = EisensteinInt(rng.randint(-30, 30), rng.randint(-30, 30))
        if x == EisensteinInt(0, 0) and y == EisensteinInt(0, 0):
            continue
        g = eis_gcd(x, y)
        for v in (x, y):
            if v != EisensteinInt(0, 0):
                exact_div(v, g)  # raises if not divisible


def test_canonical_associate_is_stable_across_associates(gcd_oracle):
    canonical_associate = gcd_oracle[2]
    rng = random.Random(13)
    for _ in range(100):
        x = EisensteinInt(rng.randint(-20, 20), rng.randint(-20, 20))
        if x == EisensteinInt(0, 0):
            continue
        forms = {canonical_associate(u * x) for u in UNITS}
        assert len(forms) == 1
        chosen = forms.pop()
        assert chosen.a > 0 and chosen.b >= 0


def test_primary_associate():
    pi = primary_associate(EisensteinInt(3, 2))
    assert (pi.a % 3, pi.b % 3) == (1, 0)
    assert pi.norm() == 7
    # every associate of an element of norm prime to 3 maps to its one
    # associate = 1 mod 3, found by trying the six units; a norm divisible by
    # 3 has none
    rng = random.Random(17)
    for _ in range(300):
        x = EisensteinInt(rng.randint(-50, 50), rng.randint(-50, 50))
        primary = {y for y in (u * x for u in UNITS) if (y.a % 3, y.b % 3) == (1, 0)}
        if x.norm() % 3:
            assert len(primary) == 1
            assert {primary_associate(u * x) for u in UNITS} == primary
        else:
            assert not primary
            with pytest.raises(ValueError):
                primary_associate(x)


def test_factor_rhs_nine(factor_rhs):
    r = representations(validate_conductor(9))[0]
    sign, pis = factor_rhs(r)
    assert sign == 1 and pis == []


def test_factor_rhs_63(factor_rhs):
    r = next(x for x in representations(validate_conductor(63)) if x.M == 15)
    sign, pis = factor_rhs(r)
    assert sign == 1
    assert pis == [EisensteinInt(-2, -3)]
    assert pis[0].norm() == 7


def test_factor_rhs_819(factor_rhs):
    r = next(x for x in representations(validate_conductor(819)) if x.M == -57)
    sign, pis = factor_rhs(r)
    assert sign == 1
    assert [pi.norm() for pi in pis] == [7, 13]
    # reproduce the source exactly
    product = EisensteinInt(3, 0) * ZETA
    for pi in pis:
        product = product * pi
    assert product == EisensteinInt((r.M + 3 * r.N) // 2, 3 * r.N)


def test_factor_rhs_seven(factor_rhs):
    # a tame pair is the primary prime element itself, with the unit 1
    (r,) = representations(validate_conductor(7))
    assert factor_rhs(r) == (None, [EisensteinInt(1, 3)])
    # its negative, (M, N) = (1, -1), is no product of primary prime elements
    with pytest.raises(FactorizationMismatch):
        factor_rhs(r._replace(M=-r.M, N=-r.N))


F7 = validate_conductor(7)
F9 = validate_conductor(9)


def level_sets(chi: dict[int, int]) -> tuple[frozenset[int], ...]:
    """The units where chi takes the exponents 0, 1 and 2."""
    return tuple(frozenset(a for a, e in chi.items() if e == j) for j in range(3))


def test_chi9_table(character_values, residue_sets):
    plus = character_values(9, 1, [])
    assert plus == {1: 0, 2: 1, 4: 2, 5: 2, 7: 1, 8: 0}
    minus = character_values(9, -1, [])
    assert all((plus[a] + minus[a]) % 3 == 0 for a in plus)
    # the exponent at the generator 2 fixes the whole character
    assert (chi9(1), chi9(-1)) == (plus[2], minus[2]) == (1, 2)
    assert level_sets(plus) == residue_sets(F9, (chi9(1),))
    assert level_sets(minus) == residue_sets(F9, (chi9(-1),))
    assert residue_sets(F9, (chi9(1),))[0] == frozenset({1, 8})


def test_cubic_residue_character_mod7(character_values, residue_sets, residue_character):
    cubic_residue_character = residue_character
    pi = EisensteinInt(3, 2)
    chi = character_values(7, None, [pi])
    assert chi[1] == 0
    for a in range(1, 7):
        for b in range(1, 7):
            assert (chi[a] + chi[b]) % 3 == chi[a * b % 7]
    assert level_sets(chi) == residue_sets(F7, (cubic_residue_character(7, pi),))
    conj = character_values(7, None, [pi.conjugate()])
    assert all((chi[a] + conj[a]) % 3 == 0 for a in range(1, 7))
    e, e_conj = (cubic_residue_character(7, x) for x in (pi, pi.conjugate()))
    assert (e + e_conj) % 3 == 0
    # the package reads the same exponent off the pair's element, the
    # primary prime element above 7
    (r,) = representations(F7)
    assert character_for_representation(r, {7: generator_omega(7)}) == (
        cubic_residue_character(7, r.element),
    )


def test_gaussian_sum_modulus(character_values, float_gauss_sum, residue_character):
    pi = EisensteinInt(3, 2)
    tau = float_gauss_sum(7, residue_character(7, pi))
    assert abs(abs(tau) ** 2 - 7) < 1e-9
    direct = sum(
        cmath.exp(2j * cmath.pi * (a / 7 + e / 3))
        for a, e in character_values(7, None, [pi]).items()
    )
    assert abs(tau - direct) < 1e-9
    with pytest.raises(ValueError):
        float_gauss_sum(7, 0)  # the trivial character is not primitive


def test_gaussian_sum_normalization_mod7(float_gauss_sum, residue_character):
    # -tau^3 = 7 * pi for the primary prime attached to the character
    pi = primary_associate(EisensteinInt(3, 2))
    tau = float_gauss_sum(7, residue_character(7, pi))
    assert abs(-(tau**3) - 7 * pi.to_complex()) < 1e-6


def test_chi9_gauss_sum_cube_matches(float_gauss_sum):
    for sign in (1, -1):
        rep = chi9_gauss_sum_report(sign)
        assert rep["tau_cubed_matches"] is True
        assert rep["tau_matches"] is False
        assert rep["tau_cubed"] == rep["reference"] == 27 * (ZETA if sign == 1 else ZETA * ZETA)
        # tau * conj(tau) = 9 in Z[zeta9]: conjugation is zeta9 -> zeta9^8
        tau = rep["tau"]
        conj = [0] * 9
        for k, c in enumerate(tau):
            conj[-k % 9] += c
        assert z9_product(tau, conj) == (9, 0, 0, 0, 0, 0)
        # the exact coordinates against the float O(q) sum
        zeta9 = cmath.exp(2j * cmath.pi / 9)
        exact = sum(c * zeta9**k for k, c in enumerate(tau))
        assert abs(exact - float_gauss_sum(9, chi9(sign))) < 1e-12


def z9_product(x, y) -> tuple[int, ...]:
    """x * y for coefficient lists over powers of zeta9, reduced to the
    basis 1, zeta9, ..., zeta9^5 by zeta9^9 = 1 and zeta9^6 = -zeta9^3 - 1."""
    cyclic = [0] * 9
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            cyclic[(i + j) % 9] += a * b
    for k in (8, 7, 6):
        cyclic[k - 3] -= cyclic[k]
        cyclic[k - 6] -= cyclic[k]
    return tuple(cyclic[:6])


def test_character_for_representation_nine(character_values, residue_sets, factor_rhs, omegas):
    r = representations(F9)[0]
    vector = character_for_representation(r, omegas(F9))
    assert len(vector) == 1 and residue_sets(F9, vector)[0] == frozenset({1, 8})
    assert level_sets(character_values(9, *factor_rhs(r))) == residue_sets(F9, vector)


def test_character_kernels_have_index_three(
    character_values, residue_sets, unit_group, factor_rhs, omegas
):
    for f in (9, 63, 819):
        cond = validate_conductor(f)
        kernels = set()
        for r in representations(cond):
            chi = character_values(f, *factor_rhs(r))
            vector = character_for_representation(r, omegas(cond))
            assert level_sets(chi) == residue_sets(cond, vector)
            kern = level_sets(chi)[0]
            assert len(kern) * 3 == len(chi)
            # exhaustively multiplicative, with order exactly 3
            for a in chi:
                for b in chi:
                    assert (chi[a] + chi[b]) % 3 == chi[a * b % f]
            assert any(e != 0 for e in chi.values())
            # primitive: nontrivial on every prime-power component, probed on
            # the CRT-lifted generator of each component, where chi takes
            # the exponent that the vector holds
            lifts = [lift for lift, _ in unit_group(cond).generators]
            assert [chi[lift] for lift in lifts] == list(vector)
            assert all(e != 0 for e in vector)
            kernels.add(kern)
        assert len(kernels) == len(representations(cond))


def test_characters_of_all_wild_conductors(
    wild_records_10k, character_values, residue_sets, unit_group, factor_rhs, omegas
):
    for rec in wild_records_10k:
        cond = rec.conductor
        f = cond.value
        chi = character_values(f, *factor_rhs(rec.representation))
        assert 3 * len(level_sets(chi)[0]) == len(chi)
        # multiplicativity against each component generator implies it in full
        lifts = [g for g, _ in unit_group(cond).generators]
        for a in chi:
            for g in lifts:
                assert (chi[a] + chi[g]) % 3 == chi[a * g % f]
        vector = character_for_representation(rec.representation, omegas(cond))
        assert level_sets(chi) == residue_sets(cond, vector)
        tau = sum(cmath.exp(2j * cmath.pi * (a / f + e / 3)) for a, e in chi.items())
        assert abs(abs(tau) ** 2 - f) < 1e-6


def _smallest_generator(p: int) -> int:
    return next(g for g in range(2, p) if len({pow(g, j, p) for j in range(p - 1)}) == p - 1)


def test_prime_components_are_powers_at_the_generator(wild_records_10k, factor_rhs, omegas):
    # a^((p-1)/3) = omega^(e*j) mod p at every a = g^j: the definition of
    # chi_p agrees with the exponent e held for p, at every residue
    for rec in wild_records_10k:
        cond = rec.conductor
        _, pis = factor_rhs(rec.representation)
        moduli = sorted((9, *cond.odd_primes))
        vector = character_for_representation(rec.representation, omegas(cond))
        exponents = dict(zip(moduli, vector))
        for p, pi in zip(cond.odd_primes, pis):
            omega = -pi.a * pow(pi.b, -1, p) % p
            g = _smallest_generator(p)
            e = exponents[p]
            for j in range(p - 1):
                a = pow(g, j, p)
                assert pow(a, (p - 1) // 3, p) == pow(omega, e * j, p)


def test_prime_element_is_a_primary_prime_of_norm_p():
    # the primary elements of norm p, found by search, are exactly
    # prime_element(p) and its conjugate
    for p in range(7, 600, 6):
        if any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            continue
        pi = prime_element(p)
        bound = int((4 * p) ** 0.5) + 1
        primary = {
            EisensteinInt(a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if a * a - a * b + b * b == p and a % 3 == 1 and b % 3 == 0
        }
        assert primary == {pi, pi.conjugate()}
        omega = -pi.a * pow(pi.b, -1, p) % p
        assert omega != 1 and pow(omega, 3, p) == 1


def test_prime_element_refuses_what_is_not_a_prime_1_mod_6():
    # below 7 the search for a non-cube a^((p-1)//3) != 1 may never end (at
    # p = 1, 2 and 3 the exponent is 0), so the calls run in a child that
    # must finish in time
    src = Path(cubicperiods.__file__).resolve().parents[1]
    bad = [-7, 0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 17, 25, 49, 55, 85, 91, 121, 169]
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]\n"
        "from conftest import prime_element\n"
        f"for p in {bad!r}:\n"
        "    try:\n"
        "        prime_element(p)\n"
        "    except ValueError:\n"
        "        print(p)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(p) for p in bad]


def test_factor_rhs_inverts_rhs_elements(wild_records_10k, factor_rhs):
    # every pair is read from an element of rhs_elements, and the factor_rhs
    # oracle takes it apart by gcds into the unit 3*zeta3^(+-1) and
    # prime_element(p) or its conjugate for each p | f
    for rec in wild_records_10k:
        r = rec.representation
        sign, pis = factor_rhs(r)
        assert sign in (1, -1)
        for p, pi in zip(rec.conductor.odd_primes, pis, strict=True):
            assert pi in (prime_element(p), prime_element(p).conjugate())
        assert r.element in rhs_elements(rec.conductor, prime_elements(rec.conductor))


def test_index_table_equals_the_powers_of_the_generator(count_oracle, generator):
    # the count oracle's table, built from the primes below sqrt(p) and the
    # strided blocks, against j mod 3 at g^j for every j, at every prime
    # = 1 mod 3 below 2*10^4; and the package's omega_p, from the first
    # non-cube, is g^((p-1)/3) or its square
    assert len(PRIMES_1_MOD_3) == 1124
    for p in PRIMES_1_MOD_3:
        g, order = generator(p)
        omega = pow(g, (p - 1) // 3, p)
        assert _prime_element(p).omega in (omega, omega * omega % p), p
        expected = bytearray(p)
        x = 1
        for j in range(order):
            expected[x] = j % 3
            x = x * g % p
        assert count_oracle.index_table(p) == expected, p


def test_prime_table_holds_every_prime_the_index_table_reads(count_oracle):
    # the index table reads the primes below isqrt(p) + 1, for p up to the
    # largest the count oracle is asked for
    reach = math.isqrt(count_oracle.bound) + 1
    assert reach <= count_oracle.prime_bound
    assert count_oracle.primes == tuple(
        n for n in range(count_oracle.prime_bound) if is_probable_prime(n)
    )


def test_index_table_refuses_a_prime_beyond_the_prime_table(count_oracle):
    # the least prime = 1 mod 3 above the square of the table's bound needs
    # primes the table does not hold
    p = count_oracle.prime_bound**2 + 1
    while p % 3 != 1 or not is_probable_prime(p):
        p += 1
    with pytest.raises(ValueError, match="prime table"):
        count_oracle.index_table(p)


def test_jacobi_sum_is_a_prime_element_minus_one_mod_3():
    for p in PRIMES_1_MOD_3:
        jacobi = jacobi_sum(p, generator_omega(p))
        assert jacobi.norm() == p
        assert (jacobi.a % 3, jacobi.b % 3) == (2, 0)
        # -J is the primary prime element of norm p, up to conjugation
        assert -jacobi in (prime_element(p), prime_element(p).conjugate())


def test_jacobi_sum_over_half_the_pairs_equals_the_nine_counts(count_oracle, nine_count_jacobi):
    # the points, and the count over the pairs {a, 1 - a} by bit planes,
    # against the nine counts over all p - 2 terms, at every prime = 1 mod 3
    # below 2*10^4 and at two large primes, the second the largest the count
    # oracle is asked for
    for p in [*PRIMES_1_MOD_3, 1_000_003, 9_999_991]:
        jacobi = jacobi_sum(p, generator_omega(p))
        assert jacobi == count_oracle.jacobi(p) == nine_count_jacobi(p), p


def test_float_gauss_sum_cubed_is_p_times_jacobi(float_gauss_sum):
    # tau(chi)^3 = p * J(chi, chi) against the O(p) float sum, for both
    # characters of every prime = 1 mod 3 below 3000
    for p in PRIMES_1_MOD_3:
        if p > 3000:
            break
        cube = p * jacobi_sum(p, generator_omega(p))
        for e, expected in ((1, cube), (2, cube.conjugate())):
            tau = float_gauss_sum(p, e)
            assert abs(tau**3 - expected.to_complex()) < 1e-6, (p, e)


def test_points_equal_the_count(count_oracle):
    # the certificate on E and its twist against the count, at every
    # prime = 1 mod 3 from 7 to 5*10^4 and at two large primes, the second
    # the largest the count oracle is asked for
    for p in [*(p for p in POINT_PRIMES if p <= 50_000), 1_000_003, 9_999_991]:
        assert jacobi_sum(p, generator_omega(p)) == count_oracle.jacobi(p), p


def test_points_equal_the_prime_element_oracle(prime_element_jacobi):
    # at every prime = 1 mod 3 from 7 to 2*10^5, and at the 70 seeded
    # primes = 1 mod 3 up to MR_BOUND/7
    for p in [*POINT_PRIMES, *seeded_primes()]:
        assert jacobi_sum(p, generator_omega(p)) == prime_element_jacobi(p), p


def test_traces_that_e_leaves_open_are_settled(monkeypatch, prime_element_jacobi, e_alone):
    # the points of the twist among the first ones settle the trace; with
    # the points of E alone it stays open, and jacobi_sum refuses, however
    # small p is
    traces = {}
    for p in E_AMBIGUOUS:
        jacobi = jacobi_sum(p, generator_omega(p))
        assert jacobi == prime_element_jacobi(p), p
        traces[p] = jacobi.trace()
    monkeypatch.setattr(periods, "_points", e_alone)
    for p in E_AMBIGUOUS:
        assert not periods.certified_trace(p, traces[p]), p
        with pytest.raises(BudgetExceeded, match="open"):
            jacobi_sum(p, generator_omega(p))


def test_certificate_equals_baby_step_giant_step(bsgs_jacobi):
    # the search over every candidate trace that the certificate replaced,
    # at the seeded primes below 10^16 and the first three in (10^16, 10^20):
    # above 10^7 the one oracle that does not share the candidate from
    # Cornacchia's element.  It takes about p^(1/4) steps, 0.06 s near
    # 3*10^16 and 0.65 s near 8*10^19
    sampled = seeded_primes()
    beyond = [p for p in sampled if 10**16 < p < 10**20][:3]
    for p in [*(p for p in sampled if p < 10**16), *beyond]:
        assert jacobi_sum(p, generator_omega(p)) == bsgs_jacobi(p), p


def test_certificate_proves_one_trace_in_the_hasse_interval():
    # of all s with s^2 <= 4p, only Tr J is proven, at every prime = 1 mod 3
    # below 3000; without the class mod 9, a second s would pass at 31, 61
    # and 19 more of them
    for p in (p for p in PRIMES_1_MOD_3 if p < 3000):
        bound = math.isqrt(4 * p)
        proven = [s for s in range(-bound, bound + 1) if periods.certified_trace(p, s)]
        assert proven == [jacobi_sum(p, generator_omega(p)).trace()], p


@pytest.mark.parametrize("p", [109, 19441])
def test_certificate_factors_each_order_once(monkeypatch, p):
    # the trace at 109 takes 4 points, at 19441 11, on E and its twist: two
    # group orders, each factored once, where 4 and 11 factorizations were
    # made while every point factored its own
    t = jacobi_sum(p, generator_omega(p)).trace()
    calls = []
    factorize = periods.factorize
    monkeypatch.setattr(periods, "factorize", lambda n: calls.append(n) or factorize(n))
    assert periods.certified_trace(p, t)
    assert sorted(calls) == sorted([p + 1 - t, p + 1 + t])


@pytest.mark.parametrize(
    "p", [3317044064679887385942649, 3317044064679887385939553, 3317044064679887385922003]
)
def test_an_order_at_or_above_mr_bound_proves_nothing(monkeypatch, p):
    # three primes just below MR_BOUND whose twist has a probable prime
    # order at or above it, where factorize proves nothing: that order is
    # never factored, the points of E prove the trace, and the points of the
    # twist alone leave it open
    t = jacobi_sum(p, generator_omega(p)).trace()
    assert p + 1 - t >= MR_BOUND and is_probable_prime(p + 1 - t)
    calls = []
    factorize = periods.factorize
    monkeypatch.setattr(periods, "factorize", lambda n: calls.append(n) or factorize(n))
    assert periods.certified_trace(p, t)
    assert calls == [p + 1 + t]
    points = periods._points
    monkeypatch.setattr(periods, "_points", lambda q: (P for P in points(q) if P[1] == -1))
    assert not periods.certified_trace(p, t)
    assert calls == [p + 1 + t]


REFUSAL_PRIMES = [7, 13, 1117, 10_000_141]


@pytest.mark.parametrize("p", REFUSAL_PRIMES)
def test_certificate_refuses_every_other_candidate(p):
    # t + 9 and t - 9 keep the class mod 9, and the associates of J other
    # than J have other traces; no point proves any of them
    jacobi = jacobi_sum(p, generator_omega(p))
    t = jacobi.trace()
    assert periods.certified_trace(p, t)
    others = [t + 9, t - 9, *((u * jacobi).trace() for u in UNITS[1:])]
    assert t not in others
    assert not any(periods.certified_trace(p, s) for s in others), others


@pytest.mark.parametrize("p", REFUSAL_PRIMES)
def test_a_point_of_order_nine_proves_nothing(monkeypatch, p):
    # E's points at x = 12 have 9P = O: n kills them for every candidate,
    # and lcm(ord(P), 9)^2 = 81 never passes 16p
    t = jacobi_sum(p, generator_omega(p)).trace()
    point = 12 % p, 36 % p
    assert periods._mul(9, point, p) is None
    tries = [(point, 1)] * periods._POINT_TRIES
    monkeypatch.setattr(periods, "_points", lambda q: iter(tries))
    assert not periods.certified_trace(p, t)


@pytest.mark.parametrize("p", REFUSAL_PRIMES)
def test_a_wrong_cornacchia_element_is_refused(monkeypatch, p):
    # zeta3*pi has norm p and lies above the same prime as pi, so
    # Stickelberger's pick keeps it; the curve refuses the trace of
    # -zeta3*pi, and jacobi_sum returns no J
    element = periods.cornacchia_element
    monkeypatch.setattr(
        periods,
        "cornacchia_element",
        lambda q, omega: ZETA * element(q, omega) if q == p else element(q, omega),
    )
    with pytest.raises(BudgetExceeded, match="open"):
        jacobi_sum(p, generator_omega(p))
