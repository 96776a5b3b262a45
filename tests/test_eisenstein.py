import functools
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    COUNT_BOUND,
    COUNT_PRIME_BOUND,
    COUNT_PRIMES,
    canonical_associate,
    character_by_definition,
    count_calls,
    cubic_residue_character,
    eis_gcd,
    exact_div,
    factor_rhs,
    gauss_field,
    gauss_sum_mod_ell,
    generator,
    generator_omega,
    generator_primes,
    index_table,
    jacobi_by_bsgs,
    jacobi_by_count,
    jacobi_by_prime_element,
    ladder_add,
    points_of_e_alone,
    prime_element,
    refute_trace_proof,
    zeta3_residue,
)

import cubicperiods
from cubicperiods import (
    BudgetExceeded,
    EisensteinInt,
    FactorizationMismatch,
    character_for_representation,
    chi9,
    chi9_gauss_sum_report,
    factorize,
    representations,
    rhs_elements,
    validate_conductor,
)
from cubicperiods import periods
from cubicperiods.arith import MR_BOUND, _component_moduli, _primes_below, is_probable_prime
from cubicperiods.eisenstein import (
    UNITS,
    ZETA,
    _prime_element,
    primary_associate,
    prime_elements,
)
from cubicperiods.periods import TraceProof, jacobi_sum

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


def times(x) -> tuple[tuple[int, int], tuple[int, int]]:
    """The matrix of multiplication by x = a + b*zeta3 on the basis (1, zeta3),
    as zeta3^2 = -1 - zeta3."""
    a, b = x
    return ((a, -b), (b, a - b))


def apply(m, v) -> tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


LARGE = st.integers(-(10**30), 10**30)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.tuples(LARGE, LARGE), st.tuples(LARGE, LARGE), LARGE)
def test_operators_equal_the_matrix_oracle(u, v, k):
    # each operator against 2x2 integer matrices on the coordinates, and
    # each element it returns an EisensteinInt, not a plain tuple
    x, y = EisensteinInt(*u), EisensteinInt(*v)
    scalar = ((k, 0), (0, k))
    minus_one = ((-1, 0), (0, -1))
    conjugation = ((1, -1), (0, -1))
    elements = {
        "x + y": (x + y, (u[0] + v[0], u[1] + v[1])),
        "x - y": (x - y, (u[0] - v[0], u[1] - v[1])),
        "-x": (-x, apply(minus_one, u)),
        "x*y": (x * y, apply(times(x), v)),
        "k*x": (k * x, apply(scalar, u)),
        "x*k": (x * k, apply(scalar, u)),
        "conjugate": (x.conjugate(), apply(conjugation, u)),
    }
    for name, (result, expected) in elements.items():
        assert type(result) is EisensteinInt, name
        assert result == expected, name
    (a, b), (c, d) = times(x)
    assert x.norm() == a * d - b * c
    assert x.trace() == a + d


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


def test_gcd_examples():
    g = eis_gcd(EisensteinInt(7, 0), EisensteinInt(1, 3))
    assert g == EisensteinInt(3, 2) and g.norm() == 7
    x = EisensteinInt(1, 1)
    assert eis_gcd(x, EisensteinInt(0, 0)) == canonical_associate(x)
    assert eis_gcd(x, x) == canonical_associate(x)
    with pytest.raises(ValueError):
        eis_gcd(EisensteinInt(0, 0), EisensteinInt(0, 0))


def test_gcd_divides_both_random():
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


def test_canonical_associate_is_stable_across_associates():
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


def test_factor_rhs_nine():
    r = representations(validate_conductor(9))[0]
    sign, pis = factor_rhs(r)
    assert sign == 1 and pis == []


def test_factor_rhs_63():
    r = next(x for x in representations(validate_conductor(63)) if x.M == 15)
    sign, pis = factor_rhs(r)
    assert sign == 1
    assert pis == [EisensteinInt(-2, -3)]
    assert pis[0].norm() == 7


def test_factor_rhs_819():
    r = next(x for x in representations(validate_conductor(819)) if x.M == -57)
    sign, pis = factor_rhs(r)
    assert sign == 1
    assert [pi.norm() for pi in pis] == [7, 13]
    # reproduce the source exactly
    product = EisensteinInt(3, 0) * ZETA
    for pi in pis:
        product = product * pi
    assert product == EisensteinInt((r.M + 3 * r.N) // 2, 3 * r.N)


def test_factor_rhs_seven():
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


def exponents_at_generators(r) -> tuple[int, ...]:
    """The pair's own character, from its definition (factor_rhs), as its
    exponents at the smallest generator of each component: O(nu)."""
    sign, pis = factor_rhs(r)
    exponents = {pi.norm(): cubic_residue_character(pi.norm(), pi) for pi in pis}
    if sign is not None:
        exponents[9] = sign % 3  # chi_9(2) = zeta3^sign
    return tuple(exponents[q] for q in _component_moduli(r.conductor))


def test_chi9_table():
    plus = character_by_definition(9, 1, [])
    assert plus == {1: 0, 2: 1, 4: 2, 5: 2, 7: 1, 8: 0}
    minus = character_by_definition(9, -1, [])
    assert all((plus[a] + minus[a]) % 3 == 0 for a in plus)
    # the exponent at the generator 2 fixes the whole character
    assert (chi9(1), chi9(-1)) == (plus[2], minus[2]) == (1, 2)
    assert level_sets(plus)[0] == level_sets(minus)[0] == frozenset({1, 8})


def test_cubic_residue_character_mod7():
    pi = EisensteinInt(3, 2)
    chi = character_by_definition(7, None, [pi])
    assert chi[1] == 0
    for a in range(1, 7):
        for b in range(1, 7):
            assert (chi[a] + chi[b]) % 3 == chi[a * b % 7]
    # the exponent at the smallest generator 3 fixes the whole character
    assert chi[generator(7)[0]] == cubic_residue_character(7, pi)
    conj = character_by_definition(7, None, [pi.conjugate()])
    assert all((chi[a] + conj[a]) % 3 == 0 for a in range(1, 7))
    e, e_conj = (cubic_residue_character(7, x) for x in (pi, pi.conjugate()))
    assert (e + e_conj) % 3 == 0
    # the package reads the same exponent off the pair's element, the
    # primary prime element above 7
    (r,) = representations(F7)
    assert character_for_representation(r, generator_primes(F7)) == (
        cubic_residue_character(7, r.element),
    )


def test_gaussian_sum_modulus():
    # tau(chi)*tau(chi^2) = chi(-1)*7 = 7, and tau(chi) is the sum over the
    # definition's table of chi, exactly in F_ell (conftest.gauss_field)
    pi = EisensteinInt(3, 2)
    ell, z, w = field = gauss_field(7)
    omega = zeta3_residue(pi)
    tau, tau_bar = (gauss_sum_mod_ell(7, x, field) for x in (omega, omega * omega % 7))
    assert tau * tau_bar % ell == 7
    direct = sum(
        pow(w, e, ell) * pow(z, a, ell) for a, e in character_by_definition(7, None, [pi]).items()
    )
    assert tau == direct % ell


def test_gaussian_sum_normalization_mod7():
    # -tau^3 = 7 * pi for the primary prime attached to the character
    pi = primary_associate(EisensteinInt(3, 2))
    ell, _, w = field = gauss_field(7)
    tau = gauss_sum_mod_ell(7, zeta3_residue(pi), field)
    assert -pow(tau, 3, ell) % ell == 7 * (pi.a + pi.b * w) % ell


def test_chi9_gauss_sum_cube_matches():
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
        # the coordinates against the definition, in F_ell at each of the
        # six embeddings zeta9 -> z^u, so exactly; omega_9 = 4^chi9(sign)
        ell, z, _ = gauss_field(9)
        for u in (1, 2, 4, 5, 7, 8):
            zu = pow(z, u, ell)
            coordinates = sum(c * pow(zu, k, ell) for k, c in enumerate(tau)) % ell
            field = ell, zu, pow(zu, 3, ell)
            assert gauss_sum_mod_ell(9, pow(4, chi9(sign), 9), field) == coordinates, u


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


def test_character_for_representation_nine():
    r = representations(F9)[0]
    sign, pis = factor_rhs(r)
    vector = character_for_representation(r, generator_primes(F9))
    assert vector == (chi9(sign),) == exponents_at_generators(r)
    assert level_sets(character_by_definition(9, sign, pis))[0] == frozenset({1, 8})


def test_character_kernels_have_index_three():
    for f in (9, 63, 819):
        cond = validate_conductor(f)
        kernels = set()
        for r in representations(cond):
            chi = character_by_definition(f, *factor_rhs(r))
            vector = character_for_representation(r, generator_primes(cond))
            assert vector == exponents_at_generators(r)
            assert all(e != 0 for e in vector)
            kern = level_sets(chi)[0]
            assert len(kern) * 3 == len(chi)
            # exhaustively multiplicative, with order exactly 3
            for a in chi:
                for b in chi:
                    assert (chi[a] + chi[b]) % 3 == chi[a * b % f]
            assert any(e != 0 for e in chi.values())
            kernels.add(kern)
        assert len(kernels) == len(representations(cond))


def test_characters_of_all_wild_conductors(wild_records_10k):
    # the package's character of each wild pair against the pair's own
    # character from its definition, component by component
    for rec in wild_records_10k:
        r = rec.representation
        vector = character_for_representation(r, generator_primes(rec.conductor))
        assert vector == exponents_at_generators(r), (rec.conductor.value, r.M)


def _smallest_generator(p: int) -> int:
    return next(g for g in range(2, p) if len({pow(g, j, p) for j in range(p - 1)}) == p - 1)


def test_prime_components_are_powers_at_the_generator(wild_records_10k):
    # a^((p-1)/3) = omega^(e*j) mod p at every a = g^j: the definition of
    # chi_p agrees with the exponent e held for p, at every residue
    for rec in wild_records_10k:
        cond = rec.conductor
        _, pis = factor_rhs(rec.representation)
        moduli = sorted((9, *cond.odd_primes))
        vector = character_for_representation(rec.representation, generator_primes(cond))
        exponents = dict(zip(moduli, vector))
        for p, pi in zip(cond.odd_primes, pis):
            omega = zeta3_residue(pi)
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
        omega = zeta3_residue(pi)
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


def test_factor_rhs_inverts_rhs_elements(wild_records_10k):
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


def test_index_table_equals_the_powers_of_the_generator():
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
        assert index_table(p) == expected, p


def test_prime_table_holds_every_prime_the_index_table_reads():
    # the index table reads the primes below isqrt(p) + 1, for p up to the
    # largest the count oracle is asked for
    reach = math.isqrt(COUNT_BOUND) + 1
    assert reach <= COUNT_PRIME_BOUND
    assert COUNT_PRIMES == tuple(n for n in range(COUNT_PRIME_BOUND) if is_probable_prime(n))


def test_index_table_refuses_a_prime_beyond_the_prime_table():
    # the least prime = 1 mod 3 above the square of the table's bound needs
    # primes the table does not hold
    p = COUNT_PRIME_BOUND**2 + 1
    while p % 3 != 1 or not is_probable_prime(p):
        p += 1
    with pytest.raises(ValueError, match="prime table"):
        index_table(p)


def test_gauss_sum_cubed_is_q_times_jacobi():
    # tau(chi)^3 = q*J(chi, chi) and tau(chi^2)^3 its conjugate, exactly in
    # F_ell, for both characters of every prime = 1 mod 3 below 3000, and
    # mod 9 against the cube that periods multiplies out in Z[zeta9]
    cases = []
    for p in PRIMES_1_MOD_3:
        if p > 3000:
            break
        omega = generator_omega(p)
        cube = p * jacobi_sum(p, omega)[0]
        cases += [(p, omega, cube), (p, omega * omega % p, cube.conjugate())]
    for sign in (1, -1):
        cases.append((9, pow(4, chi9(sign), 9), chi9_gauss_sum_report(sign)["tau_cubed"]))
    assert len(cases) == 2 * 207 + 2
    for q, omega, cube in cases:
        ell, _, w = field = gauss_field(q)
        tau = gauss_sum_mod_ell(q, omega, field)
        assert pow(tau, 3, ell) == (cube.a + cube.b * w) % ell, (q, omega)


def test_points_equal_the_count():
    # the certificate on E and its twist against the count, at every
    # prime = 1 mod 3 from 7 to 5*10^4 and at two large primes, the second
    # the largest the count oracle is asked for
    for p in [*(p for p in POINT_PRIMES if p <= 50_000), 1_000_003, 9_999_991]:
        assert jacobi_sum(p, generator_omega(p))[0] == jacobi_by_count(p), p


@functools.cache
def point_prime_sums() -> dict:
    """jacobi_sum(p, generator_omega(p)), J with its proof, at every prime
    = 1 mod 3 from 7 to 2*10^5 and at the 70 seeded primes = 1 mod 3 up to
    MR_BOUND/7: 9,058 primes, taken once for the tests that read them."""
    return {p: jacobi_sum(p, generator_omega(p)) for p in [*POINT_PRIMES, *seeded_primes()]}


def test_points_equal_the_prime_element_oracle():
    sums = point_prime_sums()
    assert len(sums) == 8988 + 70
    for p, (jacobi, _) in sums.items():
        assert jacobi == jacobi_by_prime_element(p), p


def test_every_proof_holds_on_its_own_arithmetic():
    # each claim of each proof, re-checked with the checker's own group law
    # and Miller-Rabin test: 19441 reads the most points, 11, and 1117 is
    # one of the E_AMBIGUOUS primes, proven on the twist
    sums = point_prime_sums()
    for p, (jacobi, proof) in sums.items():
        assert refute_trace_proof(p, jacobi.trace(), proof) is None, (p, proof)
    assert sums[19441][1].x == 11
    assert sums[1117][1].sign == -1
    # the proofs that read more than one point or prime power
    assert sums[109][1] == TraceProof(4, -1, 112, ((7, 1),))
    assert sums[463][1] == (7, -1, 487, ((487, 1),))
    assert sums[1021][1] == (3, 1, 1008, ((7, 1), (3, 2), (2, 4)))
    assert sums[10009][1] == (2, -1, 10192, ((13, 1), (7, 2)))
    assert sums[13309][1] == (1, 1, 13104, ((13, 1), (7, 1), (3, 2), (2, 4)))


@pytest.mark.parametrize("p", [13, 1117, 19441, 10_000_141, seeded_primes()[-1]])
def test_the_proof_checker_refuses_a_changed_proof(p):
    # one row per claim: a flipped sign, the last prime power left out, a
    # prime read twice, a trace of another class mod 9, and another trace
    # of the class of t in Hasse's interval, with the proof of t and with
    # its own group order, whole and factored, which the point of t does
    # not kill, as d | n and lcm(d, 9) > 9
    jacobi, proof = jacobi_sum(p, generator_omega(p))
    t = jacobi.trace()
    assert refute_trace_proof(p, t, proof) is None
    other = t + 9 if (t + 9) ** 2 <= 4 * p else t - 9
    n = p + 1 + proof.sign * other
    changed = {
        "Legendre": (t, proof._replace(sign=-proof.sign)),
        "lcm": (t, proof._replace(prime_powers=proof.prime_powers[:-1])),
        "read twice": (t, proof._replace(prime_powers=proof.prime_powers * 2)),
        "Hasse": (t + 1, proof),
        "p + 1 + sign*t": (other, proof),
        "n*P": (other, proof._replace(order=n, prime_powers=factorize(n)[::-1])),
    }
    for reason, (s, wrong) in changed.items():
        assert reason in (refute_trace_proof(p, s, wrong) or ""), (p, reason)


@pytest.mark.parametrize("p", [7, 13, 1117, 120_011, 10_000_141])
def test_multiples_equal_repeated_additions(p):
    # periods._mul, which doubles from the top bit of k, against k - 1
    # additions of P by the step it makes inline, for k = 1..64, at points
    # of E and of its twist; at 7 and 13 the orders are small and the sums
    # pass through O
    for _, P, _ in itertools.islice(periods._points(p), 6):
        R = P
        for k in range(1, 65):
            assert periods._mul(k, P, p) == R, (p, P, k)
            R = ladder_add(R, P, p)


@pytest.mark.parametrize("p", [10009, 13309])
def test_the_multiples_a_proof_reads_equal_repeated_additions(p):
    # the scalars that certified_trace multiplies by, n/q^e and then q up
    # to e times, at the point of the proof, against repeated additions:
    # 10009 reads 7^2, and 13309 four prime powers, 2^4 among them
    def repeated(k, Q):
        R = Q
        for _ in range(k - 1):
            R = ladder_add(R, Q, p)
        return R

    _, proof = jacobi_sum(p, generator_omega(p))
    P = next(P for x, P, _ in periods._points(p) if x == proof.x)
    for q, e in proof.prime_powers:
        k = proof.order // q**e
        Q = periods._mul(k, P, p)
        assert Q == repeated(k, P), (p, q)
        for _ in range(e):
            if Q is None:
                break
            R = periods._mul(q, Q, p)
            assert R == repeated(q, Q), (p, q)
            Q = R
        assert Q is None, (p, q)


def test_traces_that_e_leaves_open_are_settled(monkeypatch):
    # the points of the twist among the first ones settle the trace; with
    # the points of E alone it stays open, and jacobi_sum refuses, however
    # small p is
    traces = {}
    for p in E_AMBIGUOUS:
        jacobi, _ = jacobi_sum(p, generator_omega(p))
        assert jacobi == jacobi_by_prime_element(p), p
        traces[p] = jacobi.trace()
    monkeypatch.setattr(periods, "_points", points_of_e_alone)
    for p in E_AMBIGUOUS:
        assert periods.certified_trace(p, traces[p]) is None, p
        with pytest.raises(BudgetExceeded, match="open"):
            jacobi_sum(p, generator_omega(p))


def test_certificate_equals_baby_step_giant_step():
    # the search over every candidate trace that the certificate replaced,
    # at the seeded primes below 10^16 and the first three in (10^16, 10^20):
    # above 10^7 the one oracle that does not share the candidate from
    # Cornacchia's element.  It takes about p^(1/4) steps, 0.06 s near
    # 3*10^16 and 0.65 s near 8*10^19
    sampled = seeded_primes()
    beyond = [p for p in sampled if 10**16 < p < 10**20][:3]
    for p in [*(p for p in sampled if p < 10**16), *beyond]:
        assert jacobi_sum(p, generator_omega(p))[0] == jacobi_by_bsgs(p), p


def test_certificate_proves_one_trace_in_the_hasse_interval():
    # of all s with s^2 <= 4p, only Tr J is proven, at every prime = 1 mod 3
    # below 3000; without the class mod 9, a second s would pass at 31, 61
    # and 19 more of them
    for p in (p for p in PRIMES_1_MOD_3 if p < 3000):
        bound = math.isqrt(4 * p)
        proven = [s for s in range(-bound, bound + 1) if periods.certified_trace(p, s) is not None]
        assert proven == [jacobi_sum(p, generator_omega(p))[0].trace()], p


@pytest.mark.parametrize("p", [109, 19441])
def test_certificate_factors_each_order_once(monkeypatch, p):
    # the trace at 109 takes 4 points, at 19441 11, on E and its twist: two
    # group orders, each factored once, where 4 and 11 factorizations were
    # made while every point factored its own
    t = jacobi_sum(p, generator_omega(p))[0].trace()
    calls = count_calls(monkeypatch, periods, "factorize")
    assert periods.certified_trace(p, t) is not None
    assert sorted(calls) == sorted([(p + 1 - t,), (p + 1 + t,)])


@pytest.mark.parametrize(
    "p", [3317044064679887385942649, 3317044064679887385939553, 3317044064679887385922003]
)
def test_an_order_at_or_above_mr_bound_proves_nothing(monkeypatch, p):
    # three primes just below MR_BOUND whose twist has a probable prime
    # order at or above it, where factorize proves nothing: that order is
    # never factored, the points of E prove the trace, and the points of the
    # twist alone leave it open
    t = jacobi_sum(p, generator_omega(p))[0].trace()
    assert p + 1 - t >= MR_BOUND and is_probable_prime(p + 1 - t)
    calls = count_calls(monkeypatch, periods, "factorize")
    assert periods.certified_trace(p, t) is not None
    assert calls == [(p + 1 + t,)]
    points = periods._points
    monkeypatch.setattr(periods, "_points", lambda q: (pt for pt in points(q) if pt[2] == -1))
    assert periods.certified_trace(p, t) is None
    assert calls == [(p + 1 + t,)]


REFUSAL_PRIMES = [7, 13, 1117, 10_000_141]


@pytest.mark.parametrize("p", REFUSAL_PRIMES)
def test_certificate_refuses_every_other_candidate(p):
    # t + 9 and t - 9 keep the class mod 9, and the associates of J other
    # than J have other traces; no point proves any of them
    jacobi, _ = jacobi_sum(p, generator_omega(p))
    t = jacobi.trace()
    assert periods.certified_trace(p, t) is not None
    others = [t + 9, t - 9, *((u * jacobi).trace() for u in UNITS[1:])]
    assert t not in others
    assert all(periods.certified_trace(p, s) is None for s in others), others


@pytest.mark.parametrize("p", REFUSAL_PRIMES)
def test_a_point_of_order_nine_proves_nothing(monkeypatch, p):
    # E's points at x = 12 have 9P = O: n kills them for every candidate,
    # and lcm(ord(P), 9)^2 = 81 never passes 16p
    t = jacobi_sum(p, generator_omega(p))[0].trace()
    point = 12 % p, 36 % p
    assert periods._mul(9, point, p) is None
    tries = [(None, point, 1)] * periods._POINT_TRIES
    monkeypatch.setattr(periods, "_points", lambda q: iter(tries))
    assert periods.certified_trace(p, t) is None


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
