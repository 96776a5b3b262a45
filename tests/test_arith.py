import math
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from conftest import count_calls, sieve_moebius, validate_by_factorization
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicperiods import arith
from cubicperiods import (
    MR_BOUND,
    InvalidConductor,
    conductors_up_to,
    factorize,
    moebius,
    validate_conductor,
)
from cubicperiods.arith import (
    _MR_WITNESSES,
    _PM1_B1,
    _PM1_B2,
    _PM1_D,
    _PM1_EXPONENT,
    _PM1_MIN,
    _TRIAL_BOUND,
    _TRIAL_PRIMES,
    is_probable_prime,
)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(819) == ((3, 2), (7, 1), (13, 1))
    assert factorize(91) == ((7, 1), (13, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("fn", [factorize, moebius])
@pytest.mark.parametrize("bad", [6.5, 7.0, "7", 0.5, -2.5])
def test_factorize_and_moebius_reject_a_non_integer(fn, bad):
    with pytest.raises(TypeError):
        fn(bad)


def test_factorize_roundtrip():
    for m in range(1, 3000):
        fac = factorize(m)
        assert math.prod(p**e for p, e in fac) == m
        assert all(e >= 1 for _, e in fac)
        primes = [p for p, _ in fac]
        assert primes == sorted(primes)


def test_factorize_beyond_sieve():
    # neither factor is below the trial-division bound or in the prime
    # table, so p-1 (stage 2 finds 1000033) or Brent's rho splits the product
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == ((p, 1), (q, 1))
    assert factorize(p * p) == ((p, 2),)


def test_pm1_exponent_is_the_largest_prime_powers_up_to_b1():
    exponent = 1
    for p in arith._TRIAL_PRIMES:
        if p <= arith._PM1_B1:
            power = p
            while power * p <= arith._PM1_B1:
                power *= p
            exponent *= power
    assert _PM1_EXPONENT == exponent and exponent.bit_length() == 354


# the primes that stage 2 must cover
STAGE2_PRIMES = [s for s in arith._primes_below(_PM1_B2 + 1) if s > _PM1_B1]


def pm1_stage(p: int) -> int | None:
    """The p-1 stage that finds the prime p, from the module's bounds: 1 when
    2^_PM1_EXPONENT = 1 mod p, 2 when that holds once raised to one prime s
    in (_PM1_B1, _PM1_B2], None when neither does."""
    b = pow(2, _PM1_EXPONENT, p)
    if b == 1:
        return 1
    return 2 if any(pow(b, s, p) == 1 for s in STAGE2_PRIMES) else None


def stage2_pair(p: int) -> tuple[int, int]:
    """(v, u) with s = v*_PM1_D +- u, for the prime s of STAGE2_PRIMES that
    stage 2 finds p by: v is the nearest integer to s/D."""
    b = pow(2, _PM1_EXPONENT, p)
    s = next(s for s in STAGE2_PRIMES if pow(b, s, p) == 1)
    v = round(s / _PM1_D)
    return v, abs(s - v * _PM1_D)


# the stages that find p and q, and whether _pollard_pm1(p * q) splits it,
# by route
PM1_ROUTES = {
    "stage 1": ((1, None), True),
    "stage 2": ((2, None), True),
    "stage 2 beyond 1000": ((2, None), True),
    # stage 1 finds both primes at once, so gcd(b - 1, n) = n; raising 2
    # one prime power at a time finds q at 137 and p only at 229
    "stage 1 gives n": ((1, 1), True),
    # stage 2 finds both primes at one giant step, in two of its terms
    "one giant step": ((2, 2), True),
    # stage 2 finds both primes in one term
    "one term gives n": ((2, 2), False),
    "neither": ((None, None), False),
    "beyond B2": ((None, None), False),
}


@pytest.mark.parametrize(
    "p,q,route",
    [
        (1_000_273, 10_000_141, "stage 1"),
        # 1000032 = 2^5 * 3 * 11 * 947
        (1_000_033, 10_000_141, "stage 2"),
        # 1000098 = 2 * 3^2 * 11 * 5051
        (1_000_099, 10_000_141, "stage 2 beyond 1000"),
        (1_000_273, 10_000_453, "stage 1 gives n"),
        # 5051 = 24*210 + 11 and 10001832 = 2^3 * 3 * 83 * (24*210 - 19)
        (1_000_099, 10_001_833, "one giant step"),
        # 1000608 = 2^5 * 3 * 7 * (7*210 + 19) and
        # 10011900 = 2^2 * 3 * 5^2 * 23 * (7*210 - 19)
        (1_000_609, 10_011_901, "one term gives n"),
        # 1000002 = 2 * 3 * 166667 and 10000140 = 2^2 * 3 * 5 * 166669
        (1_000_003, 10_000_141, "neither"),
        # 1000038 = 2 * 3 * 13 * 12821 and 10000188 = 2^2 * 3^2 * 11 * 25253
        (1_000_039, 10_000_189, "beyond B2"),
    ],
)
def test_each_pm1_route_splits_a_conductor(monkeypatch, p, q, route):
    stages, split = PM1_ROUTES[route]
    assert (pm1_stage(p), pm1_stage(q)) == stages
    if route.startswith("one "):
        (v, u), (w, t) = stage2_pair(p), stage2_pair(q)
        assert v == w and (u == t) == (route == "one term gives n")
    n = p * q
    assert n >= _PM1_MIN
    assert arith._pollard_pm1(n) in ((p, q) if split else (None,))
    rho_calls = count_calls(monkeypatch, arith, "_brent_rho")
    assert factorize(n) == ((p, 1), (q, 1))
    assert rho_calls == ([] if split else [(n,)])
    assert validate_conductor(n).odd_primes == (p, q)


def test_pm1_stage_two_visits_a_pair_for_every_prime_up_to_b2(monkeypatch):
    # each product of stage 2 is one giant step G = b^((vD)^2); each of its
    # terms G - H is read back as the baby step H = b^(u^2) of its pair
    # (v, u), and every prime s in (B1, B2] must divide (vD)^2 - u^2 for a
    # pair visited.  Neither stage splits n, so stage 2 runs to its end
    n = 1_000_003 * 10_000_141
    steps = []

    def prod(terms):
        steps.append(list(terms))
        return math.prod(steps[-1])

    monkeypatch.setattr(arith, "math", SimpleNamespace(gcd=math.gcd, prod=prod))
    assert arith._pollard_pm1(n) is None
    b = pow(2, _PM1_EXPONENT, n)
    baby = {pow(b, u * u, n): u for u in range(1, _PM1_D // 2)}
    pairs = set()
    for v, terms in enumerate(steps, 1):
        giant = pow(b, (v * _PM1_D) ** 2, n)
        pairs.update((v, baby[(giant - term) % n]) for term in terms)
    assert len(pairs) == sum(map(len, steps))
    for s in STAGE2_PRIMES:
        assert any(((v * _PM1_D) ** 2 - u * u) % s == 0 for v, u in pairs), s


def test_pm1_runs_only_on_cofactors_at_or_above_its_gate(monkeypatch):
    calls = count_calls(monkeypatch, arith, "_pollard_pm1")
    small = 1009 * 1013
    assert small < _PM1_MIN
    assert factorize(small) == ((1009, 1), (1013, 1))
    assert calls == []
    large = 1_000_003 * 1_000_033
    assert large >= _PM1_MIN
    assert factorize(7 * large) == ((7, 1), (1_000_003, 1), (1_000_033, 1))
    assert calls == [(large,)]


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.integers(10**5, 10**8).map(next_prime), min_size=2, max_size=3))
def test_pm1_gives_a_proper_divisor_and_leaves_factorize_unchanged(primes):
    n = math.prod(primes)
    d = arith._pollard_pm1(n)
    assert d is None or (1 < d < n and n % d == 0)
    with mock.patch.object(arith, "_pollard_pm1", lambda m: None):
        by_rho = factorize(n)
    assert factorize(n) == by_rho == tuple(sorted(Counter(primes).items()))


# a prime of each route: stage 1, stage 2 below and above 1000, and neither
@pytest.mark.parametrize("p", [1_000_273, 1_000_033, 1_000_099, 1_000_003])
def test_factorize_square_cofactors_above_the_pm1_gate(p):
    assert p * p >= _PM1_MIN
    assert factorize(p * p) == ((p, 2),)
    for q in (1009, 10_000_141):
        assert factorize(p * p * q) == tuple(sorted(((p, 2), (q, 1))))


def trial_division(m: int, primes: list[int]) -> tuple[tuple[int, int], ...]:
    """Oracle: divide by every prime p with p^2 <= m, in order."""
    found = []
    for p in primes:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            found.append((p, e))
    if m > 1:
        found.append((m, 1))
    return tuple(found)


def test_factorize_matches_full_trial_division():
    limit = 200_000
    primes = [p for p in range(2, math.isqrt(limit) + 1) if is_probable_prime(p)]
    for m in range(1, limit + 1):
        assert factorize(m) == trial_division(m, primes), m


# primes between the trial-division bound (1000) and 10^6
BEYOND_TRIAL = (1009, 1013, 4999, 65537, 999983)


@pytest.mark.parametrize("p", BEYOND_TRIAL)
def test_factorize_squares_and_products_beyond_trial_division(p):
    assert factorize(p * p) == ((p, 2),)
    assert factorize(p**3) == ((p, 3),)
    for q in BEYOND_TRIAL:
        if q != p:
            lo, hi = sorted((p, q))
            assert factorize(p * q) == ((lo, 1), (hi, 1))
            assert factorize(p * p * q) == tuple(sorted(((p, 2), (q, 1))))
            assert factorize(7 * p * p * q) == tuple(
                sorted(((7, 1), (p, 2), (q, 1)))
            )


def test_validate_rejects_a_square_beyond_trial_division():
    with pytest.raises(InvalidConductor, match="1009\\^2"):
        validate_conductor(7 * 1009**2)


def test_validate_refuses_a_small_offender_without_splitting_the_cofactor(monkeypatch):
    # 17 * 66155599207 * 1316831249381: trial division finds 17 = 2 mod 3,
    # and the cofactor, which would take p-1 and rho, is left unsplit

    def unsplit(n):
        raise AssertionError(f"cofactor {n} split")

    monkeypatch.setattr(arith, "_pollard_pm1", unsplit)
    monkeypatch.setattr(arith, "_brent_rho", unsplit)
    f = 1480967926074142548294739
    assert f == 17 * 66155599207 * 1316831249381
    with pytest.raises(InvalidConductor) as refusal:
        validate_conductor(f)
    assert str(refusal.value) == f"prime factor 17 of {f} is congruent to 2 mod 3"


def test_strong_pseudoprime_to_the_first_twelve_primes_is_composite():
    # 318665857834031151167461 passes Miller-Rabin to every base up to 37;
    # base 41 exposes it, which makes the test deterministic below MR_BOUND
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461 < MR_BOUND
    assert not is_probable_prime(n)
    assert factorize(n) == ((399165290221, 1), (798330580441, 1))
    assert is_probable_prime(399165290221) and is_probable_prime(798330580441)


def is_prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize(
    "p,q",
    [
        # balanced, both 1 mod 6: rho's map y^6 + c meets either in about
        # sqrt(p / 5) steps
        (10_000_000_033, 10_000_000_069),
        # balanced, both 5 mod 6: y^6 + c gains nothing over y^2 + c here
        (10_000_000_019, 10_000_000_061),
    ],
)
def test_factorize_balanced_semiprime_near_ten_to_the_twenty(p, q):
    assert p % 6 == q % 6 and is_prime_by_trial_division(p) and is_prime_by_trial_division(q)
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_factorize_three_primes_beyond_a_million():
    primes = (1_000_003, 1_000_033, 1_000_037)
    assert all(is_prime_by_trial_division(p) for p in primes)
    assert {p % 6 for p in primes} == {1, 5}
    assert factorize(math.prod(primes)) == tuple((p, 1) for p in primes)


# every prime in 1000..20000, by trial division, in both classes mod 6
PRIMES_ABOVE_TRIAL = [p for p in range(1001, 20_000, 2) if is_prime_by_trial_division(p)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(PRIMES_ABOVE_TRIAL), min_size=2, max_size=3))
def test_factorize_products_of_primes_above_the_trial_bound(primes):
    expected = tuple(sorted(Counter(primes).items()))
    assert factorize(math.prod(primes)) == expected


def is_strong_probable_prime(n: int, a: int) -> bool:
    """The strong test of odd n > 2 to base a, written out from n - 1 = d * 2^s."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def _prime_powers(primes: list[int]):
    """Up to two distinct primes drawn from primes, each to the power 1 or 2."""
    return st.lists(
        st.tuples(st.sampled_from(primes), st.integers(1, 2)),
        max_size=2,
        unique_by=lambda power: power[0],
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.integers(0, 3), _prime_powers(_TRIAL_PRIMES[2:]), _prime_powers(PRIMES_ABOVE_TRIAL))
@example(0, [(13, 2)], [(1009, 1), (1021, 1)])
@example(1, [(5, 1)], [(1009, 1)])
@example(3, [], [(1013, 2)])
@example(2, [(7, 1)], [(1013, 1)])
@example(0, [(7, 1)], [(1009, 2), (1021, 1)])
def test_validate_refuses_as_the_whole_factorization_does(three, small, large):
    # 3-parts 1, 3, 9 and 27, trial primes and primes above the trial bound
    # of both classes mod 3, squared or not: the refusals that trial
    # division settles give the message of the whole factorization
    f = 3**three * math.prod(p**e for p, e in small + large)
    assume(f < MR_BOUND)
    expected = validate_by_factorization(f)
    try:
        outcome = validate_conductor(f).odd_primes
    except InvalidConductor as refusal:
        outcome = str(refusal)
    assert outcome == expected


@pytest.mark.parametrize("k,psi", list(enumerate(PSI, start=1)))
def test_least_strong_pseudoprime_to_k_bases_is_composite(k, psi):
    # psi_k passes the first k bases, so is_probable_prime must take more
    assert all(is_strong_probable_prime(psi, a) for a in _MR_WITNESSES[:k])
    assert not is_probable_prime(psi)


def test_mr_bound_is_a_strong_pseudoprime_to_all_thirteen_bases():
    assert all(is_strong_probable_prime(MR_BOUND, a) for a in _MR_WITNESSES)


# MR_BOUND is composite, 2^89 - 1 is prime: Miller-Rabin proves neither
@pytest.mark.parametrize("m", [MR_BOUND, 2**89 - 1, 3 * MR_BOUND])
@pytest.mark.parametrize("fn", [factorize, moebius])
def test_no_cofactor_beyond_proven_primality_is_called_prime(fn, m):
    with pytest.raises(ValueError, match=str(MR_BOUND)):
        fn(m)


def test_factorize_power_of_two_beyond_proven_primality():
    assert factorize(2**90) == ((2, 90),)


@pytest.mark.parametrize("f", [MR_BOUND, MR_BOUND + 2, 10**30 + 1])
def test_validate_refuses_conductors_beyond_proven_primality(f):
    with pytest.raises(InvalidConductor, match=str(MR_BOUND)):
        validate_conductor(f)


@pytest.mark.parametrize("m,expected", [(1, 1), (91, 1), (9, 0), (7, -1), (30, -1)])
def test_moebius_examples(m, expected):
    assert moebius(m) == expected


def test_moebius_agrees_with_sieve():
    limit = 20_000
    mu = sieve_moebius(limit)
    for m in range(1, limit + 1):
        assert moebius(m) == mu[m]


@pytest.mark.parametrize(
    "m,expected",
    [
        (4099**2, 0),
        (4099 * 4111, 1),
        (9 * 4099 * 4111, 0),
        (1_000_003**2, 0),
        (1_000_003 * 1_000_033, 1),
    ],
)
def test_moebius_matches_factorize_beyond_prime_table(m, expected):
    # each m has a prime factor above the trial primes and exceeds the
    # square of their bound, so moebius runs past trial division and falls
    # back
    assert _TRIAL_BOUND < 4099 and m > _TRIAL_BOUND**2
    fac = factorize(m)
    assert math.prod(p**e for p, e in fac) == m
    assert all(is_probable_prime(p) for p, _ in fac)
    from_factors = (-1) ** len(fac) if all(e == 1 for _, e in fac) else 0
    assert moebius(m) == from_factors == expected


def test_validate_819():
    cond = validate_conductor(819)
    assert cond.kind == "wild"
    assert cond.nu == 2
    assert cond.odd_primes == (7, 13)
    assert math.prod(cond.odd_primes) == 91


def test_validate_nine_is_wild_with_no_odd_primes():
    cond = validate_conductor(9)
    assert cond.kind == "wild"
    assert cond.nu == 0
    assert cond.odd_primes == ()


def test_validate_tame():
    cond = validate_conductor(7)
    assert cond.kind == "tame" and cond.nu == 1


@pytest.mark.parametrize(
    "bad", [99, 1, 3, 21, 27, 49, 18, 0, -5, 63 * 3, 9 * 49, 9 * 11, 7.0, 819.0, "7"]
)
def test_validate_rejections(bad):
    with pytest.raises(InvalidConductor):
        validate_conductor(bad)


def test_conductors_up_to_examples():
    assert [c.value for c in conductors_up_to(10, "wild")] == [9]
    assert [c.value for c in conductors_up_to(10, "tame")] == [7]
    assert [c.value for c in conductors_up_to(100, "wild")] == [9, 63]
    assert [c.value for c in conductors_up_to(63, start=20)] == [31, 37, 43, 61, 63]
    assert conductors_up_to(100, "wild", start=10) == conductors_up_to(100, "wild")[1:]
    with pytest.raises(ValueError):
        conductors_up_to(10, "odd")


def test_conductors_up_to_walks_no_candidate_below_one(monkeypatch):
    # a start below 1 is clamped to 1: walked from -10**12, the candidates
    # would take hours, so validating more than the 17 tame and 2 wild
    # candidates up to 100 fails at once
    expected = conductors_up_to(100)
    validate = arith.validate_conductor
    seen = []

    def counted(f):
        seen.append(f)
        if len(seen) > 19:
            raise RuntimeError(f"candidate {f} validated after {seen[:3]}")
        return validate(f)

    monkeypatch.setattr(arith, "validate_conductor", counted)
    assert conductors_up_to(100, start=-10**12) == expected


@pytest.mark.parametrize(
    "f,mu,count", [(7, -1, 1), (9, 1, 1), (63, -1, 2), (91, 1, 2), (819, 1, 4), (1729, -1, 4)]
)
def test_conductor_mu_and_field_count(f, mu, count):
    cond = validate_conductor(f)
    assert cond.mu == mu
    assert cond.field_count == count


def test_conductor_mu_is_moebius_of_the_odd_part(conductors_10k):
    for cond in conductors_10k:
        assert cond.mu == moebius(math.prod(cond.odd_primes)), cond.value


def _conductor_oracle(f: int) -> bool:
    """Direct divisibility characterization, independent of validate_conductor."""

    def squarefree_primes_1mod3(m: int) -> bool:
        d = 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0 or d % 3 != 1:
                    return False
            else:
                d += 1
        return m == 1 or m % 3 == 1

    if f < 1:
        return False
    if f % 9 == 0:
        rest = f // 9
        return rest % 3 != 0 and (rest == 1 or squarefree_primes_1mod3(rest))
    if f % 3 == 0 or f == 1:
        return False
    return squarefree_primes_1mod3(f)


def test_conductors_up_to_matches_oracle():
    # all conductors and each kind, from several starts, in ascending order:
    # only the candidates 1 mod 6 and 9 mod 54 are validated
    bound = 10_000
    expected = [f for f in range(1, bound + 1) if _conductor_oracle(f)]
    assert [c.value for c in conductors_up_to(bound)] == expected
    for kind in (None, "tame", "wild"):
        wanted = [f for f in expected if kind is None or (f % 9 == 0) == (kind == "wild")]
        for start in (1, 8, 9, 10, 4000):
            found = conductors_up_to(bound, kind, start=start)
            assert [c.value for c in found] == [f for f in wanted if f >= start], (kind, start)
            assert kind is None or all(c.kind == kind for c in found)
