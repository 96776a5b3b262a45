import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicperiods import (
    MR_BOUND,
    InvalidConductor,
    Kind,
    conductors_up_to,
    factorize,
    moebius,
    validate_conductor,
)
from cubicperiods.arith import _MR_WITNESSES, _TRIAL_BOUND, is_probable_prime


def sieve_moebius(limit: int) -> list[int]:
    """Independent linear-sieve oracle for the Moebius function."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    spf = [0] * (limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if p > spf[i] or i * p > limit:
                break
            spf[i * p] = p
            mu[i * p] = 0 if i % p == 0 else -mu[i]
    return mu


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(819).factors == ((3, 2), (7, 1), (13, 1))
    assert factorize(91).factors == ((7, 1), (13, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip():
    for m in range(1, 3000):
        fac = factorize(m)
        assert math.prod(p**e for p, e in fac.factors) == m
        assert all(e >= 1 for _, e in fac.factors)
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)


def test_factorize_beyond_sieve():
    # neither factor is below the trial-division bound or in the prime
    # table, so Brent's rho splits the product
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)


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
        assert factorize(m).factors == trial_division(m, primes), m


# primes between the trial-division bound (1000) and 10^6
BEYOND_TRIAL = (1009, 1013, 4999, 65537, 999983)


@pytest.mark.parametrize("p", BEYOND_TRIAL)
def test_factorize_squares_and_products_beyond_trial_division(p):
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(p**3).factors == ((p, 3),)
    for q in BEYOND_TRIAL:
        if q != p:
            lo, hi = sorted((p, q))
            assert factorize(p * q).factors == ((lo, 1), (hi, 1))
            assert factorize(p * p * q).factors == tuple(sorted(((p, 2), (q, 1))))
            assert factorize(7 * p * p * q).factors == tuple(
                sorted(((7, 1), (p, 2), (q, 1)))
            )


def test_validate_rejects_a_square_beyond_trial_division():
    with pytest.raises(InvalidConductor, match="1009\\^2"):
        validate_conductor(7 * 1009**2)


def test_strong_pseudoprime_to_the_first_twelve_primes_is_composite():
    # 318665857834031151167461 passes Miller-Rabin to every base up to 37;
    # base 41 exposes it, which makes the test deterministic below MR_BOUND
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461 < MR_BOUND
    assert not is_probable_prime(n)
    assert factorize(n).factors == ((399165290221, 1), (798330580441, 1))
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
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_three_primes_beyond_a_million():
    primes = (1_000_003, 1_000_033, 1_000_037)
    assert all(is_prime_by_trial_division(p) for p in primes)
    assert {p % 6 for p in primes} == {1, 5}
    assert factorize(math.prod(primes)).factors == tuple((p, 1) for p in primes)


# every prime in 1000..20000, by trial division, in both classes mod 6
PRIMES_ABOVE_TRIAL = [p for p in range(1001, 20_000, 2) if is_prime_by_trial_division(p)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.sampled_from(PRIMES_ABOVE_TRIAL), min_size=2, max_size=3))
def test_factorize_products_of_primes_above_the_trial_bound(primes):
    expected = tuple(sorted(Counter(primes).items()))
    assert factorize(math.prod(primes)).factors == expected


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
    assert factorize(2**90).factors == ((2, 90),)


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
    assert math.prod(p**e for p, e in fac.factors) == m
    assert all(is_probable_prime(p) for p, _ in fac.factors)
    from_factors = (-1) ** len(fac.factors) if fac.is_squarefree() else 0
    assert moebius(m) == from_factors == expected


def test_validate_819():
    cond = validate_conductor(819)
    assert cond.kind is Kind.WILD
    assert cond.nu == 2
    assert cond.odd_primes == (7, 13)
    assert math.prod(cond.odd_primes) == 91


def test_validate_nine_is_wild_with_no_odd_primes():
    cond = validate_conductor(9)
    assert cond.kind is Kind.WILD
    assert cond.nu == 0
    assert cond.odd_primes == ()


def test_validate_tame():
    cond = validate_conductor(7)
    assert cond.kind is Kind.TAME and cond.nu == 1


@pytest.mark.parametrize(
    "bad", [99, 1, 3, 21, 27, 49, 18, 0, -5, 63 * 3, 9 * 49, 9 * 11]
)
def test_validate_rejections(bad):
    with pytest.raises(InvalidConductor):
        validate_conductor(bad)


def test_conductors_up_to_examples():
    assert [c.value for c in conductors_up_to(10, Kind.WILD)] == [9]
    assert [c.value for c in conductors_up_to(10, "tame")] == [7]
    assert [c.value for c in conductors_up_to(100, Kind.WILD)] == [9, 63]
    assert [c.value for c in conductors_up_to(63, start=20)] == [31, 37, 43, 61, 63]
    assert conductors_up_to(100, "wild", start=10) == conductors_up_to(100, "wild")[1:]


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
    for kind in (None, Kind.TAME, Kind.WILD):
        wanted = [f for f in expected if kind is None or (f % 9 == 0) == (kind is Kind.WILD)]
        for start in (1, 8, 9, 10, 4000):
            found = conductors_up_to(bound, kind, start=start)
            assert [c.value for c in found] == [f for f in wanted if f >= start], (kind, start)
            assert kind is None or all(c.kind is kind for c in found)
