import math

import pytest
from conftest import delta, search_pairs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicperiods import (
    Conductor,
    Representation,
    conductors_up_to,
    representations,
    shanks_params,
    validate_conductor,
)
from cubicperiods.arith import is_probable_prime
from cubicperiods.quadform import _check_pair


def brute_force_pairs(f, wild: bool) -> set[tuple[int, int]]:
    """Oracle: scan the full (M, N) box instead of solving for M."""
    pairs = set()
    bound = math.isqrt(4 * f)
    for m in range(-bound, bound + 1):
        for n in range(1, math.isqrt(4 * f // 27) + 1):
            if m * m + 27 * n * n != 4 * f:
                continue
            if wild:
                if m % 3 == 0 and (m // 3) % 3 == 2 and n % 3 != 0:
                    pairs.add((m, n))
            elif m % 3 == 2:
                pairs.add((m, n))
    return pairs


def test_representations_819():
    f = validate_conductor(819)
    assert [(r.M, r.N) for r in representations(f)] == [
        (51, 5),
        (24, 10),
        (-3, 11),
        (-57, 1),
    ]
    assert [r.M0 for r in representations(f)] == [17, 8, -1, -19]


@pytest.mark.parametrize(
    "f,expected",
    [
        (9, [(-3, 1)]),
        (7, [(-1, 1)]),
        (63, [(15, 1), (-12, 2)]),
        (91, [(11, 3), (-16, 2)]),
    ],
)
def test_representations_small(f, expected):
    assert [(r.M, r.N) for r in representations(validate_conductor(f))] == expected


def test_representations_match_brute_force():
    for cond in conductors_up_to(2000):
        got = {(r.M, r.N) for r in representations(cond)}
        assert got == brute_force_pairs(cond.value, cond.kind == "wild")


def test_counts_match_prediction():
    # the enumerator itself raises CountMismatch when the formula fails,
    # and the pairs built from prime elements must be the searched ones
    for cond in conductors_up_to(100_000):
        reps = representations(cond)
        expected = 2 ** (cond.nu - 1) if cond.kind == "tame" else 2**cond.nu
        assert len(reps) == expected
        assert len({r.M for r in reps}) == len(reps)
        assert [(r.M, r.N) for r in reps] == search_pairs(cond)


LIMIT = 10**10


def next_prime_1_mod_3(n: int) -> int:
    n += (1 - n) % 3
    while not is_probable_prime(n):
        n += 3
    return n


def log_uniform(top: int):
    """Integers in [1, top] whose number of digits is uniform."""
    return st.integers(1, len(str(top))).flatmap(
        lambda d: st.integers(10 ** (d - 1), min(10**d, top))
    )


@st.composite
def conductors(draw):
    """Tame and wild conductors up to LIMIT with nu <= 6 random primes
    = 1 mod 3, each drawn up to ten times the nu-th root of the room left
    by the factor 9; the largest are dropped until f fits."""
    cofactor = draw(st.sampled_from((1, 9)))
    nu = draw(st.integers(1 if cofactor == 1 else 0, 6))
    top = 10 * round((LIMIT // cofactor) ** (1 / max(nu, 1)))
    seeds = draw(st.lists(log_uniform(top), min_size=nu, max_size=nu))
    primes = sorted({next_prime_1_mod_3(seed) for seed in seeds})
    while cofactor * math.prod(primes) > LIMIT:
        primes.pop()
    # a lone prime above LIMIT leaves 1, which is no conductor
    assume(cofactor * math.prod(primes) > 1)
    return validate_conductor(cofactor * math.prod(primes))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(conductors())
def test_representations_match_search_on_random_conductors(cond):
    reps = representations(cond)
    assert [(r.M, r.N) for r in reps] == search_pairs(cond)
    # the facts _check_pair implies and shanks_params no longer re-checks
    for r in reps:
        n1, n2, _, _ = shanks_params(r)
        assert delta(n1, n2) == cond.value
        assert math.gcd(n1, n2) == 1
        if cond.is_wild:
            assert n1 % 3 == 0
            assert (2 * n1 // 3 + n2) % 3 == 2


@pytest.mark.parametrize(
    "f,MN,expected",
    [
        (819, (51, 5), (18, 5, 819)),
        (9, (-3, 1), (-3, 1, 9)),
        (7, (-1, 1), (-2, 1, 7)),
    ],
)
def test_shanks_params_examples(f, MN, expected):
    cond = validate_conductor(f)
    rep = next(r for r in representations(cond) if (r.M, r.N) == MN)
    sp = shanks_params(rep)
    assert (sp.n1, sp.n2, delta(sp.n1, sp.n2)) == expected


def test_shanks_params_roundtrip():
    for cond in conductors_up_to(3000):
        for rep in representations(cond):
            sp = shanks_params(rep)
            assert 2 * sp.n1 + 3 * sp.n2 == rep.M
            assert sp.n2 == rep.N
            assert math.gcd(sp.n1, sp.n2) == 1
            assert delta(sp.n1, sp.n2) == cond.value


def test_representation_validates_fields():
    f = validate_conductor(7)
    with pytest.raises(ValueError):
        _check_pair(Representation(2, 1, f))
    # 35^2 + 27*7^2 = 4*637 with 35 = 2 mod 3, but n1 = n2 = 7; 637 = 7^2*13
    # is no conductor, so the Conductor is built by hand
    f637 = Conductor(637, (7, 13))
    with pytest.raises(ValueError, match="coprime"):
        _check_pair(Representation(35, 7, f637))
