"""A defect matrix: each row plants one defect by rebinding the function
that makes it, and names the exception and the check that must stop it, at
a tame and at a wild conductor.  A row that no check stops yet is a strict
xfail whose reason names the gap, so closing the gap turns it into a pass.
"""

import math
import traceback

import pytest

from cubicperiods import VerificationError, match_fields, validate_conductor
from cubicperiods import arith, eisenstein, periods
from cubicperiods.arith import _component_moduli
from cubicperiods.cli import main
from cubicperiods.eisenstein import ZETA


def replace_jacobi_sum_at(q, change):
    # on J alone: its proof, and the record of the prime that holds both,
    # stay as they are
    def plant(monkeypatch):
        jacobi_sum = periods.jacobi_sum

        def planted(p, omega):
            jacobi, proof = jacobi_sum(p, omega)
            return (change(jacobi) if p == q else jacobi), proof

        monkeypatch.setattr(periods, "jacobi_sum", planted)

    return plant


# Conjugating J(chi, chi) at one prime conjugates that component's cube.
# Each kernel's cube T is then the cube of another kernel, or its
# conjugate, which has the same trace and periods.  The pair's character
# names the kernel whose T must be the pair's own, and catches both: at the
# first component of the conductor T is conjugated against that character;
# at a later one the kernel's T is another pair's.
def conjugate_jacobi_sum_at(q):
    return replace_jacobi_sum_at(q, lambda j: j.conjugate())


def negate_jacobi_sum_at(q):
    return replace_jacobi_sum_at(q, lambda j: -j)


def replace_chi9_cube(change):
    def plant(monkeypatch):
        chi9_gauss_sum = periods._chi9_gauss_sum

        def planted(e):
            tau, cube = chi9_gauss_sum(e)
            return tau, change(cube)

        monkeypatch.setattr(periods, "_chi9_gauss_sum", planted)

    return plant


conjugate_chi9_cube = replace_chi9_cube(lambda cube: cube.conjugate())
negate_chi9_cube = replace_chi9_cube(lambda cube: -cube)


def negate_mu(monkeypatch):
    mu = arith.Conductor.mu
    monkeypatch.setattr(arith.Conductor, "mu", property(lambda f: -mu.fget(f)))


def replace_prime_element_at_7(change):
    # on pi_7 alone: omega_7 and the Jacobi sums that it names stay right
    def plant(monkeypatch):
        prime_element = eisenstein._prime_element

        def planted(p):
            record = prime_element(p)
            return record._replace(pi=change(record.pi)) if p == 7 else record

        monkeypatch.setattr(eisenstein, "_prime_element", planted)

    return plant


zeta3_times_prime_element_at_7 = replace_prime_element_at_7(lambda pi: ZETA * pi)
negate_prime_element_at_7 = replace_prime_element_at_7(lambda pi: -pi)


def shift_offset_by_one(monkeypatch):
    shanks_params = periods.shanks_params
    monkeypatch.setattr(
        periods,
        "shanks_params",
        lambda r: shanks_params(r)._replace(offset=shanks_params(r).offset + 1),
    )


# At 7 and 9 a move of 100 ulps is inside the rounding bound, so it is no
# defect there.
def move_largest_root_by_100_ulps(monkeypatch):
    shanks_roots = periods.shanks_roots

    def planted(sp):
        largest, *rest = shanks_roots(sp)
        return (largest + 100 * math.ulp(largest), *rest)

    monkeypatch.setattr(periods, "shanks_roots", planted)


def swap_eta1_and_eta2(monkeypatch):
    gaussian_periods = periods.gaussian_periods

    def planted(f, kernel, cubes):
        pt = gaussian_periods(f, kernel, cubes)
        return pt._replace(eta1=pt.eta2, eta2=pt.eta1)

    monkeypatch.setattr(periods, "gaussian_periods", planted)


# The pair's character names its kernel: with its exponent at one component
# flipped it names another kernel, whose T is another pair's, or at the
# first component the conjugate of the pair's own.
def flip_character_at(q):
    def plant(monkeypatch):
        character_for_representation = periods.character_for_representation

        def planted(r, primes):
            exponents = list(character_for_representation(r, primes))
            i = _component_moduli(r.conductor).index(q)
            exponents[i] = 3 - exponents[i]
            return tuple(exponents)

        monkeypatch.setattr(periods, "character_for_representation", planted)

    return plant


def rows(plant, name, conductors, error, check):
    return [
        pytest.param(plant, f, error, check, id=f"{name}-{f}") for f in conductors
    ]


# (plant, conductor, exception, check)
ROWS = [
    pytest.param(
        conjugate_jacobi_sum_at(7), 91, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-91",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(7), 1729, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-1729",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(7), 819, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-819",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(7), 15561, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-15561",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(13), 91, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-13-91",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(13), 819, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-13-819",
    ),
    pytest.param(
        conjugate_chi9_cube, 9, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-chi9-cube-9",
    ),
    pytest.param(
        conjugate_chi9_cube, 819, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-chi9-cube-819",
    ),
    pytest.param(
        zeta3_times_prime_element_at_7, 91, "FactorizationMismatch", "representations",
        id="zeta3-times-prime-element-at-7-91",
    ),
    pytest.param(
        zeta3_times_prime_element_at_7, 819, "FactorizationMismatch", "representations",
        id="zeta3-times-prime-element-at-7-819",
    ),
    *rows(
        negate_jacobi_sum_at(7), "negate-J-at-7", (91, 819),
        "NormalizationFailure", "verify_kernel_character",
    ),
    *rows(
        negate_chi9_cube, "negate-chi9-cube", (9, 819),
        "NormalizationFailure", "verify_kernel_character",
    ),
    *rows(negate_mu, "negate-mu", (91, 819), "NormalizationFailure", "verify_kernel_character"),
    *rows(
        flip_character_at(7), "flip-character-at-7", (91, 819),
        "NormalizationFailure", "verify_kernel_character",
    ),
    *rows(
        flip_character_at(13), "flip-character-at-13", (91, 819),
        "NormalizationFailure", "verify_kernel_character",
    ),
    *rows(
        flip_character_at(9), "flip-character-at-9", (9, 819),
        "NormalizationFailure", "verify_kernel_character",
    ),
    *rows(
        negate_prime_element_at_7, "negate-prime-element-at-7", (91, 819),
        "FactorizationMismatch", "representations",
    ),
    *rows(
        shift_offset_by_one, "shift-offset-by-one", (91, 819),
        "IdentityFailure", "verify_main_identity",
    ),
    *rows(
        move_largest_root_by_100_ulps, "move-largest-root-by-100-ulps", (91, 819),
        "RelationFailure", "verify_period_relation",
    ),
    *rows(
        swap_eta1_and_eta2, "swap-eta1-and-eta2", (91, 819),
        "RelationFailure", "verify_period_relation",
    ),
]


@pytest.mark.parametrize("plant,conductor,error,check", ROWS)
def test_a_planted_defect_fails_verify(capsys, monkeypatch, plant, conductor, error, check):
    plant(monkeypatch)
    code = main(["verify", "--conductor", str(conductor)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"verification failure: {error}:" in captured.err
    with pytest.raises(VerificationError) as info:
        match_fields(validate_conductor(conductor))
    assert check in {frame.name for frame in traceback.extract_tb(info.tb)}


def test_the_verdicts_no_row_reaches():
    # each verdict is the residual of the check verify_<verdict>; these are
    # implied by the others (oracle_equivalence is a constant 0.0) and stay
    # because every report lists them
    checks = {row.values[3] for row in ROWS}
    verdicts = match_fields(validate_conductor(819))[0].verdicts
    unreached = {name for name in verdicts if f"verify_{name}" not in checks}
    assert unreached == {"oracle_equivalence", "sign_congruences", "generators"}
