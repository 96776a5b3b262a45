"""A defect matrix: each row plants one defect by rebinding the function
that makes it, and names the exception and the check that must stop it, at
a tame and at a wild conductor.  A row that no check stops yet is a strict
xfail whose reason names the gap, so closing the gap turns it into a pass.
"""

import traceback

import pytest

from cubicperiods import VerificationError, match_fields, validate_conductor
from cubicperiods import eisenstein
from cubicperiods.cli import main
from cubicperiods.eisenstein import ZETA


# Conjugating J(chi, chi) at one prime conjugates that component's cube.
# Each kernel's cube T is then the cube of another kernel, or its
# conjugate, which has the same trace and periods: the matching only swaps
# which kernel goes to which pair, and the character of the pair catches
# it.  At the first component of the conductor T is conjugated against the
# pair's character; at a later one T keeps its orientation and the kernel
# differs.
def conjugate_jacobi_sum_at(q):
    def plant(monkeypatch):
        jacobi_sum = eisenstein.jacobi_sum
        monkeypatch.setattr(
            eisenstein,
            "jacobi_sum",
            lambda p: jacobi_sum(p).conjugate() if p == q else jacobi_sum(p),
        )

    return plant


def conjugate_chi9_cube(monkeypatch):
    chi9_gauss_sum = eisenstein._chi9_gauss_sum

    def planted(e):
        tau, cube = chi9_gauss_sum(e)
        return tau, cube.conjugate()

    monkeypatch.setattr(eisenstein, "_chi9_gauss_sum", planted)


def zeta3_times_prime_element_at_7(monkeypatch):
    prime_element = eisenstein.prime_element
    monkeypatch.setattr(
        eisenstein,
        "prime_element",
        lambda p: ZETA * prime_element(p) if p == 7 else prime_element(p),
    )


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
        conjugate_jacobi_sum_at(13), 91, "MatchingFailure", "verify_kernel_character",
        id="conjugate-J-at-13-91",
    ),
    pytest.param(
        conjugate_jacobi_sum_at(13), 819, "MatchingFailure", "verify_kernel_character",
        id="conjugate-J-at-13-819",
    ),
    pytest.param(
        conjugate_chi9_cube, 9, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-chi9-cube-9",
    ),
    pytest.param(
        conjugate_chi9_cube, 819, "MatchingFailure", "verify_kernel_character",
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
