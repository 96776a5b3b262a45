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

# Conjugating J(chi, chi) at one prime conjugates that component's cube.
# Each kernel's cube T is then the cube of another kernel, or its
# conjugate, which has the same trace and periods: the matching only swaps
# which kernel goes to which pair.
TAME_CONJUGATE_J = pytest.mark.xfail(
    strict=True,
    reason="tame gap: no tame check reads whether a kernel's cube is mu*f*w or "
    "its conjugate, so verify passes with J(chi, chi) conjugated at one prime",
)


def conjugate_jacobi_sum_at_7(monkeypatch):
    jacobi_sum = eisenstein.jacobi_sum
    monkeypatch.setattr(
        eisenstein, "jacobi_sum", lambda p: jacobi_sum(p).conjugate() if p == 7 else jacobi_sum(p)
    )


# (plant, conductor, exception, check), with None where the check that will
# stop a tame row is not written yet
ROWS = [
    pytest.param(
        conjugate_jacobi_sum_at_7, 819, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-819",
    ),
    pytest.param(
        conjugate_jacobi_sum_at_7, 15561, "NormalizationFailure", "verify_kernel_character",
        id="conjugate-J-at-7-15561",
    ),
    pytest.param(
        conjugate_jacobi_sum_at_7, 91, None, None,
        id="conjugate-J-at-7-91", marks=TAME_CONJUGATE_J,
    ),
    pytest.param(
        conjugate_jacobi_sum_at_7, 1729, None, None,
        id="conjugate-J-at-7-1729", marks=TAME_CONJUGATE_J,
    ),
]


@pytest.mark.parametrize("plant,conductor,error,check", ROWS)
def test_a_planted_defect_fails_verify(capsys, monkeypatch, plant, conductor, error, check):
    plant(monkeypatch)
    code = main(["verify", "--conductor", str(conductor)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    if error is not None:
        assert f"verification failure: {error}:" in captured.err
    if check is not None:
        with pytest.raises(VerificationError) as info:
            match_fields(validate_conductor(conductor))
        assert check in {frame.name for frame in traceback.extract_tb(info.tb)}
