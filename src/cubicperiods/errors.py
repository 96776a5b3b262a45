"""Exception types shared across the package."""

from __future__ import annotations


class CubicPeriodsError(Exception):
    """Base class for all library-specific errors."""


class InvalidConductor(CubicPeriodsError):
    """The integer is not the conductor of any cyclic cubic field."""


class BudgetExceeded(CubicPeriodsError):
    """A valid input is refused: no point tried proves a Jacobi sum of it."""


class VerificationError(CubicPeriodsError):
    """Base class for failed consistency checks (exact or numeric)."""


class CountMismatch(VerificationError):
    """An enumeration produced a different count than predicted."""


class FactorizationMismatch(VerificationError):
    """A product of extracted factors fails to reproduce its source."""


class NormalizationFailure(VerificationError):
    """A Gaussian-sum cube is not the one its normalization predicts."""


class NonIntegralCoefficient(VerificationError):
    """A polynomial expected to have integer coefficients does not."""


class IdentityFailure(VerificationError):
    """An exact polynomial identity failed coefficient-by-coefficient."""


class ToleranceExceeded(VerificationError):
    """A float residual exceeded its rounding bound."""


class RelationFailure(VerificationError):
    """The linear relation between periods and cubic roots failed."""


class CongruenceFailure(VerificationError):
    """An exact integer congruence check failed."""


class GeneratorFailure(VerificationError):
    """A ring-of-integers generator check failed."""
