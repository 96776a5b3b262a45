"""Exception types shared across the package."""

from __future__ import annotations


class CubicPeriodsError(Exception):
    """Base class for all library-specific errors."""


class InvalidConductor(CubicPeriodsError):
    """The integer is not the conductor of any cyclic cubic field."""


class BudgetExceeded(CubicPeriodsError):
    """A valid input needs more time or memory than a documented budget allows."""


class VerificationError(CubicPeriodsError):
    """Base class for failed consistency checks (exact or numeric)."""


class CountMismatch(VerificationError):
    """An enumeration produced a different count than predicted."""


class FactorizationMismatch(VerificationError):
    """A product of extracted factors fails to reproduce its source."""


class NotPrimitiveRoot(VerificationError):
    """A power map landed outside the expected cube roots of unity."""


class NormalizationFailure(VerificationError):
    """No prime associate satisfies the Gaussian-sum normalization."""


class NonIntegralCoefficient(VerificationError):
    """A polynomial expected to have integer coefficients does not."""


class IdentityFailure(VerificationError):
    """An exact polynomial identity failed coefficient-by-coefficient."""


class ToleranceExceeded(VerificationError):
    """A float residual exceeded its rounding bound."""


class ComplexRoots(VerificationError):
    """A cubic expected to be totally real has non-real roots."""


class MatchingFailure(VerificationError):
    """Representations and character kernels do not match bijectively."""


class RelationFailure(VerificationError):
    """The linear relation between periods and cubic roots failed."""


class CongruenceFailure(VerificationError):
    """An exact integer congruence check failed."""


class GeneratorFailure(VerificationError):
    """A ring-of-integers generator check failed."""
