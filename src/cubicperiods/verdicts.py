"""Success records returned by the verify_* checks, and the default bound
of their float comparisons."""

from __future__ import annotations

from typing import NamedTuple

# The default bound on every float residual; the exact checks take none.
DEFAULT_TOLERANCE = 1e-6


class Verdict(NamedTuple):
    """Outcome of one named check that passed.

    Checks raise a VerificationError subclass when they fail, so holding a
    Verdict means the check passed.  residual is the worst numeric deviation
    observed (0.0 for exact rational checks) and data carries check-specific
    payloads such as the two sides of a polynomial identity, or is None
    when the check has none.
    """

    name: str
    residual: float = 0.0
    data: dict | None = None
