"""Exact enumeration and verification of Gaussian periods and Shanks cubics
for cyclic cubic fields.

For any valid conductor the package enumerates the normalized solutions of
4f = M^2 + 27 N^2, builds the matching one-parameter cubics and period
polynomials with exact integer arithmetic, builds the period polynomial of
every kernel a second way, exactly, from the cubes of the Gaussian sums of
the CRT components of the conductor (Jacobi sums in Z[zeta3]), matches each
pair to the kernel its character cuts out by one exact equation between the
kernel's cube and the pair, and verifies the linear relation between
the periods and the roots of the cubics, exactly where the statement is
exact and within a rounding bound worked out from the inputs where it is
numeric.

The package holds what its four commands (enumerate, verify, scan, table)
run; algebra they do not reach, such as group-ring arithmetic and an
irreducibility test, lives in the tests as oracles.
"""

from .arith import (
    Conductor,
    MR_BOUND,
    conductors_up_to,
    factorize,
    moebius,
    validate_conductor,
)
from .cubicpoly import (
    RationalCubic,
    cleared_shanks_poly,
    main_identity_sides,
    period_poly,
    period_poly_formula,
    substitute_affine,
    verify_main_identity,
)
from .eisenstein import (
    EisensteinInt,
    character_for_representation,
    chi9,
    chi9_gauss_sum_report,
    rhs_elements,
)
from .errors import (
    BudgetExceeded,
    CongruenceFailure,
    CountMismatch,
    CubicPeriodsError,
    FactorizationMismatch,
    GeneratorFailure,
    IdentityFailure,
    InvalidConductor,
    NonIntegralCoefficient,
    NormalizationFailure,
    RelationFailure,
    ToleranceExceeded,
    VerificationError,
)
from .quadform import Representation, ShanksParams, representations, shanks_params

__version__ = "0.1.0"


def __getattr__(name: str):
    """The names of periods and groupring, which only verify, scan and table
    run, so that importing the package (or a cold enumerate) compiles
    neither module: each is imported on the first access to one of its
    names (PEP 562)."""
    module = {
        "verify_generators": "groupring",
        "FieldRecord": "periods",
        "PeriodTriple": "periods",
        "gaussian_periods": "periods",
        "match_fields": "periods",
        "numeric_period_poly": "periods",
        "primitive_cubic_kernels": "periods",
        "shanks_roots": "periods",
        "verify_kernel_character": "periods",
        "verify_period_relation": "periods",
        "verify_sign_congruences": "periods",
    }.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
