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
irreducibility test, lives in the tests as oracles.  The two routes that
the matching compares are eisenstein (the pairs) and the Gaussian-sum
functions of periods, which read no pair.

Every command compiles all the modules but periods and the groupring it
imports, which only verify, scan and table run: periods is registered
here, before any other submodule is imported, as a module that runs on
its first attribute access, so that every module imports it plainly and
a tracer that starts after `import cubicperiods` finds it in sys.modules.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

periods = module_from_spec(find_spec(f"{__name__}.periods"))
sys.modules[periods.__name__] = periods
LazyLoader(periods.__loader__).exec_module(periods)

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
    """The names of periods and of the groupring it imports, read from the
    lazy periods (PEP 562), which compiles on the first access to one."""
    if name not in {
        "FieldRecord",
        "PeriodTriple",
        "gaussian_periods",
        "match_fields",
        "numeric_period_poly",
        "primitive_cubic_kernels",
        "shanks_roots",
        "verify_generators",
        "verify_kernel_character",
        "verify_period_relation",
        "verify_sign_congruences",
    }:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(periods, name)
