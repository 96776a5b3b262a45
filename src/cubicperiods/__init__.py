"""Exact enumeration and verification of Gaussian periods and Shanks cubics
for cyclic cubic fields.

For any valid conductor the package enumerates the normalized solutions of
4f = M^2 + 27 N^2, builds the matching one-parameter cubics and period
polynomials with exact integer arithmetic, builds the period polynomial of
every kernel a second way, exactly, from the cubes of the Gaussian sums of
the CRT components of the conductor (Jacobi sums in Z[zeta3]), matches the
two routes by the trace of each cube, and verifies the linear relation between
the periods and the roots of the cubics, exactly where the statement is
exact and within a rounding bound worked out from the inputs where it is
numeric.

The package holds what its four commands (enumerate, verify, scan, table)
run; algebra they do not reach, such as group-ring arithmetic and an
irreducibility test, lives in the tests as oracles.
"""

from .arith import (
    Conductor,
    Factorization,
    MR_BOUND,
    Kind,
    conductors_up_to,
    factorize,
    moebius,
    validate_conductor,
)
from .cubicpoly import (
    RationalCubic,
    affine_relation,
    cubic_discriminant,
    period_poly_formula,
    shanks_poly,
    substitute_affine,
    verify_main_identity,
)
from .eisenstein import (
    POINT_COUNT_BUDGET,
    EisensteinInt,
    character_for_representation,
    chi9,
    chi9_gauss_sum_report,
    cubic_residue_character,
    jacobi_sum,
    prime_element,
    rhs_elements,
)
from .errors import (
    BudgetExceeded,
    ComplexRoots,
    CongruenceFailure,
    CountMismatch,
    CubicPeriodsError,
    FactorizationMismatch,
    GeneratorFailure,
    IdentityFailure,
    InvalidConductor,
    MatchingFailure,
    NonIntegralCoefficient,
    NormalizationFailure,
    NotPrimitiveRoot,
    RelationFailure,
    ToleranceExceeded,
    VerificationError,
)
from .groupring import verify_generators
from .periods import (
    FieldRecord,
    PeriodTriple,
    gaussian_periods,
    match_fields,
    numeric_period_poly,
    primitive_cubic_kernels,
    real_roots_cubic,
    verify_kernel_character,
    verify_period_relation,
    verify_sign_congruences,
)
from .quadform import Representation, ShanksParams, representations, shanks_params
from .verdicts import Verdict

__version__ = "0.1.0"
