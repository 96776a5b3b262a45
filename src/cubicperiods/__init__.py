"""Exact enumeration and verification of Gaussian periods and Shanks cubics
for cyclic cubic fields.

For any valid conductor the package enumerates the normalized solutions of
4f = M^2 + 27 N^2, builds the matching one-parameter cubics and period
polynomials with exact integer arithmetic, builds the period polynomial of
every kernel a second way, exactly, from the cubes of the Gaussian sums of
the CRT components of the conductor (Jacobi sums in Z[zeta3]), matches the
two routes by integer equality, and verifies the linear relation between
the periods and the roots of the cubics, exactly where the statement is
exact and to a certified tolerance where it is numeric.
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
    discriminant_check,
    is_irreducible_cubic,
    irreducibility_criterion,
    period_poly_formula,
    shanks_poly,
    substitute_affine,
    verify_main_identity,
)
from .eisenstein import (
    GAUSS_SUM_BUDGET,
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
from .groupring import (
    ConjugateVector,
    GroupRingElement,
    apply,
    gr_mul,
    idempotents,
    unit_list_p3,
    verify_generators,
)
from .periods import (
    DEFAULT_TOLERANCE,
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
from .quadform import Representation, ShanksParams, delta, representations, shanks_params
from .verdicts import Verdict

__version__ = "0.1.0"
