"""Closed-form solver for factored linear evolution equations.

Solves

    (d/dt - A_1)(d/dt - A_2) ... (d/dt - A_n) u(t) = f(t),
    u^(k)(0) = x_k,

for mutually commuting generators ``A_j`` that may repeat.  Repeated
factors are grouped into ``(B_j, multiplicity S_j)`` pairs; the solution
coefficients come from a confluent operator-Vandermonde system, the
forced part from a Duhamel convolution with precomputed forcing weights,
and every result can be validated against an independent RK4 integration
of the equivalent first-order companion system.
"""

from types import ModuleType as _ModuleType

from .confluent import (
    BlockOperatorMatrix,
    ZCoefficients,
    build_confluent_matrix,
    scalar_confluent_matrix,
    solve_coefficients,
    solve_z_vector,
    two_operator_closed_form,
)
from .equation import (
    CompanionSystem,
    FactoredEquation,
    Forcing,
    build_companion,
    group_factors,
    initial_data_transform,
    oracle_solve,
)
from .errors import (
    DimensionMismatchError,
    DuplicateLabelError,
    FactoredEvolutionError,
    ForcingTypeError,
    MixedBackendError,
    NonCommutingFactorsError,
    NonFiniteError,
    NotDoubleRootError,
    NotInvertibleError,
    OracleStepOverflowError,
    QuadratureUnderResolvedError,
    SchemaError,
    SemigroupOverflowError,
    SingularMatrixError,
    SingularSystemError,
    UnknownProfileError,
    UnsupportedOperationError,
)
from .operators import (
    DenseMatrixOperator,
    Operator,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    commutation_defect,
    resolvent_solve,
)
from .pde_examples import (
    Example1Problem,
    Example2Problem,
    characteristic_roots,
    example1_closed_form,
    example1_residual,
    example2_closed_form_modal,
    example2_residual,
    solve_example1,
    solve_example2,
)
from .solver import (
    compare_with_oracle,
    initial_derivative_defect,
    lemma2_lhs,
    lemma2_rhs,
    solve_full,
    solve_homogeneous,
    solve_inhomogeneous_zero_ic,
)
from .statespace import QuadratureRule, expm_apply, rk4_integrate
from .trace import SolutionTrace

__version__ = "0.1.0"

# The public API is every name imported above.
__all__ = sorted(
    name for name, value in vars().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
