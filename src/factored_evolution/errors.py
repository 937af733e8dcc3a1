"""Exception hierarchy for the factored-evolution solver.

Every error raised on purpose by this package derives from
:class:`FactoredEvolutionError`, so callers can catch one base class at a
batch boundary (the CLI does exactly that).
"""


class FactoredEvolutionError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FactoredEvolutionError):
    """A vector or matrix does not match the dimension an operation expects."""


class SingularMatrixError(FactoredEvolutionError):
    """LU elimination hit a pivot below the singularity threshold."""


class SingularSystemError(FactoredEvolutionError):
    """The confluent coefficient system is not invertible.

    Typically this means two factors that were declared as distinct labels
    act identically (or identically on some modes), so a required operator
    difference is not injective.
    """


class NotInvertibleError(FactoredEvolutionError):
    """A difference of generators could not be inverted on the given data."""


class UnsupportedOperationError(FactoredEvolutionError):
    """The requested operation is outside the backend's supported scope."""


class MixedBackendError(FactoredEvolutionError):
    """Factors of one equation must all share a single backend family."""


class ForcingTypeError(FactoredEvolutionError, TypeError):
    """An equation's forcing is neither ``None`` nor a ``Forcing``."""


class NonCommutingFactorsError(FactoredEvolutionError):
    """The factor operators fail the numerical commutation gate."""

    def __init__(self, message: str, defect: float | None = None):
        super().__init__(message)
        self.defect = defect


class SemigroupOverflowError(FactoredEvolutionError):
    """A semigroup or matrix-exponential action overflowed float range."""


class NonFiniteError(FactoredEvolutionError):
    """A computation produced NaN or Inf entries."""


class QuadratureUnderResolvedError(FactoredEvolutionError):
    """Doubling the quadrature panels changed the result beyond tolerance."""


class OracleStepOverflowError(FactoredEvolutionError):
    """The oracle's RK4 steps over a sample grid sum to more than its step
    budget (``equation._ORACLE_STEP_BUDGET``)."""


class NotDoubleRootError(FactoredEvolutionError):
    """The characteristic polynomial does not have a repeated root.

    The closed forms in :mod:`factored_evolution.pde_examples` require a
    double root; distinct-root problems go through the generic solver
    instead.
    """


class SchemaError(FactoredEvolutionError):
    """A problem-definition file violates the documented schema."""


class UnknownProfileError(SchemaError):
    """An initial-data profile name is not one of the supported profiles."""


class DuplicateLabelError(SchemaError):
    """An operator label is defined more than once in a config."""
