"""Exception types shared across the package.

Every one derives from `CheckerboardError`, so a caller can catch them all at
once, and keeps the builtin base that says what kind of failure it is.
"""


class CheckerboardError(Exception):
    """Base of every exception this package raises on purpose."""


class ParameterError(CheckerboardError, ValueError):
    """A parameter violates an operation's precondition."""


class DimensionError(ParameterError):
    """Matrix or vector dimensions are incompatible."""


class AlgebraMismatchError(CheckerboardError, TypeError):
    """An operation received a matrix over the wrong division algebra."""


class HermitianInvariantError(CheckerboardError, ValueError):
    """A matrix failed the self-adjointness check at construction."""


class NumericalDegeneracyError(CheckerboardError, ArithmeticError):
    """Eigensolution produced results inconsistent with an exact structural guarantee."""


class EigensolveError(CheckerboardError, ArithmeticError):
    """The underlying eigendecomposition failed to converge."""


class RegimeOverlapError(CheckerboardError, RuntimeError):
    """An eigenvalue could not be classified into exactly one spectral regime."""


class EnumerationBudgetError(CheckerboardError, RuntimeError):
    """An exact enumeration would exceed the configured budget."""


class PrecisionLossError(CheckerboardError, ArithmeticError):
    """Catastrophic cancellation detected in a floating-point accumulation."""


class StatisticalPowerWarning(CheckerboardError, UserWarning):
    """A statistical probe was configured with too few trials to be conclusive."""
