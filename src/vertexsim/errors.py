"""Exception hierarchy shared by all subsystems.

ValidationError covers bad user input (CLI exit code 2), the statistics and
numerics errors map to exit codes 3 and 4 respectively.
"""

import math
from numbers import Integral, Real


class VertexSimError(Exception):
    """Base class for all library errors."""


class ValidationError(VertexSimError, ValueError):
    """Malformed input: bad dimensions, out-of-range parameters, bad bitstrings."""


class DimensionError(ValidationError):
    """Vector/matrix dimension mismatch or a hard size cap exceeded."""


class EnumerationBudgetError(ValidationError):
    """Brute-force configuration count exceeds the enumeration guard."""


class ConvergenceError(VertexSimError):
    """Iterative eigensolver failed to converge; carries the best residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.residual = residual


class NumericalError(VertexSimError):
    """A numerical routine produced a result outside its guaranteed tolerance."""


class ImpossiblePostselectionError(VertexSimError):
    """Post-selection on an outcome of probability zero."""


class InsufficientStatisticsError(VertexSimError):
    """Too few meaningful shots survived post-selection; carries the observed fraction."""

    def __init__(self, message: str, fraction: float):
        super().__init__(f"{message} (meaningful fraction {fraction:.4g})")
        self.fraction = fraction


def require_positive_int(name: str, value) -> None:
    """Raise ValidationError unless value is an integer >= 1 (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def require_positive_real(name: str, value) -> None:
    """Raise ValidationError unless value is a real number in (0, inf) (bools and nan excluded)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValidationError(f"{name} must be a positive finite real number, got {value!r}")
