"""Exception hierarchy shared by all subsystems.

ValidationError covers bad user input (CLI exit code 2), the statistics and
numerics errors map to exit codes 3 and 4 respectively.

The `require_*` helpers are the package's only number rules: Python and numpy
numbers pass, bools never do, and each returns the plain Python number.
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


def require_int(name: str, value) -> int:
    """`value` as a Python int, or ValidationError unless it is an integer."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_positive_int(name: str, value) -> int:
    """`value` as a Python int, or ValidationError unless it is an integer >= 1."""
    if require_int(name, value) < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def require_finite_real(name: str, value) -> float:
    """`value` as a Python float, or ValidationError unless its float is finite."""
    try:
        x = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    return x


def require_positive_real(name: str, value) -> float:
    """`value` as a Python float, or ValidationError unless it is a finite real > 0."""
    if require_finite_real(name, value) <= 0:
        raise ValidationError(f"{name} must be a positive finite real number, got {value!r}")
    return float(value)


def require_each(rule, name: str, values) -> tuple:
    """`rule(name, v)` for each v in `values`, as a tuple, or ValidationError."""
    try:
        return tuple([rule(name, v) for v in values])
    except TypeError:  # `values` cannot be iterated
        raise ValidationError(f"expected a sequence of {name} values, got {values!r}") from None
