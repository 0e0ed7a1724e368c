"""Exception types shared across the package."""


class CopzError(Exception):
    """Base class for all library errors."""


class DomainError(CopzError, ValueError):
    """Input outside the documented validity domain."""


class SingularityError(CopzError, ArithmeticError):
    """Evaluation at a pole of a rational coefficient function."""


class UndefinedSeriesError(CopzError, ArithmeticError):
    """A denominator factor vanishes inside the summation range."""


class WeightPositivityError(CopzError, ArithmeticError):
    """Weight ratio is non-positive at some support point."""

    def __init__(self, s, ratio):
        super().__init__(f"non-positive weight ratio {ratio!r} at s={s!r}")
        self.s = s
        self.ratio = ratio


class EvaluationOverflowError(CopzError, OverflowError):
    """A polynomial value at a lattice point overflows the float range."""


class TruncationError(CopzError, ArithmeticError):
    """Infinite-support weight table failed to reach its tail bound."""


class ZeroCountError(CopzError, ArithmeticError):
    """Sign-change count does not match the requested degree."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class SweepDiscontinuityError(CopzError, ArithmeticError):
    """Zero counts differ between adjacent sweep samples."""


class IllConditionedSystemError(CopzError, ArithmeticError):
    """Singular or numerically unusable zero-derivative system."""


class WeightMismatchError(CopzError, ValueError):
    """Support-extension comparison requested for instances whose weights differ in shape."""
