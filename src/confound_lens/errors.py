"""Exception hierarchy shared across the package."""


class ConfoundLensError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ConfoundLensError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(ConfoundLensError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class RankDeficientError(ConfoundLensError):
    """Design matrix is numerically rank deficient (exact collinearity)."""


class InsufficientRowsError(ConfoundLensError):
    """Too few rows to leave at least one residual degree of freedom."""


class SeparationError(ConfoundLensError):
    """Quasi-complete separation detected while fitting a logistic model."""


class NoVariationError(ConfoundLensError):
    """A binary outcome contains a single class."""


class DegenerateExposureError(ConfoundLensError):
    """Residual exposure variance is numerically zero; the ratio is unbounded."""


class ParseError(ConfoundLensError):
    """Malformed input file."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class EmptyAfterFilteringError(ConfoundLensError):
    """No complete rows remain after dropping rows with missing values."""
