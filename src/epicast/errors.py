"""Exception hierarchy shared across the toolkit.

Three branches matter to callers:

- ``InputError``: bad data or bad arguments (CLI exit code 2).
- ``NumericError``: a computation produced non-finite or unusable numbers
  (CLI exit code 3).
- ``NotConvergedError``: an iterative fit failed to converge in a context
  where that is treated as fatal (CLI exit code 4). Most fits report
  non-convergence as a flag instead of raising.
"""

from __future__ import annotations


class EpicastError(Exception):
    """Base class for all toolkit errors."""


class InputError(EpicastError):
    """Invalid input data or arguments."""


class NumericError(EpicastError):
    """A numeric computation failed (non-finite values, singular systems)."""


class NotConvergedError(EpicastError):
    """An iterative solver did not converge and the caller demanded it."""


# -- dataset ----------------------------------------------------------------

class MalformedHeader(InputError):
    """Required CSV columns are absent from the header row."""


class DuplicateDate(InputError):
    """Two rows share the same calendar date."""


class UnparseableDate(InputError):
    """A date cell could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class GapInDates(InputError):
    """Consecutive rows skip calendar days and gap filling was not requested."""


class EmptyWindow(InputError):
    """A date window selects no rows."""


class AllMissingColumn(InputError):
    """A column holds no present values, so it cannot be imputed."""

    def __init__(self, column: str):
        super().__init__(f"column {column!r} has no present values")
        self.column = column


# -- preprocess / metrics ----------------------------------------------------

class UnknownFeature(InputError):
    """A requested feature name is not supported."""


class MissingValuesPresent(InputError):
    """A selected column still contains missing values."""


class EmptyInput(InputError):
    """An operation received an empty matrix or vector."""


class DimensionMismatch(InputError):
    """Operand shapes are inconsistent."""


class LengthMismatch(InputError):
    """Two vectors that must align have different lengths."""


class DegenerateSplit(InputError):
    """A train/test split would leave one side empty."""


class ConstantTarget(InputError):
    """R-squared is undefined because the target has zero variance."""


class FeatureMismatch(InputError):
    """A model's feature set cannot be extrapolated over the horizon."""


class NoValidCell(InputError):
    """A score table holds no unflagged cell for the requested family."""


# -- numeric -----------------------------------------------------------------

class DivergenceError(NumericError):
    """Gradient descent produced a non-finite loss."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class NonFiniteLoss(NumericError):
    """A training loss became NaN or infinite."""


class NonFiniteObjective(NumericError):
    """An optimizer objective became NaN or infinite at the current iterate."""

    def __init__(self, message: str, iteration: int = -1):
        super().__init__(message)
        self.iteration = iteration


class SingularMatrix(NumericError):
    """A linear system has no unique solution."""


class DegenerateKernelMatrix(NumericError):
    """A kernel matrix contains non-finite entries."""
