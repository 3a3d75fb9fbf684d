"""Exception hierarchy shared across the toolkit.

Three branches matter to callers:

- ``InputError``: bad data or bad arguments (CLI exit code 2).
- ``NumericError``: a computation produced non-finite or unusable numbers
  (CLI exit code 3).
- ``NotConvergedError``: an iterative fit failed to converge in a context
  where that is treated as fatal (CLI exit code 4). Most fits report
  non-convergence as a flag instead of raising.

A subclass exists only where a report or a caller reads its name:
``NoValidCell`` is caught by name, and the others below are the failures a
grid cell records as ``"<class name>: <message>"``. Every other failure
raises its branch class with a message that says what went wrong.

A fit whose loss or gradient is NaN or infinite raises one class,
``NonFiniteObjective``, whatever the family or optimizer: the MLP's
optimizers and linear regression's gradient descent decide alike.
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


# -- input ------------------------------------------------------------------

class MissingValuesPresent(InputError):
    """A selected column still contains missing values."""


class EmptyInput(InputError):
    """An operation received an empty matrix or vector."""


class DimensionMismatch(InputError):
    """Operand shapes or lengths are inconsistent."""


class DegenerateSplit(InputError):
    """A train/test split would leave one side empty."""


class ConstantTarget(InputError):
    """R-squared is undefined because the target has zero variance."""


class NoValidCell(InputError):
    """A score table holds no unflagged cell for the requested family."""


# -- numeric -----------------------------------------------------------------

class NonFiniteObjective(NumericError):
    """A fit's loss or gradient became NaN or infinite; ``iteration`` is the
    step that produced it, or -1 at the starting point."""

    def __init__(self, message: str, iteration: int = -1):
        super().__init__(message)
        self.iteration = iteration


class DegenerateKernelMatrix(NumericError):
    """A kernel matrix contains non-finite entries."""
