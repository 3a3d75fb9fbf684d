"""Regression error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantTarget, DimensionMismatch, EmptyInput


def _paired(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=float).ravel()
    p = np.asarray(y_pred, dtype=float).ravel()
    if t.size != p.size:
        raise DimensionMismatch(f"y_true has {t.size} values, y_pred has {p.size}")
    if t.size == 0:
        raise EmptyInput("metrics need at least one pair")
    return t, p


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error, (1/n) * sum((y - yhat)^2)."""
    t, p = _paired(y_true, y_pred)
    return float(np.mean((t - p) ** 2))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Undefined when y_true is constant (SS_tot = 0); that raises rather
    than returning a sentinel.
    """
    t, p = _paired(y_true, y_pred)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise ConstantTarget("r2 is undefined for a constant y_true")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class EvalResult:
    """Test-set scores for one fitted model.

    ``space`` records which units mse is in: "scaled" (standardized target
    units, the space models train in) or "original" (raw counts). r2 is
    unit-free, so it is identical in both spaces.
    """

    mse: float
    r2: float
    n: int
    space: str = "scaled"


def evaluate(y_true: np.ndarray, y_pred: np.ndarray, space: str = "scaled") -> EvalResult:
    """Scores of y_pred against y_true; an overflow gives an infinite score,
    which the report writer rejects, rather than a warning."""
    t, p = _paired(y_true, y_pred)
    with np.errstate(over="ignore"):
        return EvalResult(mse=mse(t, p), r2=r2_score(t, p), n=t.size, space=space)
