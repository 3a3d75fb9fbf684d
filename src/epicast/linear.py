"""Linear regression fit by full-batch gradient descent on MSE.

A closed-form ordinary-least-squares solver rides along as the convergence
reference; the gradient-descent path is the production fit because its
learning rate and iteration count are first-class tuning knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivergenceError, SingularMatrix
from .preprocess import as_design, as_xy, column_product


@dataclass(frozen=True)
class LinRegConfig:
    learning_rate: float = 0.5
    iterations: int = 2500

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")


@dataclass(frozen=True)
class LinRegParams:
    slope: np.ndarray  # one coefficient per feature
    intercept: float


def linreg_fit(x: np.ndarray, y: np.ndarray, cfg: LinRegConfig) -> LinRegParams:
    """Gradient descent from zero parameters, exactly cfg.iterations steps.

    Gradient of (1/n)*sum((x w + b - y)^2) is (2/n) x^T r for the slope and
    (2/n) sum(r) for the intercept, r = predictions - y; each step forms
    x w as column_product's fixed-order sum in one per-fit buffer.
    Standardize first: large learning rates diverge on raw count scales,
    and divergence is reported as an error rather than silent NaN
    parameters.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    n = xs.shape[0]
    w = np.zeros(xs.shape[1])
    b = 0.0
    r = np.empty(n)  # the step's residual, x w + b - y
    # overflow here is the signal for DivergenceError, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.iterations + 1):
            column_product(xs, w[None, :], out=r[:, None])
            r += b
            r -= ys
            loss = float(r @ r) / n
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"loss became non-finite at iteration {it}; "
                    "lower the learning rate or standardize the data",
                    iteration=it,
                )
            w -= cfg.learning_rate * (2.0 / n) * (xs.T @ r)
            b -= cfg.learning_rate * (2.0 / n) * float(r.sum())
    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise DivergenceError(
            "parameters became non-finite on the final step",
            iteration=cfg.iterations,
        )
    return LinRegParams(slope=w, intercept=float(b))


def linreg_predict(params: LinRegParams, x: np.ndarray) -> np.ndarray:
    xs = as_design(x)
    if xs.shape[1] != params.slope.shape[0]:
        raise DimensionMismatch(
            f"x has {xs.shape[1]} features but the fit used {params.slope.shape[0]}"
        )
    return xs @ params.slope + params.intercept


def ols_closed_form(x: np.ndarray, y: np.ndarray) -> LinRegParams:
    """Normal-equations solution; testing oracle and convergence reference."""
    xs, ys = as_xy(x, y)
    design = np.column_stack([xs, np.ones(xs.shape[0])])
    gram = design.T @ design
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise SingularMatrix("design matrix with intercept is rank deficient")
    coef = np.linalg.solve(gram, design.T @ ys)
    return LinRegParams(slope=coef[:-1], intercept=float(coef[-1]))
