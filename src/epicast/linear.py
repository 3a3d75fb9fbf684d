"""Linear regression fit by full-batch gradient descent on MSE.

A closed-form ordinary-least-squares solver rides along as the convergence
reference; the gradient-descent path is the production fit because its
learning rate and iteration count are first-class tuning knobs.

Gradient descent steps on the Gram statistics of the design [x 1], formed
once per fit (the "covariance update" of Friedman, Hastie & Tibshirani
2010, J. Stat. Softw. 33(1)): a step costs a (d+1) x (d+1) product, not
a pass over the n rows, and follows the residual form up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteObjective, NumericError
from .preprocess import as_design, as_xy


@dataclass(frozen=True)
class LinRegConfig:
    # --lr defaults to None, which stands for this default
    learning_rate: float = field(default=0.5, metadata={"flag": "--lr", "flag_default": None})
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
    """Gradient descent from zero parameters: cfg.iterations steps or a fixed point.

    With theta = (w, b) and D = [x 1], the gradient of (1/n)*|D theta - y|^2
    is (2/n)(G theta - c) for G = D^T D and c = D^T y, so the fit forms G,
    c and y^T y once and each step costs a (d+1) x (d+1) product whatever
    n is. The loss (theta^T G theta - 2 theta^T c + y^T y)/n is checked
    every step. Standardize first: large learning rates diverge on raw
    count scales, and divergence is reported as an error rather than
    silent NaN parameters.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    n = xs.shape[0]
    design = np.column_stack([xs, np.ones(n)])
    step = cfg.learning_rate * (2.0 / n)
    # overflow here and in the steps is the signal for NonFiniteObjective, not
    # a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.T @ design
        c = (design.T @ ys).tolist()
        yy = float(ys @ ys)
        # G theta stays numpy's product (dot takes the list as it is), and
        # the fit's bytes follow its rounding; the rest of a step works on
        # the d+1 entries as plain floats, which skips numpy's per-call
        # dispatch.
        theta = [0.0] * len(c)
        for it in range(1, cfg.iterations + 1):
            g = gram.dot(theta).tolist()
            tg = tc = 0.0
            for tk, gk, ck in zip(theta, g, c):
                tg += tk * gk
                tc += tk * ck
            loss = (tg - 2.0 * tc + yy) / n
            if not math.isfinite(loss):
                raise NonFiniteObjective(
                    f"loss became non-finite at iteration {it}; "
                    "lower the learning rate or standardize the data",
                    iteration=it,
                )
            stepped = [tk - (gk - ck) * step for tk, gk, ck in zip(theta, g, c)]
            # a step that returns theta would repeat forever; == compares bits,
            # since x - y is -0.0 only for x = -0.0 and theta starts at +0.0
            if stepped == theta:
                break
            theta = stepped
    if not all(map(math.isfinite, theta)):
        raise NonFiniteObjective(
            "parameters became non-finite on the final step",
            iteration=cfg.iterations,
        )
    return LinRegParams(slope=np.array(theta[:-1]), intercept=theta[-1])


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
        raise NumericError("design matrix with intercept is rank deficient")
    coef = np.linalg.solve(gram, design.T @ ys)
    return LinRegParams(slope=coef[:-1], intercept=float(coef[-1]))
