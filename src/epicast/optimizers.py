"""Unconstrained minimizers over flattened parameter vectors.

Three methods: L-BFGS with a strong-Wolfe line search, full-batch gradient
descent (sgd), and Adam. Each takes an objective ``theta -> (value,
gradient)`` and is deterministic: identical inputs give identical traces.

The minimizers alone decide what a non-finite value or gradient means. At
the starting point it raises NonFiniteObjective; in a line-search trial it
fails the sufficient-decrease test, so the search backs off; after an sgd
or Adam step it raises NonFiniteObjective naming the iteration. Objectives
return what they compute and never raise for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteObjective

# (s, y) pairs this flat are dropped to keep the implicit Hessian positive
# definite in the two-loop recursion.
CURVATURE_SKIP = 1e-10
# (s, y) pairs the two-loop recursion keeps.
MEMORY = 10
# Strong-Wolfe constants: sufficient decrease and curvature.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
# Function-evaluation budget for one line search, bracket plus zoom.
MAX_EVALS_PER_SEARCH = 25
# Consecutive steps that move the loss by less than the tolerance, up or
# down, before an early stop.
PATIENCE = 10
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class LbfgsConfig:
    max_iterations: int = 500
    grad_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 <= self.grad_tolerance < np.inf:
            raise ValueError("grad_tolerance must be nonnegative and finite")


@dataclass
class MinimizeResult:
    theta: np.ndarray
    trace: list[float]
    iterations: int
    status: str  # converged | stalled | max_iterations | line_search_failed
    grad_norm: float


def _finite(value: float, grad: np.ndarray) -> bool:
    return bool(np.isfinite(value) and np.all(np.isfinite(grad)))


def _start(obj: Objective, theta0: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """A copy of theta0 and the objective there, which must be finite."""
    theta = np.asarray(theta0, dtype=float).copy()
    f, g = obj(theta)
    if not _finite(f, g):
        raise NonFiniteObjective("objective is not finite at the starting point")
    return theta, f, g


def two_loop_direction(
    grad: np.ndarray,
    s_pairs: list[np.ndarray],
    y_pairs: list[np.ndarray],
) -> np.ndarray:
    """L-BFGS two-loop recursion: -H·grad from stored (s, y) pairs.

    H0 is gamma*I with gamma = s.y / y.y of the newest pair (identity when
    no pairs are stored yet).
    """
    q = grad.copy()
    alphas: list[float] = []
    rhos = [1.0 / float(y @ s) for s, y in zip(s_pairs, y_pairs)]
    for s, y, rho in zip(reversed(s_pairs), reversed(y_pairs), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_pairs:
        s, y = s_pairs[-1], y_pairs[-1]
        gamma = float(s @ y) / float(y @ y)
        q *= gamma
    for s, y, rho, a in zip(s_pairs, y_pairs, rhos, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _cubic_step(
    a_lo: float, f_lo: float, g_lo: float, a_hi: float, f_hi: float, g_hi: float
) -> float | None:
    """Minimizer of the cubic Hermite interpolant on [a_lo, a_hi].

    Returns None when the data do not pin down an interior minimum (non-
    finite endpoint values, negative discriminant, vanishing denominator).
    """
    if not all(np.isfinite(v) for v in (f_lo, g_lo, f_hi, g_hi)):
        return None
    d1 = g_lo + g_hi - 3.0 * (f_lo - f_hi) / (a_lo - a_hi)
    disc = d1 * d1 - g_lo * g_hi
    if disc < 0.0:
        return None
    d2 = np.sign(a_hi - a_lo) * np.sqrt(disc)
    denom = g_hi - g_lo + 2.0 * d2
    if denom == 0.0:
        return None
    step = a_hi - (a_hi - a_lo) * (g_hi + d2 - d1) / denom
    return float(step) if np.isfinite(step) else None


class _LineSearch:
    """Strong-Wolfe search along d from x, under a shared evaluation budget.

    phi(a) = f(x + a d). A non-finite trial value is treated as a failed
    sufficient-decrease test so the search backs off toward zero instead of
    accepting garbage.
    """

    def __init__(
        self,
        obj: Objective,
        x: np.ndarray,
        d: np.ndarray,
        f0: float,
        dphi0: float,
    ):
        self.obj, self.x, self.d = obj, x, d
        self.f0, self.dphi0 = f0, dphi0
        self.evals = 0

    def _phi(self, alpha: float) -> tuple[float, np.ndarray, float]:
        self.evals += 1
        f, g = self.obj(self.x + alpha * self.d)
        ok = _finite(f, g)
        dphi = float(g @ self.d) if ok else np.nan
        return (f if ok else np.inf), g, dphi

    def _sufficient(self, alpha: float, f: float) -> bool:
        return f <= self.f0 + WOLFE_C1 * alpha * self.dphi0

    def run(self, alpha0: float) -> tuple[float, float, np.ndarray] | None:
        a_prev, f_prev, dphi_prev = 0.0, self.f0, self.dphi0
        alpha = alpha0
        first = True
        while self.evals < MAX_EVALS_PER_SEARCH:
            f, g, dphi = self._phi(alpha)
            if not self._sufficient(alpha, f) or (not first and f >= f_prev):
                return self._zoom(a_prev, f_prev, dphi_prev, alpha, f, dphi)
            if abs(dphi) <= -WOLFE_C2 * self.dphi0:
                return alpha, f, g
            if dphi >= 0.0:
                return self._zoom(alpha, f, dphi, a_prev, f_prev, dphi_prev)
            a_prev, f_prev, dphi_prev = alpha, f, dphi
            alpha *= 2.0
            first = False
        return None

    def _zoom(
        self,
        a_lo: float, f_lo: float, dphi_lo: float,
        a_hi: float, f_hi: float, dphi_hi: float,
    ) -> tuple[float, float, np.ndarray] | None:
        while self.evals < MAX_EVALS_PER_SEARCH:
            lo, hi = (a_lo, a_hi) if a_lo < a_hi else (a_hi, a_lo)
            width = hi - lo
            if width <= 1e-16 * max(1.0, abs(hi)):
                return None
            alpha = _cubic_step(a_lo, f_lo, dphi_lo, a_hi, f_hi, dphi_hi)
            margin = 0.1 * width
            if alpha is None or not (lo + margin <= alpha <= hi - margin):
                alpha = 0.5 * (lo + hi)
            f, g, dphi = self._phi(alpha)
            if not self._sufficient(alpha, f) or f >= f_lo:
                a_hi, f_hi, dphi_hi = alpha, f, dphi
            else:
                if abs(dphi) <= -WOLFE_C2 * self.dphi0:
                    return alpha, f, g
                if dphi * (a_hi - a_lo) >= 0.0:
                    a_hi, f_hi, dphi_hi = a_lo, f_lo, dphi_lo
                a_lo, f_lo, dphi_lo = alpha, f, dphi
        return None


def lbfgs_minimize(
    obj: Objective,
    theta0: np.ndarray,
    cfg: LbfgsConfig = LbfgsConfig(),
    *,
    tolerance: float = 0.0,
) -> MinimizeResult:
    """L-BFGS with a strong-Wolfe line search.

    Stops when the gradient inf-norm is at most cfg.grad_tolerance, the
    iteration budget runs out, or PATIENCE consecutive accepted steps each
    move the loss by less than ``tolerance``; a tolerance of 0 never stops.
    A failed line search falls back to the steepest-descent direction once;
    if that also fails, the best point so far is returned flagged with
    status "line_search_failed". The trace of accepted losses never
    increases.
    """
    theta, f, g = _start(obj, theta0)
    trace = [f]
    s_pairs: deque[np.ndarray] = deque(maxlen=MEMORY)
    y_pairs: deque[np.ndarray] = deque(maxlen=MEMORY)
    stall = 0
    iterations = 0

    while True:
        if float(np.max(np.abs(g))) <= cfg.grad_tolerance:
            status = "converged"
            break
        if iterations == cfg.max_iterations:
            status = "max_iterations"
            break
        d = two_loop_direction(g, list(s_pairs), list(y_pairs))
        if float(g @ d) >= 0.0:  # numerically lost positive definiteness
            d = -g
        # The two-loop direction from its usual first step (gradient-sized
        # before any curvature is known), then steepest descent from the
        # gradient-sized step.
        for d, curved in ((d, bool(s_pairs)), (-g, False)):
            alpha0 = 1.0 if curved else min(1.0, 1.0 / float(np.sum(np.abs(g))))
            hit = _LineSearch(obj, theta, d, f, float(g @ d)).run(alpha0)
            if hit is not None:
                break
        if hit is None:
            status = "line_search_failed"
            break
        alpha, f_new, g_new = hit
        s = alpha * d
        y = g_new - g
        if float(s @ y) > CURVATURE_SKIP * float(
            np.linalg.norm(s) * np.linalg.norm(y)
        ):
            s_pairs.append(s)
            y_pairs.append(y)
        theta = theta + s
        stall = stall + 1 if abs(f - f_new) < tolerance else 0
        f, g = f_new, g_new
        trace.append(f)
        iterations += 1
        if stall >= PATIENCE:
            status = "stalled"
            break

    return MinimizeResult(
        theta=theta,
        trace=trace,
        iterations=iterations,
        status=status,
        grad_norm=float(np.max(np.abs(g))),
    )


def _descend(
    obj: Objective,
    theta0: np.ndarray,
    step: Callable[[np.ndarray, int], np.ndarray],
    iterations: int,
    tolerance: float,
) -> MinimizeResult:
    """The sgd/adam loop: theta <- theta - step(grad, iteration) until the
    budget or the early stop; a non-finite loss or gradient raises."""
    theta, f, g = _start(obj, theta0)
    trace = [f]
    status = "max_iterations"
    stall = 0
    it = 0
    for it in range(1, iterations + 1):
        theta -= step(g, it)
        f_new, g = obj(theta)
        if not _finite(f_new, g):
            raise NonFiniteObjective(
                f"objective became non-finite at iteration {it}", iteration=it
            )
        trace.append(f_new)
        stall = stall + 1 if abs(f - f_new) < tolerance else 0
        f = f_new
        if stall >= PATIENCE:
            status = "stalled"
            break
    return MinimizeResult(
        theta=theta,
        trace=trace,
        iterations=it,
        status=status,
        grad_norm=float(np.max(np.abs(g))),
    )


def sgd_minimize(
    obj: Objective,
    theta0: np.ndarray,
    learning_rate: float,
    iterations: int,
    *,
    tolerance: float = 0.0,
) -> MinimizeResult:
    """Full-batch gradient descent, theta <- theta - lr * grad.

    Runs the exact iteration count unless PATIENCE consecutive steps each
    move the loss by less than ``tolerance``; a tolerance of 0 never stops,
    and a rising loss is not a stall. A non-finite loss or gradient after a
    step raises NonFiniteObjective naming the iteration. lr = 0 is allowed
    and leaves theta fixed.
    """
    if learning_rate < 0.0:
        raise ValueError("learning_rate must be nonnegative")
    return _descend(
        obj, theta0, lambda g, it: learning_rate * g, iterations, tolerance
    )


def adam_minimize(
    obj: Objective,
    theta0: np.ndarray,
    learning_rate: float = 1e-3,
    iterations: int = 1000,
    *,
    tolerance: float = 0.0,
) -> MinimizeResult:
    """Adam with bias-corrected first and second moment estimates; stops
    and raises as sgd_minimize does."""
    if learning_rate < 0.0:
        raise ValueError("learning_rate must be nonnegative")
    m = np.zeros_like(np.asarray(theta0, dtype=float))
    v = np.zeros_like(m)

    def step(g: np.ndarray, it: int) -> np.ndarray:
        nonlocal m, v
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**it)
        v_hat = v / (1.0 - ADAM_BETA2**it)
        return learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    return _descend(obj, theta0, step, iterations, tolerance)
