"""Test oracles for the SVR dual, independent of the solver in epicast.svr.

dual_objective evaluates the dual at a given beta, and qp_oracle finds its
maximum on tiny instances by exhaustive search; together they certify that
svr_fit solves the dual to optimality.
"""

import numpy as np

from epicast.preprocess import as_xy
from epicast.svr import SvrConfig, gram_matrix, resolve_gamma


def dual_objective(
    k_matrix: np.ndarray, y: np.ndarray, beta: np.ndarray, eps: float
) -> float:
    """W(beta) = -1/2 beta' K beta + y' beta - eps ||beta||_1 (maximized)."""
    return float(
        -0.5 * beta @ (k_matrix @ beta)
        + y @ beta
        - eps * np.sum(np.abs(beta))
    )


def qp_oracle(x: np.ndarray, y: np.ndarray, cfg: SvrConfig) -> float:
    """Brute-force maximum of the dual objective, for tiny instances only.

    Grids the first n-1 coordinates (the equality constraint fixes the
    last), then repeatedly shrinks the grid window around the best point.
    Independent of the solver: no KKT conditions, no pair logic.
    """
    xs, ys = as_xy(x, y)
    n = xs.shape[0]
    if n > 5:
        raise ValueError("oracle is exhaustive; use n <= 5")
    kernel = resolve_gamma(cfg.kernel, xs)
    k_matrix = gram_matrix(kernel, xs, xs)
    c, eps = cfg.c, cfg.epsilon

    if n == 1:
        return 0.0  # sum constraint forces beta = 0
    free = n - 1
    points_per_dim = {1: 1025, 2: 129, 3: 41, 4: 21}[free]
    center = np.zeros(free)
    half = c
    best_val = dual_objective(k_matrix, ys, np.zeros(n), eps)
    for _ in range(26):
        axes = [
            np.linspace(
                max(-c, center[d] - half), min(c, center[d] + half), points_per_dim
            )
            for d in range(free)
        ]
        mesh = np.stack(
            [m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        last = -mesh.sum(axis=1)
        ok = np.abs(last) <= c
        if not np.any(ok):
            half *= 0.65
            continue
        betas = np.column_stack([mesh[ok], last[ok]])
        vals = (
            -0.5 * np.einsum("bi,ij,bj->b", betas, k_matrix, betas)
            + betas @ ys
            - eps * np.sum(np.abs(betas), axis=1)
        )
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val = float(vals[top])
            center = mesh[ok][top]
        half *= 0.65
    return best_val
