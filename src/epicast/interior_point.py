"""The SVR dual on a low-rank Gram factor, by a primal-dual interior-point
method with Mehrotra's predictor-corrector (Mehrotra 1992, SIAM J. Optim.
2(4)).

svr_fit starts its pair loop from this solution. The method sees the Gram
only through its factor f, K = f' f with f of shape (r, n), so each Newton
step costs O(n r^2) and memory O(n r). A step is plain numpy expressions on
(2, n) arrays whose rows are alpha and alpha*; only z, w, v and lam are kept
from one step to the next. The order of each expression's operands fixes
the bits of the result: a reassociated sum gives other coefficients.
"""

from __future__ import annotations

import math

import numpy as np

# The method stops after ITERATIONS, or once its mean complementarity is at
# most GAP times the KKT tolerance: a looser stop leaves coefficients near
# a bound unsnapped, and poly-7 at 5200 days then needs over 1 000
# finishing passes where 1e-8 needs at most 8.
ITERATIONS = 100
GAP = 1e-8
# the signs of alpha and alpha* in beta = alpha - alpha* (x + -1 y is x - y)
SIGNS = np.array([[1.0], [-1.0]])
# M is summed over blocks of f's columns: f * e never holds a second r x n
# array next to f, and one unblocked product would round differently
BLOCK = 512


def solve_svr_dual(
    f: np.ndarray, ys: np.ndarray, c: float, eps: float, tolerance: float
) -> np.ndarray:
    """beta minimizing the SVR dual with K = f' f, snapped onto its bounds.

    The variables are z = (alpha, alpha*) in [0, c]^(2 x n), beta = alpha -
    alpha*, with multipliers w for z >= 0, v for z <= c and lam for
    sum(beta) = 0. The objective is 1/2 z' V V' z + (eps - y, eps + y)' z
    with V = (f', -f'). A Newton step solves (D + V V') dz = rho with D
    diagonal; by Sherman-Morrison-Woodbury that is one r x r system
    M = I + f diag(1/D_alpha + 1/D_alpha*) f', so it costs O(n r^2) for
    the r rows of f. The iteration stops once the mean complementarity mu
    is at most GAP times the KKT tolerance (in the units of f' f), or a
    thousandth of the dual residual, below which rounding leaves nothing
    to gain, or after ITERATIONS.

    A coefficient whose distance to a bound is below that bound's
    multiplier is then moved onto the bound.
    """
    r, n = f.shape
    z = np.full((2, n), 0.5 * c)
    w, v = np.ones((2, n)), np.ones((2, n))
    lam = 0.0

    def solve(rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """(dz, dlam): dz = (D + V V')^-1 (rhs - b dlam) for the equality's
        column b = (1, -1), with b' dz = -sum(beta)."""
        ft = f.T @ np.linalg.solve(m, f @ (rhs[0] * inv[0] - rhs[1] * inv[1]))
        dz = (rhs - SIGNS * ft) * inv
        dlam = (float(dz[0].sum()) - float(dz[1].sum()) + primal) / sb
        return dz - xb * dlam, dlam

    def direction(target: float, cw: np.ndarray | float, cv: np.ndarray | float):
        """(dz, dw, dv, dlam): the Newton step to z w = target - cw and
        (c - z) v = target + cv."""
        p = target - z * w - cw
        t = target - gap * v + cv
        dz, dlam = solve(p / z - t / gap - res)
        return dz, (p - w * dz) / z, (t + v * dz) / gap, dlam

    def longest_step(dz: np.ndarray, dw: np.ndarray, dv: np.ndarray) -> float:
        """The longest step up to 1 along (dz, dw, dv) that stays inside."""
        return 1.0 / max(
            1.0, -float((dz / z).min()), float((dz / gap).max()),
            -float((dw / w).min()), -float((dv / v).min()),
        )

    stop = GAP * tolerance
    for _ in range(ITERATIONS):
        beta = z[0] - z[1]
        primal = float(beta.sum())
        gap = c - z
        res = v - w + eps + SIGNS * (f.T @ (f @ beta) - ys + lam)
        mu = (float((z * w).sum()) + float((gap * v).sum())) / (4 * n)
        if mu <= max(stop, 1e-3 * max(float(np.abs(res).max()), abs(primal))):
            break
        inv = 1.0 / (w / z + v / gap)
        e = inv[0] + inv[1]
        m = np.eye(r)
        for start in range(0, n, BLOCK):
            fc = f[:, start:start + BLOCK]
            m += (fc * e[start:start + BLOCK]) @ fc.T
        # (D + V V')^-1 b = (1 - f' M^-1 f e) * (inv_alpha, -inv_alpha*)
        xb = SIGNS * ((1.0 - f.T @ np.linalg.solve(m, f @ e)) * inv)
        sb = float(xb[0].sum()) - float(xb[1].sum())

        # predictor: the affine step, to z w = 0
        dz, dw, dv, _ = direction(0.0, 0.0, 0.0)
        step = longest_step(dz, dw, dv)
        mu_aff = float(((z + step * dz) * (w + step * dw)).sum())
        mu_aff = (mu_aff + float(((gap - step * dz) * (v + step * dv)).sum())) / (4 * n)
        # corrector: centred on mu (mu_aff / mu)^3, with the predictor's
        # second-order terms dz dw and dz dv
        dw *= dz
        dv *= dz
        dz, dw, dv, dlam = direction(mu * (mu_aff / mu) ** 3, dw, dv)
        step = min(1.0, 0.99 * longest_step(dz, dw, dv))  # 0.99: stay strictly inside
        if not math.isfinite(step * dlam + float(dz.sum() + dw.sum() + dv.sum())):
            break
        z += step * dz
        w += step * dw
        v += step * dv
        lam += step * dlam

    z[z < w] = 0.0
    z[c - z < v] = c
    return z[0] - z[1]
