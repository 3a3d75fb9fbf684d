"""The SVR dual on a low-rank Gram factor, by a primal-dual interior-point
method with Mehrotra's predictor-corrector (Mehrotra 1992, SIAM J. Optim.
2(4)).

svr_fit starts its pair loop from this solution. The method sees the Gram
only through its factor f, K = f' f with f of shape (r, n), so each Newton
step costs O(n r^2) and memory O(n r).
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
    # per-fit buffers: c - z, D^-1, the dual residual, the right-hand side,
    # the direction, its complementarity targets p and t, scratch, and the
    # solution for the equality's column b = (1, -1)
    gap, inv, res, rho, dz, dw, dv, p, t, tmp, xb = np.empty((11, 2, n))
    k_beta, e, ft = np.empty((3, n))
    # M is summed over blocks of f's columns, so the product (f * e) never
    # holds a second r x n array next to f
    block = 512

    def solve(rhs: np.ndarray) -> float:
        """dz = (D + V V')^-1 (rhs - b dlam) with b' dz = -sum(beta); returns
        dlam."""
        np.multiply(rhs, inv, out=dz)
        np.subtract(dz[0], dz[1], out=ft)
        np.dot(f.T, np.linalg.solve(m, f @ ft), out=ft)
        np.subtract(rhs[0], ft, out=dz[0])
        np.add(rhs[1], ft, out=dz[1])
        np.multiply(dz, inv, out=dz)
        dlam = (float(dz[0].sum()) - float(dz[1].sum()) + primal) / sb
        np.multiply(xb, dlam, out=tmp)
        np.subtract(dz, tmp, out=dz)
        return dlam

    def direction(target: float, cw: np.ndarray | float, cv: np.ndarray | float) -> float:
        """The Newton step to z w = target - cw, (c - z) v = target + cv in
        (dz, dw, dv); returns dlam."""
        np.multiply(z, w, out=p)
        np.subtract(target, p, out=p)
        np.subtract(p, cw, out=p)
        np.multiply(gap, v, out=t)
        np.subtract(target, t, out=t)
        np.add(t, cv, out=t)
        np.divide(p, z, out=rho)
        np.divide(t, gap, out=tmp)
        np.subtract(rho, tmp, out=rho)
        np.subtract(rho, res, out=rho)
        dlam = solve(rho)
        np.multiply(w, dz, out=dw)  # dw = (p - w dz) / z
        np.subtract(p, dw, out=dw)
        np.divide(dw, z, out=dw)
        np.multiply(v, dz, out=dv)  # dv = (t + v dz) / (c - z)
        np.add(t, dv, out=dv)
        np.divide(dv, gap, out=dv)
        return dlam

    def longest_step() -> float:
        """The longest step up to 1 along (dz, dw, dv) that stays inside."""
        top = 1.0
        for num, den, sign in ((dz, z, -1.0), (dz, gap, 1.0), (dw, w, -1.0), (dv, v, -1.0)):
            np.divide(num, den, out=tmp)
            top = max(top, float(tmp.max()) if sign > 0.0 else -float(tmp.min()))
        return 1.0 / top

    stop = GAP * tolerance
    for _ in range(ITERATIONS):
        np.subtract(z[0], z[1], out=k_beta)
        primal = float(k_beta.sum())
        np.dot(f.T, f @ k_beta, out=k_beta)
        k_beta -= ys
        k_beta += lam
        np.subtract(c, z, out=gap)
        # res = (K beta - y + lam, -(K beta - y + lam)) + eps - w + v
        np.subtract(v, w, out=res)
        res += eps
        res[0] += k_beta
        res[1] -= k_beta
        np.multiply(z, w, out=tmp)
        mu = float(tmp.sum())
        np.multiply(gap, v, out=tmp)
        mu = (mu + float(tmp.sum())) / (4 * n)
        if mu <= max(stop, 1e-3 * max(float(np.abs(res).max()), abs(primal))):
            break
        np.divide(w, z, out=inv)
        np.divide(v, gap, out=tmp)
        inv += tmp
        np.reciprocal(inv, out=inv)
        np.add(inv[0], inv[1], out=e)
        m = np.eye(r)
        for start in range(0, n, block):
            fc = f[:, start:start + block]
            m += (fc * e[start:start + block]) @ fc.T
        # (D + V V')^-1 b = (1 - f' M^-1 f e) * (inv_alpha, -inv_alpha*)
        np.dot(f.T, np.linalg.solve(m, f @ e), out=ft)
        np.subtract(1.0, ft, out=ft)
        np.multiply(ft, inv[0], out=xb[0])
        np.multiply(ft, inv[1], out=xb[1])
        np.negative(xb[1], out=xb[1])
        sb = float(xb[0].sum()) - float(xb[1].sum())

        # predictor: the affine step, to z w = 0
        direction(0.0, 0.0, 0.0)
        step = longest_step()
        np.multiply(dz, step, out=tmp)
        tmp += z
        np.multiply(dw, step, out=p)
        p += w
        tmp *= p
        mu_aff = float(tmp.sum())
        np.multiply(dz, -step, out=tmp)
        tmp += gap
        np.multiply(dv, step, out=p)
        p += v
        tmp *= p
        mu_aff = (mu_aff + float(tmp.sum())) / (4 * n)
        # corrector: centred on mu (mu_aff / mu)^3, with the predictor's
        # second-order terms dz dw and dz dv
        dw *= dz
        dv *= dz
        dlam = direction(mu * (mu_aff / mu) ** 3, dw, dv)
        step = min(1.0, 0.99 * longest_step())  # 0.99: stay strictly inside
        if not math.isfinite(step * dlam + float(dz.sum() + dw.sum() + dv.sum())):
            break
        dz *= step
        z += dz
        dw *= step
        w += dw
        dv *= step
        v += dv
        lam += step * dlam

    z[z < w] = 0.0
    np.subtract(c, z, out=gap)
    z[gap < v] = c
    return z[0] - z[1]
