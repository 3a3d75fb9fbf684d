"""Epsilon-insensitive support vector regression with kernels.

The dual is solved in the combined variable beta_i = alpha_i - alpha_i*
(one number per sample, box |beta_i| <= C, equality sum(beta) = 0):

    minimize  f(beta) = 1/2 beta' K beta - y' beta + eps * ||beta||_1

Pairwise coordinate updates keep the equality constraint exact: each step
picks the maximally KKT-violating (increase, decrease) pair and moves it to
the minimum of the pair objective or to the first box bound or zero
crossing, whichever comes first. Stopping at zero keeps the objective
smooth along every step, as in the (alpha, alpha*) form of the dual. A
small brute-force grid oracle (qp_oracle) certifies optimality in tests.

Each pass reads two contiguous rows of the exactly symmetric Gram to
update K beta. The eps shift that each coefficient adds to its KKT
derivatives (_eps_shift) is kept in two arrays, and a pass recomputes only
the two entries it moved.

A one-feature fit never builds the n x n Gram. It builds row i as
gram_matrix(kernel, xs[i:i+1], xs)[0] when a pass first reads it and keeps
it in a per-fit row cache (the kernel cache of LIBSVM, Chang & Lin 2011,
section 5.1): one preallocated block of ROW_CACHE_BYTES, whose slots are
reused first in, first out. Each entry of such a row is a single product,
so it is bit-equal to the same row of the full Gram. A wider design builds
the full Gram once and reads its rows, since a row built alone may differ
from it in the last bits. gram_matrix builds a matrix in place, peaking at
two result-sized arrays for rbf and one for poly and linear.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateKernelMatrix, DimensionMismatch
from .preprocess import as_design, as_xy

# Dual coefficients below this are treated as exactly zero (not a support
# vector), and a coefficient this close to +-C cannot move further out.
ZERO_TOL = 1e-12
FLOAT_MAX = float(np.finfo(float).max)
# Byte budget of one fit's Gram row cache: 504 rows at 4160 training rows,
# and every row at 416. The finiteness scan builds rows in blocks of the
# same size.
ROW_CACHE_BYTES = 16 * 2**20


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and shape constants.

    gamma = None means "resolve from data at fit time" with the scale
    heuristic 1 / (n_features * var(x)).
    """

    kind: str = "rbf"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self) -> None:
        # Bounded by FLOAT_MAX rather than inf, so that an integer too large
        # for a float is rejected here and not by the kernel arithmetic.
        if self.kind not in ("linear", "rbf", "poly"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not 0.0 < self.gamma <= FLOAT_MAX:
            raise ValueError("gamma must be positive and finite")
        if not np.isfinite(self.coef0):
            raise ValueError("coef0 must be finite")
        # A fractional power of a negative base is NaN.
        if not (1 <= self.degree <= FLOAT_MAX and self.degree == int(self.degree)):
            raise ValueError("degree must be a whole number, at least 1 and finite")


@dataclass(frozen=True)
class SvrConfig:
    kernel: KernelSpec = KernelSpec()
    c: float = 1.0
    epsilon: float = 0.1
    tolerance: float = 1e-3  # KKT violation below this counts as optimal
    max_passes: int = 10000  # one pass = one pairwise update

    def __post_init__(self) -> None:
        if not 0.0 < self.c < np.inf:
            raise ValueError("c must be positive and finite")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass(frozen=True)
class SvrParams:
    """Fitted dual solution.

    alphas holds beta_i = alpha_i - alpha_i* for every training row;
    support_vectors / support_coefs keep only the rows with nonzero dual
    coefficient, which is all prediction needs. kernel is the resolved
    spec (gamma filled in). converged False flags a fit stopped by the
    pass budget; its last iterate is still usable.
    """

    alphas: np.ndarray
    bias: float
    support_vectors: np.ndarray
    support_coefs: np.ndarray
    kernel: KernelSpec
    converged: bool = True
    passes: int = 0


def gram_matrix(k: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(xa[i], xb[j]) for 2-D row collections.

    rbf is exp(-gamma * max((|a|^2 + |b|^2) - 2 a.b, 0)) and poly is
    (gamma a.b + coef0)^degree, built in place in that order: the build
    holds at most two result-sized arrays for rbf and one for poly.
    Passing one array as both xa and xb gives an exactly symmetric matrix,
    since numpy forms x @ x.T from one triangle.
    """
    a = as_design(xa)
    b = as_design(xb)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"row width mismatch: {a.shape[1]} versus {b.shape[1]}"
        )
    if k.kind == "linear":
        return a @ b.T
    if k.gamma is None:
        raise ValueError("gamma unresolved; fit resolves it or pass a value")
    ab = a @ b.T
    if k.kind == "poly":
        ab *= k.gamma
        ab += k.coef0
        ab **= k.degree
        return ab
    ab *= 2.0
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    sq -= ab
    np.maximum(sq, 0.0, out=sq)
    sq *= -k.gamma
    return np.exp(sq, out=sq)


def resolve_gamma(k: KernelSpec, x: np.ndarray) -> KernelSpec:
    """Fill gamma = 1 / (n_features * var(x)) when left unset."""
    if k.kind == "linear" or k.gamma is not None:
        return k
    arr = as_design(x)
    var = float(arr.var())
    if var <= 0.0:
        var = 1.0
    return replace(k, gamma=1.0 / (arr.shape[1] * var))


def dual_objective(
    k_matrix: np.ndarray, y: np.ndarray, beta: np.ndarray, eps: float
) -> float:
    """W(beta) = -1/2 beta' K beta + y' beta - eps ||beta||_1 (maximized)."""
    return float(
        -0.5 * beta @ (k_matrix @ beta)
        + y @ beta
        - eps * np.sum(np.abs(beta))
    )


def _eps_shift(b: float, c: float, eps: float) -> tuple[float, float]:
    """What coefficient b adds to its resid in d_up and in d_down.

    Directional derivatives of the minimized dual: d_up = resid + up for
    raising a coefficient, d_down = resid + down for lowering it, where
    resid = K beta - y. Signs of the eps term follow the one-sided
    derivative of |b|. up is +inf when b cannot rise, down -inf when it
    cannot fall. The shift depends on b alone, so the solver keeps one
    array of each and recomputes the two entries a pass moves.
    """
    up = (eps if b >= 0.0 else -eps) if b < c - ZERO_TOL else np.inf
    down = (eps if b > 0.0 else -eps) if b > -c + ZERO_TOL else -np.inf
    return up, down


def _working_pair(
    resid: np.ndarray, up: np.ndarray, down: np.ndarray
) -> tuple[int, float, int, float]:
    """The maximal KKT-violating pair (i, lo, j, hi); it violates by hi - lo.

    lo = d_up[i] is the least over the coefficients that can rise (+inf if
    none can), hi = d_down[j] the greatest over those that can fall (-inf
    if none can); up and down hold _eps_shift of every coefficient.
    """
    d_up = resid + up
    d_down = resid + down
    i = int(np.argmin(d_up))
    j = int(np.argmax(d_down))
    return i, float(d_up[i]), j, float(d_down[j])


def _gram_finite(kernel: KernelSpec, xs: np.ndarray, block: int) -> bool:
    """Whether every entry of gram_matrix(kernel, xs, xs) is finite, decided
    without holding it.

    A certificate from the largest squared row norm top comes first: since
    |a.b| <= top, every linear entry is at most top, every poly base at most
    gamma * top + |coef0|, and every rbf distance |a|^2 + |b|^2 - 2 a.b is
    formed from terms at most 2 * top, so it is never inf - inf. A bound
    that stays below a quarter of the largest float leaves room for
    rounding. When the certificate fails, the Gram is scanned block rows
    at a time and nothing is kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(np.max(np.einsum("ij,ij->i", xs, xs)))
        limit = FLOAT_MAX / 4.0
        if kernel.kind == "poly":
            base = kernel.gamma * top + abs(kernel.coef0)
            certain = base <= 1.0 or kernel.degree * math.log(base) < math.log(limit)
        else:
            certain = top < limit
        if certain:
            return True
        return all(
            np.all(np.isfinite(gram_matrix(kernel, xs[start:start + block], xs)))
            for start in range(0, xs.shape[0], block)
        )


def _row_cache(
    kernel: KernelSpec, xs: np.ndarray, capacity: int
) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """rows(i, j) -> (row i, row j) of gram_matrix(kernel, xs, xs), each
    built when first read and kept in one of capacity (>= 2) slots of a
    preallocated block. A miss takes the oldest slot; it skips the slot of
    row i while fetching row j, so both rows stay valid together."""
    n = xs.shape[0]
    block = np.empty((capacity, n))
    slot_of: dict[int, int] = {}
    owner = [-1] * capacity
    oldest = 0

    def slot(i: int, keep: int) -> int:
        nonlocal oldest
        s = slot_of.get(i)
        if s is not None:
            return s
        s = oldest if oldest != keep else (oldest + 1) % capacity
        oldest = (s + 1) % capacity
        slot_of.pop(owner[s], None)
        owner[s] = i
        slot_of[i] = s
        # _gram_finite has ruled out a non-finite entry, not an overflowing
        # intermediate such as an rbf |a|^2 + |b|^2
        with np.errstate(over="ignore"):
            block[s] = gram_matrix(kernel, xs[i:i + 1], xs)[0]
        return s

    def rows(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        si = slot(i, -1)
        return block[si], block[slot(j, si)]

    return rows


def svr_fit(x: np.ndarray, y: np.ndarray, cfg: SvrConfig) -> SvrParams:
    """Solve the dual by maximal-violating-pair coordinate updates.

    Terminates when no pair violates the KKT conditions beyond
    cfg.tolerance, or flags converged=False after cfg.max_passes updates.
    The equality constraint holds exactly throughout because every update
    moves a pair in opposite directions by the same amount.

    Each pass reads rows i and j of the Gram in place of its columns, which
    relies on the Gram being exactly symmetric. A one-feature design reads
    them from a row cache of ROW_CACHE_BYTES (about 500 rows at n = 4160)
    and never holds the n x n matrix; a wider design reads them from the
    full gram_matrix(kernel, xs, xs). Either way DegenerateKernelMatrix is
    raised when any entry of the full Gram would be non-finite.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    n = xs.shape[0]

    kernel = resolve_gamma(cfg.kernel, xs)
    if xs.shape[1] == 1:
        capacity = max(2, min(n, ROW_CACHE_BYTES // (8 * n)))
        finite = _gram_finite(kernel, xs, capacity)
        rows = _row_cache(kernel, xs, capacity)
    else:
        # overflow here is the signal for DegenerateKernelMatrix, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            k_matrix = gram_matrix(kernel, xs, xs)
        finite = bool(np.all(np.isfinite(k_matrix)))
        rows = lambda i, j: (k_matrix[i], k_matrix[j])
    if not finite:
        raise DegenerateKernelMatrix(
            "kernel matrix has non-finite entries; standardize the data or "
            "lower the polynomial degree"
        )

    beta = np.zeros(n)
    q = np.zeros(n)  # cache of K beta
    c, eps = cfg.c, cfg.epsilon
    up0, down0 = _eps_shift(0.0, c, eps)  # every coefficient starts at zero
    up, down = np.full(n, up0), np.full(n, down0)
    converged = False
    passes = 0

    for passes in range(1, cfg.max_passes + 1):
        i, lo, j, hi = _working_pair(q - ys, up, down)
        violation = hi - lo  # -inf when one side is empty: nothing can move
        if violation <= cfg.tolerance:
            converged = True
            break
        ri, rj = rows(i, j)
        eta = float(ri[i] + rj[j] - 2.0 * ri[j])
        # Up to the first box bound or zero crossing neither sign changes,
        # so the move is 1/2 eta t^2 - violation t there: a clipped Newton
        # step. t_max > 0 because i can rise and j can fall.
        t_max = min(
            c - beta[i] if beta[i] >= 0.0 else -beta[i],
            beta[j] + c if beta[j] <= 0.0 else beta[j],
        )
        t = min(t_max, violation / eta) if eta > 0.0 else t_max
        beta[i] += t
        beta[j] -= t
        q += t * (ri - rj)
        up[i], down[i] = _eps_shift(beta[i], c, eps)
        up[j], down[j] = _eps_shift(beta[j], c, eps)

    _, lo, _, hi = _working_pair(q - ys, up, down)
    if np.isinf(lo) and np.isinf(hi):
        bias = float(np.mean(ys - q))
    elif np.isinf(lo):
        bias = -hi
    elif np.isinf(hi):
        bias = -lo
    else:
        bias = -0.5 * (lo + hi)

    keep = np.abs(beta) > ZERO_TOL
    return SvrParams(
        alphas=beta,
        bias=bias,
        support_vectors=xs[keep].copy(),
        support_coefs=beta[keep].copy(),
        kernel=kernel,
        converged=converged,
        passes=passes,
    )


def svr_predict(params: SvrParams, x: np.ndarray) -> np.ndarray:
    """Sum of coef * k(support_vector, row) + bias for each row of
    ``as_design(x)``, with k the fit's resolved ``params.kernel``."""
    arr = as_design(x)
    if params.support_vectors.shape[0] == 0:
        return np.full(arr.shape[0], params.bias)
    if arr.shape[1] != params.support_vectors.shape[1]:
        raise DimensionMismatch(
            f"x has {arr.shape[1]} features, support vectors have "
            f"{params.support_vectors.shape[1]}"
        )
    k_cross = gram_matrix(params.kernel, arr, params.support_vectors)
    return k_cross @ params.support_coefs + params.bias


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
