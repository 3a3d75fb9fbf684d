"""Epsilon-insensitive support vector regression with kernels.

The dual is solved in the combined variable beta_i = alpha_i - alpha_i*
(one number per sample, box |beta_i| <= C, equality sum(beta) = 0):

    minimize  f(beta) = 1/2 beta' K beta - y' beta + eps * ||beta||_1

svr_fit takes three steps.

1. Factor. A pivoted incomplete Cholesky factor K ~ L L' (Fine &
   Scheinberg 2001, JMLR 2) is built from at most as many Gram rows as the
   row cache below holds, so it fits the same budget. The factor finds the
   rank: on one standardized column, the design of every grid cell, it is
   1 for linear, p + 1 for poly-p and 19 for rbf.
2. Interior point. The (alpha, alpha*) form of the dual on L L' is solved
   by Mehrotra's predictor-corrector; each Newton system is one r x r
   solve by Sherman-Morrison-Woodbury. The solution is snapped onto its
   bounds and sum(beta) = 0 is restored.
3. Finish. Pairwise coordinate updates take it from there. Each picks the
   maximally KKT-violating (increase, decrease) pair and moves it to the
   minimum of the pair objective or to the first box bound or zero
   crossing, whichever comes first, so the equality stays exact. Stopping
   at zero keeps the objective smooth along every step, as in the (alpha,
   alpha*) form. Their violation test is the one KKT rule behind
   converged, and passes counts these updates alone.

Each pass reads two contiguous rows of the exactly symmetric Gram to
update K beta. The eps shift that each coefficient adds to its KKT
derivatives (_eps_shift) is kept in a (2, n) array, and a pass recomputes
only the two entries it moved. The length-n vectors a pass forms
(residuals, KKT derivatives, the update of K beta) are plain array
expressions; the coefficients, which a pass reads and writes one at a
time, are Python floats until the fit ends.

A fit never builds the n x n Gram. The factor builds its pivot rows, and
the pair loop builds row i as gram_matrix(kernel, xs[i:i+1], xs)[0] when a
pass first reads it. A per-fit functools.lru_cache of at most
ROW_CACHE_BYTES of rows keeps it (the kernel cache of LIBSVM, Chang & Lin
2011, section 5.1): a miss with the cache full drops the least recently
read row, as LIBSVM does. The cache holds only the rows built, each its
own array, so a fit that finishes in a few passes holds a few rows.
gram_matrix forms each entry from its own two rows alone, so such a row is
bit-equal to the same row of the full Gram at every design width, and the
cache size never changes a fit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateKernelMatrix, DimensionMismatch
from .preprocess import as_design, as_xy, column_product

# Dual coefficients below this are treated as exactly zero (not a support
# vector), and a coefficient this close to +-C cannot move further out.
ZERO_TOL = 1e-12
FLOAT_MAX = float(np.finfo(float).max)
# Byte budget of one fit's Gram row cache, an lru_cache of as many rows
# as fit in it: 63 rows at 4160 training rows, and every row up to 512.
# The factor holds at most as many rows. The maximal-violating-pair
# solver rereads rows over short distances, so 63 rows keep nearly every
# hit even from a zero start; from the interior-point start the ten
# default fits of the 5200-day grid build 96 Gram rows in all, factor
# included. The finiteness scan builds rows in blocks of the same size,
# and svr_predict in blocks of a quarter of it.
ROW_CACHE_BYTES = 2 * 2**20

KERNELS = ("linear", "rbf", "poly")
# The factor stops once its largest residual diagonal is at most this
# fraction of the Gram's mean diagonal.
FACTOR_TOL = 1e-13


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and shape constants.

    gamma = None means "resolve from data at fit time" with the scale
    heuristic 1 / (n_features * var(x)).
    """

    kind: str = field(default="rbf", metadata={"flag": "--kernel", "choices": KERNELS})
    gamma: float | None = field(default=None, metadata={"type": float})
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self) -> None:
        # Bounded by FLOAT_MAX rather than inf, so that an integer too large
        # for a float is rejected here and not by the kernel arithmetic.
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not 0.0 < self.gamma <= FLOAT_MAX:
            raise ValueError("gamma must be positive and finite")
        if not np.isfinite(self.coef0):
            raise ValueError("coef0 must be finite")
        # A fractional power of a negative base is NaN.
        if not (1 <= self.degree <= FLOAT_MAX and self.degree == int(self.degree)):
            raise ValueError("degree must be a whole number, at least 1 and finite")

    @property
    def positive_semidefinite(self) -> bool:
        """Whether every Gram of this kernel is positive semidefinite:
        linear and rbf always, poly when coef0 >= 0, since (gamma a.b +
        coef0)^p then sums products of such kernels."""
        return self.kind != "poly" or self.coef0 >= 0.0


@dataclass(frozen=True)
class SvrConfig:
    kernel: KernelSpec = KernelSpec()
    c: float = 1.0
    epsilon: float = 0.1
    # KKT violation below this counts as optimal; no flag: --tolerance is the MLP's
    tolerance: float = field(default=1e-3, metadata={"flag": None})
    max_passes: int = 10000  # one pass = one pairwise update

    def __post_init__(self) -> None:
        if not 0.0 < self.c < np.inf:
            raise ValueError("c must be positive and finite")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        # no violation is at most a NaN or negative tolerance, and an
        # infinite one certifies any start
        if not 0.0 <= self.tolerance < np.inf:
            raise ValueError("tolerance must be nonnegative and finite")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass(frozen=True)
class SvrParams:
    """Fitted dual solution.

    alphas holds beta_i = alpha_i - alpha_i* for every training row;
    support_vectors / support_coefs keep only the rows with nonzero dual
    coefficient, which is all prediction needs. kernel is the resolved
    spec (gamma filled in). passes counts the pair loop's updates after
    the interior-point start; converged False flags a fit stopped by the
    pass budget, and its last iterate is still usable.
    """

    alphas: np.ndarray
    bias: float
    support_vectors: np.ndarray
    support_coefs: np.ndarray
    kernel: KernelSpec
    converged: bool
    passes: int


def gram_matrix(k: KernelSpec, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Kernel matrix K[i, j] = k(xa[i], xb[j]) for 2-D row collections.

    rbf is exp(-gamma * max((|a|^2 + |b|^2) - 2 a.b, 0)) and poly is
    (gamma a.b + coef0)^degree, built in place in that order: the build
    holds at most two result-sized arrays (one for poly and linear on one
    feature). a.b is column_product's sum over the columns in order, so
    each entry depends on its two rows alone: a block of rows equals those
    rows of the whole matrix bit for bit, and K(x, x) is exactly symmetric.
    """
    a = as_design(xa)
    b = as_design(xb)
    d = a.shape[1]
    if d != b.shape[1]:
        raise DimensionMismatch(f"row width mismatch: {d} versus {b.shape[1]}")
    if k.kind != "linear" and k.gamma is None:
        raise ValueError("gamma unresolved; fit resolves it or pass a value")
    return _kernel_values(
        k,
        column_product(a, b),
        lambda: np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :],
    )


def _kernel_values(
    k: KernelSpec, ab: np.ndarray, norms: Callable[[], np.ndarray]
) -> np.ndarray:
    """Kernel k applied in place to the dot products ab. rbf also calls
    norms() for the matching sums |a|^2 + |b|^2, which it overwrites."""
    if k.kind == "linear":
        return ab
    if k.kind == "poly":
        ab *= k.gamma
        ab += k.coef0
        ab **= k.degree
        return ab
    ab *= 2.0
    sq = norms()
    sq -= ab
    np.maximum(sq, 0.0, out=sq)
    sq *= -k.gamma
    return np.exp(sq, out=sq)


def resolve_gamma(k: KernelSpec, x: np.ndarray) -> KernelSpec:
    """Fill gamma = 1 / (n_features * var(x)) when left unset; raise
    DegenerateKernelMatrix when that is not a positive finite float."""
    if k.kind == "linear" or k.gamma is not None:
        return k
    arr = as_design(x)
    with np.errstate(over="ignore"):
        var = float(arr.var())
    if var <= 0.0:
        var = 1.0
    gamma = 1.0 / (arr.shape[1] * var)
    if not 0.0 < gamma <= FLOAT_MAX:
        raise DegenerateKernelMatrix("no finite gamma for this data; standardize it")
    return replace(k, gamma=gamma)


def _eps_shift(b: float, c: float, eps: float) -> tuple[float, float]:
    """What coefficient b adds to its resid in d_up and in d_down.

    Directional derivatives of the minimized dual: d_up = resid + up for
    raising a coefficient, d_down = resid + down for lowering it, where
    resid = K beta - y. Signs of the eps term follow the one-sided
    derivative of |b|. up is +inf when b cannot rise, down -inf when it
    cannot fall. The shift depends on b alone, so the solver keeps a row
    of each and recomputes the two entries a pass moves.
    """
    up = (eps if b >= 0.0 else -eps) if b < c - ZERO_TOL else math.inf
    down = (eps if b > 0.0 else -eps) if b > -c + ZERO_TOL else -math.inf
    return up, down


def _working_pair(resid: np.ndarray, shifts: np.ndarray) -> tuple[int, float, int, float]:
    """The maximal KKT-violating pair (i, lo, j, hi); it violates by hi - lo.

    lo = d_up[i] is the least over the coefficients that can rise (+inf if
    none can), hi = d_down[j] the greatest over those that can fall (-inf
    if none can). shifts stacks the up and down of _eps_shift for every
    coefficient, so one add forms both rows of derivatives.
    """
    d_up, d_down = resid + shifts
    # the array methods skip np.argmin's dispatch, about 1 us of a pass
    i = d_up.argmin()
    j = d_down.argmax()
    return int(i), d_up.item(i), int(j), d_down.item(j)


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


def _cache_rows(n: int) -> int:
    """Rows a fit's row cache keeps at n training rows, which also cap its
    factor: as many rows of n floats as ROW_CACHE_BYTES holds, 2 to n."""
    return max(2, min(n, ROW_CACHE_BYTES // (8 * n)))


def _row_cache(
    kernel: KernelSpec, xs: np.ndarray, capacity: int
) -> Callable[[int], np.ndarray]:
    """row(i) -> row i of gram_matrix(kernel, xs, xs), built when first read
    and kept by functools.lru_cache while it is among the capacity (>= 2)
    most recently read rows: a miss with capacity rows kept drops the least
    recently read one. Each row is its own array, never written over, so
    ri, rj = row(i), row(j) stay valid together."""

    @functools.lru_cache(maxsize=capacity)
    def row(i: int) -> np.ndarray:
        # _gram_finite has ruled out a non-finite entry, not an
        # overflowing intermediate such as an rbf |a|^2 + |b|^2
        with np.errstate(over="ignore"):
            return gram_matrix(kernel, xs[i:i + 1], xs)[0]

    return row


def _gram_diagonal(kernel: KernelSpec, xs: np.ndarray) -> np.ndarray:
    """The diagonal of gram_matrix(kernel, xs, xs), by the same arithmetic,
    without the matrix."""
    ab = np.zeros(xs.shape[0])
    for col in xs.T:  # column_product's sum, in its order
        ab += col * col
    return _kernel_values(kernel, ab, lambda: 2.0 * np.sum(xs * xs, axis=1))


def _factor(
    kernel: KernelSpec, xs: np.ndarray, capacity: int
) -> tuple[np.ndarray, float, float]:
    """(f, scale, residual): K ~ scale * f' f, with f of shape (rank, n) a
    pivoted incomplete Cholesky factor of at most capacity rows, and the
    largest |diagonal| of K - scale * f' f.

    Each step builds the Gram row of the largest residual diagonal, the
    pivot (Fine & Scheinberg 2001, JMLR 2), and the factor stops once that
    diagonal is at most FACTOR_TOL; scale is the mean |diagonal| of K, the
    unit of f. For a positive semidefinite K every entry of K - scale * f' f
    is at most residual. residual is inf when the cap stops the factor
    first, or when a residual diagonal falls below -FACTOR_TOL, from
    rounding or because K is not positive semidefinite.
    """
    n = xs.shape[0]
    with np.errstate(over="ignore"):
        d = _gram_diagonal(kernel, xs)
    scale = float(np.sum(np.abs(d) / n))  # the mean, without overflow
    f = np.empty((0, n))
    if scale == 0.0:  # a zero diagonal: rank 0
        return f, 0.0, 0.0
    d /= scale
    rank = 0
    while rank < capacity and d.max() > FACTOR_TOL:
        if rank == f.shape[0]:  # grow by doubling, up to capacity rows
            grown = np.empty((min(capacity, max(8, 2 * rank)), n))
            grown[:rank] = f
            f = grown
        p = int(d.argmax())
        g = f[rank]
        with np.errstate(over="ignore"):
            g[:] = gram_matrix(kernel, xs[p:p + 1], xs)[0]
        g /= scale
        g -= f[:rank].T @ f[:rank, p]
        g /= math.sqrt(d[p])
        d -= g * g
        rank += 1
    top = float(np.max(np.abs(d)))
    if top > FACTOR_TOL:
        return f[:rank], scale, math.inf
    return f[:rank], scale, top * scale


def _start(
    kernel: KernelSpec, xs: np.ndarray, ys: np.ndarray, cfg: SvrConfig, capacity: int
) -> tuple[list[float], np.ndarray]:
    """(beta, q): a start for the pair loop, a list with sum(beta) = 0 and
    |beta| <= C, and q = K beta.

    beta is the interior point's solution on K ~ L L', L = sqrt(scale) f'.
    q is L (L' beta) when the kernel is positive semidefinite and the bound
    on its error, the factor's residual times C n, is at most a hundredth
    of the KKT tolerance; otherwise it is built exactly, in svr_predict's
    row blocks. Without semidefiniteness the bound fails: a poly Gram with
    coef0 < 0 can have a zero diagonal and nonzero entries. A start that is
    not finite is replaced by beta = 0, q = 0.
    """
    # imported by the first fit, so a command that fits no SVR never
    # compiles the solver
    from .interior_point import solve_svr_dual

    n = xs.shape[0]
    f, scale, residual = _factor(kernel, xs, capacity)
    unit = scale if scale > 0.0 else 1.0
    with np.errstate(all="ignore"):  # a failed solve ends in the check below
        beta = solve_svr_dual(f, ys / unit, cfg.c, cfg.epsilon / unit, cfg.tolerance / unit)
    excess = float(beta.sum())
    if not abs(excess) <= cfg.c:  # NaN too
        return [0.0] * n, np.zeros(n)
    # restore sum(beta) = 0 on the coefficient with the most room for it
    beta[int(beta.argmax()) if excess > 0.0 else int(beta.argmin())] -= excess
    if kernel.positive_semidefinite and residual * cfg.c * n <= cfg.tolerance / 100.0:
        q = scale * (f.T @ (f @ beta))
    else:
        del f
        keep = beta != 0.0
        q = svr_predict(SvrParams(beta, 0.0, xs[keep], beta[keep], kernel, True, 0), xs)
    return beta.tolist(), q


def _pair_loop(
    kernel: KernelSpec,
    xs: np.ndarray,
    ys: np.ndarray,
    cfg: SvrConfig,
    beta: list[float],
    q: np.ndarray,
    capacity: int,
) -> SvrParams:
    """Maximal-violating-pair coordinate updates from the feasible beta,
    with q = K beta, until no pair violates the KKT conditions beyond
    cfg.tolerance (converged) or cfg.max_passes updates are spent. Both
    are updated in place; the row cache keeps up to capacity Gram rows.
    beta, q, the eps-shift rows and the cache are all that one pass hands
    to the next; its residuals, derivatives and step are array expressions.

    A pass reads and writes single coefficients, which Python floats do
    without numpy's per-element dispatch, so beta is a list; it becomes an
    array at the end. Each pass reads rows i and j of the Gram in place of
    its columns, which relies on the Gram being exactly symmetric. It
    reads them through _row_cache's lru_cache, whose rows stay valid after
    eviction. Every update moves a pair in opposite directions by the same
    amount, so sum(beta) stays where it started.
    """
    n = xs.shape[0]
    c, eps, tolerance = cfg.c, cfg.epsilon, cfg.tolerance
    # rows up and down of _eps_shift per coefficient, streamed into the
    # array rather than built as a list of n pairs first
    shifts = np.fromiter(
        (e for b in beta for e in _eps_shift(b, c, eps)), float, 2 * n
    ).reshape(n, 2).T.copy()
    up, down = shifts
    row = _row_cache(kernel, xs, capacity)
    converged = False
    passes = 0

    for passes in range(1, cfg.max_passes + 1):
        i, lo, j, hi = _working_pair(q - ys, shifts)
        violation = hi - lo  # -inf when one side is empty: nothing can move
        if violation <= tolerance:
            converged = True
            break
        ri, rj = row(i), row(j)
        eta = ri.item(i) + rj.item(j) - 2.0 * ri.item(j)
        # Up to the first box bound or zero crossing neither sign changes,
        # so the move is 1/2 eta t^2 - violation t there: a clipped Newton
        # step. t_max > 0 because i can rise and j can fall.
        bi, bj = beta[i], beta[j]
        t_max = min(c - bi if bi >= 0.0 else -bi, bj + c if bj <= 0.0 else bj)
        t = min(t_max, violation / eta) if eta > 0.0 else t_max
        bi += t
        bj -= t
        beta[i], beta[j] = bi, bj
        q += t * (ri - rj)
        up[i], down[i] = _eps_shift(bi, c, eps)
        up[j], down[j] = _eps_shift(bj, c, eps)

    _, lo, _, hi = _working_pair(q - ys, shifts)
    if math.isinf(lo) and math.isinf(hi):
        bias = float(np.mean(ys - q))
    elif math.isinf(lo):
        bias = -hi
    elif math.isinf(hi):
        bias = -lo
    else:
        bias = -0.5 * (lo + hi)

    alphas = np.array(beta)
    keep = np.abs(alphas) > ZERO_TOL
    return SvrParams(
        alphas=alphas,
        bias=bias,
        support_vectors=xs[keep].copy(),
        support_coefs=alphas[keep],
        kernel=kernel,
        converged=converged,
        passes=passes,
    )


def svr_fit(x: np.ndarray, y: np.ndarray, cfg: SvrConfig) -> SvrParams:
    """Solve the dual: factor the Gram (_factor), start from the interior
    point on that factor (_start), then finish by maximal-violating-pair
    updates (_pair_loop).

    The factor and the pair loop's row cache each hold at most capacity
    Gram rows, ROW_CACHE_BYTES (63 rows at n = 4160, every row up to
    n = 512), and the factor is freed before the pair loop starts, so a fit
    never holds the n x n matrix. converged and passes are the pair loop's:
    converged when no pair violates the KKT conditions beyond
    cfg.tolerance, False after cfg.max_passes updates. The interior point's
    iterations are not passes; interior_point.ITERATIONS caps them.
    DegenerateKernelMatrix is raised when any entry of the full Gram would
    be non-finite.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    kernel = resolve_gamma(cfg.kernel, xs)
    capacity = _cache_rows(xs.shape[0])
    if not _gram_finite(kernel, xs, capacity):
        raise DegenerateKernelMatrix(
            "kernel matrix has non-finite entries; standardize the data or "
            "lower the polynomial degree"
        )
    beta, q = _start(kernel, xs, ys, cfg, capacity)
    return _pair_loop(kernel, xs, ys, cfg, beta, q, capacity)


def svr_predict(params: SvrParams, x: np.ndarray) -> np.ndarray:
    """Sum of coef * k(support_vector, row) + bias for each row of
    ``as_design(x)``, with k the fit's resolved ``params.kernel``.

    The cross-Gram is built a block of rows at a time, each block within a
    quarter of ROW_CACHE_BYTES. A row's sum is numpy's sum of its own
    products, so it does not depend on how the rows are blocked.
    """
    arr = as_design(x)
    sv, coefs = params.support_vectors, params.support_coefs
    if sv.shape[0] == 0:
        return np.full(arr.shape[0], params.bias)
    if arr.shape[1] != sv.shape[1]:
        raise DimensionMismatch(
            f"x has {arr.shape[1]} features, support vectors have {sv.shape[1]}"
        )
    rows = max(1, ROW_CACHE_BYTES // (4 * 8 * sv.shape[0]))
    out = np.empty(arr.shape[0])
    for start in range(0, arr.shape[0], rows):
        block = gram_matrix(params.kernel, arr[start:start + rows], sv)
        # overflow gives inf here as it would in a BLAS product
        with np.errstate(over="ignore", invalid="ignore"):
            block *= coefs
            out[start:start + rows] = block.sum(axis=1)
        del block  # so that the next block is built without it
    out += params.bias
    return out
