"""Supervised-set construction, the array-shape rule every fit and
predict shares (``as_design``, ``as_xy``), the fixed-order product of
row collections (``column_product``), standard scaling and train/test
splitting.

Models see standardized features AND standardized targets: both sides are
centered on the training mean and divided by the training population std
(ddof=0). Reported errors are therefore in standardized target units unless
a caller maps predictions back through ``inverse_transform``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import CaseSeries, NUMERIC_COLUMNS
from .errors import (
    ConstantTarget,
    DegenerateSplit,
    DimensionMismatch,
    EmptyInput,
    InputError,
    MissingValuesPresent,
)

# Columns constant over a split would otherwise divide by ~0.
EPSILON_FLOOR = 1e-12
# The largest scaler scale whose square, which original_space_eval takes,
# is finite; also the largest scaler mean magnitude.
MAX_SCALE = float(np.sqrt(np.finfo(float).max))

SPLIT_MODES = ("chronological", "shuffled")


@dataclass(frozen=True)
class SupervisedSet:
    """Design matrix X (n, d) and target vector y (n,) with column names."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    target_name: str

    def __post_init__(self) -> None:
        if self.x.ndim != 2:
            raise DimensionMismatch(f"x must be 2-D, got shape {self.x.shape}")
        if self.y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-D, got shape {self.y.shape}")
        as_xy(self.x, self.y)  # row counts must agree
        if self.x.shape[1] != len(self.feature_names):
            raise DimensionMismatch(
                f"x has {self.x.shape[1]} columns but "
                f"{len(self.feature_names)} feature names were given"
            )

    def __len__(self) -> int:
        return self.y.shape[0]


def as_design(values: np.ndarray) -> np.ndarray:
    """A float design matrix (n, d); a 1-D input is one column."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected 1-D or 2-D input, got shape {arr.shape}")
    return arr


def as_xy(
    x: np.ndarray, y: np.ndarray, min_rows: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``as_design(x)`` and ``y`` flattened to floats, with one value of y
    per row of x and at least ``min_rows`` rows."""
    xs = as_design(x)
    ys = np.asarray(y, dtype=float).ravel()
    n = xs.shape[0]
    if n != ys.size:
        raise DimensionMismatch(f"x has {n} rows but y has {ys.size} values")
    if n < min_rows:
        raise DimensionMismatch(f"need at least {min_rows} rows to fit, got {n}")
    return xs, ys


def column_product(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """a @ b.T for 2-D a (m, d) and b (k, d), summed over the d columns in
    order: a[:, :1] * b[:, 0], then += a[:, c:c+1] * b[:, c]; zeros when
    d = 0. Written into ``out`` (m, k) when given.

    Each entry depends on its own row of a and row of b alone, so a block
    of rows equals those rows of the whole product bit for bit. For one
    column each entry is a single product and equals BLAS bit for bit, at
    a fraction of a one-column matmul's call cost.
    """
    if out is None:
        out = np.empty((a.shape[0], b.shape[0]))
    if a.shape[1] == 0:
        out.fill(0.0)
        return out
    np.multiply(a[:, :1], b[:, 0], out=out)
    for col in range(1, a.shape[1]):
        out += a[:, col:col + 1] * b[:, col]
    return out


@dataclass(frozen=True)
class ScalerParams:
    """Per-column center and scale; scale is floored for constant columns."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.scale.shape or self.mean.ndim != 1:
            raise DimensionMismatch(
                f"mean shape {self.mean.shape} and scale shape "
                f"{self.scale.shape} must be equal 1-D shapes"
            )


@dataclass(frozen=True)
class SplitSpec:
    """How to cut one supervised set into train and test parts.

    ``mode`` is "chronological" (first fraction of rows in given order) or
    "shuffled" (seeded permutation first). ``train_fraction`` is the share
    of rows that lands in train, rounded up to a whole row.
    """

    mode: str = "chronological"
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SPLIT_MODES:
            raise DegenerateSplit(f"unknown split mode {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise DegenerateSplit(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0:
            raise DegenerateSplit(f"seed must be non-negative, got {self.seed}")


def build_supervised(
    series: CaseSeries,
    feature_names: tuple[str, ...] | list[str],
    target_name: str,
) -> SupervisedSet:
    """Assemble X/y from named series columns.

    Valid names are day_index, tests, confirmed and deaths. Any missing
    value in a used column raises MissingValuesPresent: impute first.
    """
    feature_names = tuple(feature_names)
    for name in feature_names + (target_name,):
        if name not in NUMERIC_COLUMNS:
            raise InputError(f"unknown column {name!r}; valid: {NUMERIC_COLUMNS}")
    if not feature_names:
        raise EmptyInput("at least one feature column is required")
    if len(series) == 0:
        raise EmptyInput("series has no rows")

    def column_array(name: str) -> np.ndarray:
        values = series.column(name)
        if None in values:
            raise MissingValuesPresent(
                f"column {name!r} has missing values; run impute_missing first"
            )
        return np.asarray(values, dtype=float)

    x = np.column_stack([column_array(n) for n in feature_names])
    y = column_array(target_name)
    return SupervisedSet(x=x, y=y, feature_names=feature_names, target_name=target_name)


def fit_scaler(values: np.ndarray) -> ScalerParams:
    """Column means and population stds (ddof=0) of a 2-D array.

    A 1-D array is treated as a single column. Constant columns get the
    floor scale so transform is defined (and maps them to exactly 0).
    """
    arr = as_design(values)
    if arr.shape[0] == 0:
        raise EmptyInput("cannot fit a scaler on zero rows")
    mean = arr.mean(axis=0)
    scale = arr.std(axis=0)
    scale = np.where(scale < EPSILON_FLOOR, EPSILON_FLOOR, scale)
    return ScalerParams(mean=mean, scale=scale)


def _columnwise(
    values: np.ndarray,
    params: ScalerParams,
    op: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """op applied to values as columns of the scaler's width; a 1-D input is
    one column and comes back 1-D."""
    squeeze = np.ndim(values) == 1
    arr = as_design(values)
    if arr.shape[1] != params.mean.shape[0]:
        raise DimensionMismatch(
            f"data has {arr.shape[1]} columns but scaler was fit on "
            f"{params.mean.shape[0]}"
        )
    out = op(arr)
    return out[:, 0] if squeeze else out


def transform(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    """(values - mean) / scale, column-wise. Shape (1-D or 2-D) is kept."""
    return _columnwise(values, params, lambda arr: (arr - params.mean) / params.scale)


def inverse_transform(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    """values * scale + mean; exact round trip of transform up to fp error."""
    return _columnwise(values, params, lambda arr: arr * params.scale + params.mean)


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the (train, test) halves of n rows per `spec`; both
    halves must be non-empty."""
    n_train = int(np.ceil(spec.train_fraction * n))
    if n_train == 0 or n_train >= n:
        raise DegenerateSplit(
            f"split of {n} rows at fraction {spec.train_fraction} leaves an "
            f"empty half (train would get {n_train})"
        )
    if spec.mode == "shuffled":
        order = np.random.default_rng(spec.seed).permutation(n)
    else:
        order = np.arange(n)
    return order[:n_train], order[n_train:]


def split(data: SupervisedSet, spec: SplitSpec) -> tuple[SupervisedSet, SupervisedSet]:
    """Cut into (train, test) per `spec`; both halves must be non-empty."""

    def take(idx: np.ndarray) -> SupervisedSet:
        return SupervisedSet(
            x=data.x[idx],
            y=data.y[idx],
            feature_names=data.feature_names,
            target_name=data.target_name,
        )

    train, test = split_indices(len(data), spec)
    return take(train), take(test)


@dataclass(frozen=True)
class StandardizedSplit:
    """Train/test in standardized units plus the scalers that produced them."""

    train: SupervisedSet
    test: SupervisedSet
    x_scaler: ScalerParams
    y_scaler: ScalerParams


def standardized_split(data: SupervisedSet, spec: SplitSpec) -> StandardizedSplit:
    """Split, then fit scalers on the TRAIN half only and apply to both.

    Fitting on train alone keeps test information out of the model; a
    constant training target cannot be standardized meaningfully and is
    rejected, and so is a column whose train mean or scale lies beyond
    MAX_SCALE, which no model file could hold, or one with a test value so
    far beyond its train scale that it scales to infinity.
    """
    train, test = split(data, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        if float(np.std(train.y)) < EPSILON_FLOOR:
            raise ConstantTarget(
                f"target {data.target_name!r} is constant on the training rows"
            )
        x_scaler = fit_scaler(train.x)
        y_scaler = fit_scaler(train.y)
    columns = zip(
        data.feature_names + (data.target_name,),
        np.append(x_scaler.mean, y_scaler.mean),
        np.append(x_scaler.scale, y_scaler.scale),
    )
    for name, mean, scale in columns:
        if not (abs(mean) <= MAX_SCALE and scale <= MAX_SCALE):
            raise InputError(
                f"column {name!r} has train mean {mean:.6g} and scale "
                f"{scale:.6g}; both must lie within {MAX_SCALE:.6g}"
            )

    def scale_set(s: SupervisedSet) -> SupervisedSet:
        # Train values scale to at most sqrt(n) in magnitude. A test value
        # far beyond its column's train scale (a constant train column has
        # the floor scale) overflows to inf, which no model can score: the
        # column is rejected by name before any fit sees it.
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = transform(s.x, x_scaler), transform(s.y, y_scaler)
        finite = np.append(np.isfinite(x).all(axis=0), np.isfinite(y).all())
        if not finite.all():
            name = (s.feature_names + (s.target_name,))[int(np.argmin(finite))]
            raise InputError(
                f"column {name!r} has a value too far beyond its train scale "
                "to standardize; it scales to a non-finite value"
            )
        return SupervisedSet(
            x=x, y=y, feature_names=s.feature_names, target_name=s.target_name
        )

    return StandardizedSplit(
        train=scale_set(train),
        test=scale_set(test),
        x_scaler=x_scaler,
        y_scaler=y_scaler,
    )
