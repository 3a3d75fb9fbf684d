"""Feed-forward MLP regressor trained by L-BFGS, gradient descent or Adam.

The network is a stack of identically sized hidden layers with a single
linear output unit (identity head, since case counts are unbounded).
Gradients come from reverse-mode backpropagation of the batch MSE.
Parameters flatten to one vector in layer-major order, weights before
bias, weight matrices row-major; the optimizers and the on-disk model
format both rely on that layout.

An evaluation runs feature-major: each layer's activations are an H x n
array, one row per unit, so every elementwise loop, bias add and row sum
runs n long. They live in a Workspace that train_mlp allocates once per
fit. Backprop reads them (every derivative is written in terms of
h = f(b)) and then writes each layer's delta over them; the gradient goes
through views into one flat vector. W0 x' and the output layer's rank-1
backprop are column_product's fixed-order sums, the rest BLAS matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError
from .optimizers import MinimizeResult, adam_minimize, lbfgs_minimize, sgd_minimize
from .preprocess import as_design, as_xy, column_product

ACTIVATIONS = ("tanh", "relu", "logistic")
OPTIMIZERS = ("lbfgs", "sgd", "adam")


@dataclass(frozen=True)
class ActivationKind:
    """A hidden-unit nonlinearity f and its derivative df/db, which takes
    the activation h = f(b) so that backprop reuses the forward pass.

    Both write into ``out`` when it is given; f's may be b itself.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def f(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.kind == "tanh":
            return np.tanh(b, out=out)
        if self.kind == "relu":
            return np.maximum(0.0, b, out=out)
        # logistic
        if out is None:
            out = np.empty_like(b, dtype=float)
        pos = b >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-b[pos]))
        eb = np.exp(b[~pos])
        out[~pos] = eb / (1.0 + eb)
        return out

    def f_prime(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """1 - h^2 for tanh, h (1 - h) for logistic, [h > 0] for relu."""
        if out is None:
            out = np.empty_like(h, dtype=float)
        if self.kind == "tanh":
            np.square(h, out=out)
            return np.subtract(1.0, out, out=out)
        if self.kind == "relu":
            return np.greater(h, 0.0, out=out)
        # logistic
        np.subtract(1.0, h, out=out)
        return np.multiply(h, out, out=out)


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: int = 2
    neurons_per_layer: int = field(default=16, metadata={"flag": "--neurons"})
    activation: str = field(default="tanh", metadata={"choices": ACTIVATIONS})
    optimizer: str = field(default="lbfgs", metadata={"choices": OPTIMIZERS})
    max_iterations: int = 1000
    # no flag of its own: the CLI's split --seed seeds the MLP too
    seed: int = field(default=0, metadata={"flag": None, "dest": "seed"})
    # early stop after 10 steps in a row that each move the loss, up or
    # down, by less than this; 0 never stops
    tolerance: float = 1e-6
    learning_rate: float = 1e-3  # sgd/adam only

    def __post_init__(self) -> None:
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be at least 1")
        if self.neurons_per_layer < 1:
            raise ValueError("neurons_per_layer must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if not np.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be nonnegative and finite")


@dataclass(frozen=True)
class MlpParams:
    """Weight matrices and bias vectors, input side first.

    weights[0] is (neurons, n_features), interior entries are
    (neurons, neurons) and weights[-1] is (1, neurons); biases match the
    output side of each matrix.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[1]

    def flatten(self) -> np.ndarray:
        pairs = zip(self.weights, self.biases)
        return np.concatenate([a.ravel() for pair in pairs for a in pair])

    @staticmethod
    def shapes(cfg: MlpConfig, n_features: int) -> list[tuple[int, int]]:
        dims = [n_features] + [cfg.neurons_per_layer] * cfg.hidden_layers + [1]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    @staticmethod
    def unflatten(theta: np.ndarray, shapes: list[tuple[int, int]]) -> "MlpParams":
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        pos = 0
        for rows, cols in shapes:
            weights.append(theta[pos : pos + rows * cols].reshape(rows, cols))
            pos += rows * cols
            biases.append(theta[pos : pos + rows])
            pos += rows
        if pos != theta.size:
            raise DimensionMismatch(
                f"flat vector has {theta.size} entries, shapes need {pos}"
            )
        return MlpParams(weights=tuple(weights), biases=tuple(biases))


def init_params(cfg: MlpConfig, n_features: int) -> MlpParams:
    """Glorot-uniform weights from a seeded RNG, zero biases.

    Bound sqrt(6 / (fan_in + fan_out)) keeps early activations in the
    responsive range of tanh/logistic; zero biases keep init symmetric
    around the origin.
    """
    if n_features < 1:
        raise DimensionMismatch("need at least one feature")
    rng = np.random.default_rng(cfg.seed)
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    for rows, cols in MlpParams.shapes(cfg, n_features):
        limit = np.sqrt(6.0 / (rows + cols))
        weights.append(rng.uniform(-limit, limit, size=(rows, cols)))
        biases.append(np.zeros(rows))
    return MlpParams(weights=tuple(weights), biases=tuple(biases))


@dataclass(frozen=True)
class Workspace:
    """The H x n buffers of one evaluation on n rows, for hidden layers of
    one width H as MlpParams lays them out.

    post holds each hidden layer's activations after the forward pass and
    its delta after loss_and_gradient, back the f' that backprop forms,
    out the output row, then its residuals and then its delta.
    """

    post: tuple[np.ndarray, ...]
    back: np.ndarray
    out: np.ndarray

    @staticmethod
    def allocate(shapes: list[tuple[int, int]], n: int) -> "Workspace":
        """Buffers for the layer shapes of MlpParams.shapes."""
        return Workspace(
            post=tuple(np.empty((rows, n)) for rows, _ in shapes[:-1]),
            back=np.empty((shapes[0][0], n)),
            out=np.empty((1, n)),
        )


def _forward_batch(
    params: MlpParams, act: ActivationKind, x: np.ndarray, work: Workspace
) -> np.ndarray:
    """Predictions, a view of work.out; work.post receives the activations."""
    if x.shape[1] != params.n_features:
        raise DimensionMismatch(
            f"x has {x.shape[1]} features, first layer expects {params.n_features}"
        )
    h = x
    hidden = zip(params.weights[:-1], params.biases[:-1], work.post)
    for layer, (w, b, z) in enumerate(hidden):
        if layer == 0:
            column_product(w, x, out=z)
        else:
            np.matmul(w, h, out=z)
        z += b[:, None]
        h = act.f(z, out=z)
    out = np.matmul(params.weights[-1], h, out=work.out)
    out += params.biases[-1]
    return out[0]


def forward(params: MlpParams, act: ActivationKind, x: np.ndarray) -> np.ndarray:
    """Network output, one value per row of ``as_design(x)``."""
    xs = as_design(x)
    work = Workspace.allocate([w.shape for w in params.weights], xs.shape[0])
    return _forward_batch(params, act, xs, work)


def loss_and_gradient(
    params: MlpParams,
    act: ActivationKind,
    x: np.ndarray,
    y: np.ndarray,
    work: Workspace | None = None,
    out: np.ndarray | None = None,
) -> tuple[float, MlpParams]:
    """Batch MSE and its gradient via backpropagation.

    The gradient comes back in parameter shape: a MlpParams of views into
    ``out``, the flat vector of d(loss)/d(entry) in MlpParams.flatten's
    layout. The intermediates go into ``work``. Either is new when None.
    The loss comes back as computed, inf or NaN included: the optimizers
    decide what a non-finite value means.
    """
    xs, ys = as_xy(x, y)
    n = xs.shape[0]
    shapes = [w.shape for w in params.weights]
    if work is None:
        work = Workspace.allocate(shapes, n)
    if out is None:
        out = np.empty(sum(rows * (cols + 1) for rows, cols in shapes))
    grad = MlpParams.unflatten(out, shapes)
    yhat = _forward_batch(params, act, xs, work)
    resid = np.subtract(yhat, ys, out=yhat)
    loss = float(resid @ resid) / n

    last = len(shapes) - 1
    # delta holds d(loss)/d(pre-activation) for the layer being processed,
    # one row per unit, first the output layer's one row. Each step forms
    # f' of its input h into work.back (never over h: logistic's reads h
    # after writing 1 - h), then W' delta over h, now read for the last time.
    delta = np.multiply(2.0 / n, resid, out=work.out)
    for layer in range(last, 0, -1):
        h = work.post[layer - 1]
        np.matmul(delta, h.T, out=grad.weights[layer])
        delta.sum(axis=1, out=grad.biases[layer])
        act.f_prime(h, out=work.back)
        if layer == last:  # rank 1
            column_product(params.weights[layer].T, delta.T, out=h)
        else:
            np.matmul(params.weights[layer].T, delta, out=h)
        delta = np.multiply(h, work.back, out=h)
    np.matmul(delta, xs, out=grad.weights[0])
    delta.sum(axis=1, out=grad.biases[0])
    return loss, grad


def train_mlp(
    cfg: MlpConfig, x: np.ndarray, y: np.ndarray
) -> tuple[MlpParams, MinimizeResult]:
    """Fit from a seeded Glorot init with the configured optimizer.

    Standardized inputs are strongly recommended. Training stops at
    max_iterations or after 10 consecutive steps that each move the loss
    by less than cfg.tolerance, up or down; the returned MinimizeResult
    carries the loss trace and stop status. Overflow while training is not
    a warning: a non-finite loss at the start, or after an sgd or Adam
    step, raises NonFiniteObjective. A shape whose parameters or Workspace
    cannot be allocated raises InputError.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    act = ActivationKind(cfg.activation)
    n, d = xs.shape
    shapes = MlpParams.shapes(cfg, d)
    try:
        theta0 = init_params(cfg, d).flatten()
        work = Workspace.allocate(shapes, n)
    except MemoryError:
        raise InputError(
            f"an MLP with {cfg.hidden_layers} hidden layers of "
            f"{cfg.neurons_per_layer} neurons on a {n} x {d} design does not "
            "fit in memory"
        ) from None

    def eval_flat(theta: np.ndarray) -> tuple[float, np.ndarray]:
        grad = np.empty(theta.size)
        params = MlpParams.unflatten(theta, shapes)
        return loss_and_gradient(params, act, xs, ys, work, grad)[0], grad

    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.optimizer == "lbfgs":
            result = lbfgs_minimize(
                eval_flat,
                theta0,
                max_iterations=cfg.max_iterations,
                tolerance=cfg.tolerance,
            )
        else:
            descend = sgd_minimize if cfg.optimizer == "sgd" else adam_minimize
            result = descend(
                eval_flat,
                theta0,
                learning_rate=cfg.learning_rate,
                iterations=cfg.max_iterations,
                tolerance=cfg.tolerance,
            )
    return MlpParams.unflatten(result.theta, shapes), result
