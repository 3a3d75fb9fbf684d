"""Feed-forward MLP regressor trained by L-BFGS, gradient descent or Adam.

The network is a stack of identically sized hidden layers with a single
linear output unit (identity head, since case counts are unbounded).
Gradients come from reverse-mode backpropagation of the batch MSE.
Parameters flatten to one vector in layer-major order, weights before
bias, weight matrices row-major; the optimizers and the on-disk model
format both rely on that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss
from .optimizers import (
    FunctionObjective,
    LbfgsConfig,
    MinimizeResult,
    adam_minimize,
    lbfgs_minimize,
    sgd_minimize,
)
from .preprocess import as_design, as_xy

ACTIVATIONS = ("tanh", "relu", "logistic")
OPTIMIZERS = ("lbfgs", "sgd", "adam")


@dataclass(frozen=True)
class ActivationKind:
    """A hidden-unit nonlinearity and its derivative in pre-activation b."""

    kind: str

    def f(self, b: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            return np.tanh(b)
        if self.kind == "relu":
            return np.maximum(0.0, b)
        if self.kind == "logistic":
            out = np.empty_like(b, dtype=float)
            pos = b >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-b[pos]))
            eb = np.exp(b[~pos])
            out[~pos] = eb / (1.0 + eb)
            return out
        raise ValueError(f"unknown activation {self.kind!r}")

    def f_prime(self, b: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            t = np.tanh(b)
            return 1.0 - t * t
        if self.kind == "relu":
            return (b > 0.0).astype(float)
        if self.kind == "logistic":
            s = self.f(b)
            return s * (1.0 - s)
        raise ValueError(f"unknown activation {self.kind!r}")


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: int = 100
    neurons_per_layer: int = 64
    activation: str = "tanh"
    optimizer: str = "lbfgs"
    max_iterations: int = 1000
    seed: int = 0
    tolerance: float = 1e-6  # loss-improvement early stop, 10-step patience
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
        chunks: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            chunks.append(w.ravel())
            chunks.append(b.ravel())
        return np.concatenate(chunks)

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
            biases.append(theta[pos : pos + rows].copy())
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


def _forward_batch(
    params: MlpParams, act: ActivationKind, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Returns (predictions, pre-activations per layer, activations per layer)."""
    if x.shape[1] != params.n_features:
        raise DimensionMismatch(
            f"x has {x.shape[1]} features, first layer expects {params.n_features}"
        )
    h = x
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        h = act.f(z)
        pre.append(z)
        post.append(h)
    out = h @ params.weights[-1].T + params.biases[-1]
    return out[:, 0], pre, post


def forward(params: MlpParams, act: ActivationKind, x: np.ndarray) -> np.ndarray:
    """Network output, one value per row of ``as_design(x)``."""
    yhat, _, _ = _forward_batch(params, act, as_design(x))
    return yhat


def loss_and_gradient(
    params: MlpParams, act: ActivationKind, x: np.ndarray, y: np.ndarray
) -> tuple[float, MlpParams]:
    """Batch MSE and its gradient via backpropagation.

    The gradient comes back in parameter shape: a MlpParams whose entries
    are d(loss)/d(entry).
    """
    xs, ys = as_xy(x, y)
    n = xs.shape[0]
    yhat, pre, post = _forward_batch(params, act, xs)
    resid = yhat - ys
    loss = float(resid @ resid) / n
    if not np.isfinite(loss):
        raise NonFiniteLoss("batch loss is not finite")

    # delta holds d(loss)/d(pre-activation) for the layer being processed.
    delta = (2.0 / n) * resid[:, None]
    g_w = [np.empty(0)] * len(params.weights)
    g_b = [np.empty(0)] * len(params.biases)
    g_w[-1] = delta.T @ post[-1]
    g_b[-1] = delta.sum(axis=0)
    for layer in range(len(params.weights) - 2, -1, -1):
        delta = (delta @ params.weights[layer + 1]) * act.f_prime(pre[layer])
        g_w[layer] = delta.T @ post[layer]
        g_b[layer] = delta.sum(axis=0)
    return loss, MlpParams(weights=tuple(g_w), biases=tuple(g_b))


def train_mlp(
    cfg: MlpConfig, x: np.ndarray, y: np.ndarray
) -> tuple[MlpParams, MinimizeResult]:
    """Fit from a seeded Glorot init with the configured optimizer.

    Standardized inputs are strongly recommended. Training stops at
    max_iterations or when the loss improves by less than cfg.tolerance
    over 10 consecutive steps; the returned MinimizeResult carries the
    loss trace and stop status. Overflow while training is not a warning:
    a non-finite loss raises NonFiniteLoss or NonFiniteObjective.
    """
    xs, ys = as_xy(x, y, min_rows=2)
    act = ActivationKind(cfg.activation)
    shapes = MlpParams.shapes(cfg, xs.shape[1])
    theta0 = init_params(cfg, xs.shape[1]).flatten()

    def eval_flat(theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = loss_and_gradient(MlpParams.unflatten(theta, shapes), act, xs, ys)
        return loss, grad.flatten()

    obj = FunctionObjective(dim=theta0.size, fn=eval_flat)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.optimizer == "lbfgs":
            result = lbfgs_minimize(
                obj,
                theta0,
                LbfgsConfig(max_iterations=cfg.max_iterations),
                tolerance=cfg.tolerance,
            )
        elif cfg.optimizer == "sgd":
            result = sgd_minimize(
                obj,
                theta0,
                learning_rate=cfg.learning_rate,
                iterations=cfg.max_iterations,
                tolerance=cfg.tolerance,
            )
        else:
            result = adam_minimize(
                obj,
                theta0,
                learning_rate=cfg.learning_rate,
                iterations=cfg.max_iterations,
                tolerance=cfg.tolerance,
            )
    return MlpParams.unflatten(result.theta, shapes), result
