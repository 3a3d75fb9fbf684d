import numpy as np
import pytest

from epicast import (
    ActivationKind,
    MlpConfig,
    MlpParams,
    forward,
    init_params,
    loss_and_gradient,
    train_mlp,
)
from epicast.errors import DimensionMismatch, LengthMismatch, NonFiniteLoss


def flat_loss(params_shapes, act, x, y):
    """Loss as a function of the flattened parameter vector only."""

    def fn(theta):
        p = MlpParams.unflatten(theta, params_shapes)
        loss, _ = loss_and_gradient(p, act, x, y)
        return loss

    return fn


def central_difference(fn, theta, h=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        down = theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (fn(up) - fn(down)) / (2.0 * h)
    return g


def relative_error(a, b):
    return float(np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-30))


class TestActivations:
    def test_logistic_range_and_midpoint(self, rng):
        act = ActivationKind("logistic")
        b = rng.normal(scale=20.0, size=500)
        out = act.f(b)
        # saturates to exactly 0.0 / 1.0 in float64 for |b| ~ 40
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert np.all(np.isfinite(out))
        assert act.f(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_tanh_range(self, rng):
        act = ActivationKind("tanh")
        out = act.f(rng.normal(scale=20.0, size=500))
        assert np.all((out >= -1.0) & (out <= 1.0))

    def test_relu(self):
        act = ActivationKind("relu")
        assert act.f(np.array([-2.0, 0.0, 3.0])) == pytest.approx([0.0, 0.0, 3.0])

    @pytest.mark.parametrize("kind", ["tanh", "relu", "logistic"])
    def test_derivative_matches_finite_difference(self, kind, rng):
        act = ActivationKind(kind)
        # keep away from relu's kink at zero
        b = rng.normal(size=200)
        b = b[np.abs(b) > 1e-3]
        h = 1e-7
        fd = (act.f(b + h) - act.f(b - h)) / (2.0 * h)
        assert act.f_prime(b) == pytest.approx(fd, abs=1e-5)


class TestInitParams:
    def test_deep_default_shapes(self):
        cfg = MlpConfig(hidden_layers=100, neurons_per_layer=64)
        p = init_params(cfg, 1)
        assert len(p.weights) == 101
        assert p.weights[0].shape == (64, 1)
        assert all(w.shape == (64, 64) for w in p.weights[1:-1])
        assert len([w for w in p.weights[1:-1]]) == 99
        assert p.weights[-1].shape == (1, 64)

    def test_small_shapes(self):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        p = init_params(cfg, 3)
        assert [w.shape for w in p.weights] == [(2, 3), (1, 2)]
        assert [b.shape for b in p.biases] == [(2,), (1,)]

    def test_seed_determinism(self):
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=5, seed=42)
        a = init_params(cfg, 2)
        b = init_params(cfg, 2)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_different_seeds_differ(self):
        cfg_a = MlpConfig(hidden_layers=1, neurons_per_layer=4, seed=1)
        cfg_b = MlpConfig(hidden_layers=1, neurons_per_layer=4, seed=2)
        assert not np.array_equal(init_params(cfg_a, 1).weights[0], init_params(cfg_b, 1).weights[0])

    def test_glorot_bounds_and_zero_biases(self):
        cfg = MlpConfig(hidden_layers=3, neurons_per_layer=7, seed=0)
        p = init_params(cfg, 4)
        for w in p.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            assert np.all(np.abs(w) <= limit)
        for b in p.biases:
            assert np.all(b == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MlpConfig(hidden_layers=0)
        with pytest.raises(ValueError):
            MlpConfig(activation="sine")
        with pytest.raises(ValueError):
            MlpConfig(optimizer="newton")


class TestForward:
    def test_zero_network_outputs_zero(self, rng):
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=4)
        p = init_params(cfg, 3)
        zero = MlpParams(
            weights=tuple(np.zeros_like(w) for w in p.weights),
            biases=tuple(np.zeros_like(b) for b in p.biases),
        )
        out = forward(zero, ActivationKind("tanh"), rng.normal(size=(5, 3)))
        assert out.tolist() == [0.0] * 5

    def test_hand_computed_single_unit(self):
        p = MlpParams(
            weights=(np.array([[1.0]]), np.array([[1.0]])),
            biases=(np.array([0.0]), np.array([0.0])),
        )
        out = forward(p, ActivationKind("tanh"), np.array([0.5]))
        assert out.shape == (1,)
        assert out[0] == pytest.approx(np.tanh(0.5))
        assert out[0] == pytest.approx(0.46211715726000974)

    def test_batch_matches_single(self, rng):
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=5, seed=3)
        p = init_params(cfg, 2)
        act = ActivationKind("logistic")
        xs = rng.normal(size=(6, 2))
        batch = forward(p, act, xs)
        singles = [forward(p, act, row[None, :])[0] for row in xs]
        assert batch == pytest.approx(singles)

    def test_dimension_mismatch(self):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        p = init_params(cfg, 3)
        with pytest.raises(DimensionMismatch):
            forward(p, ActivationKind("tanh"), np.zeros(4))


class TestFlatten:
    def test_round_trip(self, rng):
        for _ in range(5):
            cfg = MlpConfig(
                hidden_layers=int(rng.integers(1, 4)),
                neurons_per_layer=int(rng.integers(1, 9)),
                seed=int(rng.integers(0, 1000)),
            )
            n_features = int(rng.integers(1, 4))
            p = init_params(cfg, n_features)
            theta = p.flatten()
            q = MlpParams.unflatten(theta, MlpParams.shapes(cfg, n_features))
            for a, b in zip(p.weights, q.weights):
                assert np.array_equal(a, b)
            for a, b in zip(p.biases, q.biases):
                assert np.array_equal(a, b)

    def test_layout_is_layer_major_weights_then_bias_row_major(self):
        p = MlpParams(
            weights=(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[7.0, 8.0]])),
            biases=(np.array([5.0, 6.0]), np.array([9.0])),
        )
        assert p.flatten().tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            MlpParams.unflatten(np.zeros(5), [(2, 2)])


class TestLossAndGradient:
    def test_perfect_fit_is_stationary(self, rng):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=4, seed=5)
        p = init_params(cfg, 1)
        act = ActivationKind("tanh")
        x = rng.normal(size=(20, 1))
        y = forward(p, act, x)  # targets generated by the network itself
        loss, grad = loss_and_gradient(p, act, x, y)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.linalg.norm(grad.flatten()) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["tanh", "relu", "logistic"])
    def test_gradient_matches_finite_differences(self, kind, rng):
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=5, seed=7)
        p = init_params(cfg, 2)
        act = ActivationKind(kind)
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        _, grad = loss_and_gradient(p, act, x, y)
        shapes = MlpParams.shapes(cfg, 2)
        fd = central_difference(flat_loss(shapes, act, x, y), p.flatten())
        assert relative_error(grad.flatten(), fd) < 1e-5

    def test_doubling_targets_doubles_output_bias_gradient(self, rng):
        # with zero weights the prediction is 0, so the output-bias
        # gradient -(2/n) sum(y) is exactly linear in the targets
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=3)
        p = init_params(cfg, 1)
        zero = MlpParams(
            weights=tuple(np.zeros_like(w) for w in p.weights),
            biases=tuple(np.zeros_like(b) for b in p.biases),
        )
        act = ActivationKind("tanh")
        x = rng.normal(size=(12, 1))
        y = rng.normal(size=12)
        _, g1 = loss_and_gradient(zero, act, x, y)
        _, g2 = loss_and_gradient(zero, act, x, 2.0 * y)
        assert g2.biases[-1] == pytest.approx(2.0 * g1.biases[-1])

    def test_length_mismatch(self):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        p = init_params(cfg, 1)
        with pytest.raises(LengthMismatch):
            loss_and_gradient(p, ActivationKind("tanh"), np.zeros((3, 1)), np.zeros(4))

    def test_non_finite_loss_raises(self):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        p = init_params(cfg, 1)
        huge = np.full(4, 1e200)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteLoss):
                loss_and_gradient(
                    p, ActivationKind("tanh"), np.zeros((4, 1)), huge
                )


class TestTrainMlp:
    def test_sine_toy_convergence(self):
        x = np.linspace(-1.0, 1.0, 40)[:, None]
        y = np.sin(3.0 * x[:, 0])
        cfg = MlpConfig(
            hidden_layers=1, neurons_per_layer=8, optimizer="lbfgs",
            max_iterations=500, seed=0,
        )
        params, result = train_mlp(cfg, x, y)
        assert result.trace[-1] < 0.01

    def test_lbfgs_trace_non_increasing(self):
        x = np.linspace(-1.0, 1.0, 30)[:, None]
        y = x[:, 0] ** 2
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=6, max_iterations=200, seed=1)
        _, result = train_mlp(cfg, x, y)
        assert np.all(np.diff(result.trace) <= 1e-12)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_first_order_determinism_bitwise(self, optimizer):
        x = np.linspace(-1.0, 1.0, 25)[:, None]
        y = np.cos(2.0 * x[:, 0])
        cfg = MlpConfig(
            hidden_layers=1, neurons_per_layer=5, optimizer=optimizer,
            max_iterations=200, seed=3, learning_rate=1e-2,
        )
        p1, r1 = train_mlp(cfg, x, y)
        p2, r2 = train_mlp(cfg, x, y)
        assert r1.trace == r2.trace
        for a, b in zip(p1.weights, p2.weights):
            assert np.array_equal(a, b)

    def test_lbfgs_trace_determinism(self):
        x = np.linspace(-1.0, 1.0, 25)[:, None]
        y = np.cos(2.0 * x[:, 0])
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=5, max_iterations=100, seed=3)
        _, r1 = train_mlp(cfg, x, y)
        _, r2 = train_mlp(cfg, x, y)
        assert r1.trace == r2.trace

    def test_needs_two_rows(self):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        with pytest.raises(DimensionMismatch):
            train_mlp(cfg, np.zeros((1, 1)), np.zeros(1))

    def test_adam_trains(self):
        x = np.linspace(-1.0, 1.0, 30)[:, None]
        y = 0.5 * x[:, 0]
        cfg = MlpConfig(
            hidden_layers=1, neurons_per_layer=4, optimizer="adam",
            max_iterations=2000, seed=2, learning_rate=1e-2,
        )
        _, result = train_mlp(cfg, x, y)
        assert result.trace[-1] < 0.1 * result.trace[0]
