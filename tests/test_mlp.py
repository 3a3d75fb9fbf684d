import tracemalloc

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
from epicast.errors import DimensionMismatch, InputError, NonFiniteObjective
from epicast.mlp import Workspace
from epicast.optimizers import (
    lbfgs_minimize,
    sgd_minimize,
)
from epicast.preprocess import column_product


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


def fixed_order_product(a, b):
    """a @ b.T as the sum over the columns in order, written out."""
    out = a[:, :1] * b[:, 0]
    for col in range(1, a.shape[1]):
        out = out + a[:, col:col + 1] * b[:, col]
    return out


def reference_activation(kind, b):
    """(f(b), f'(b)) in the pre-activation b, each in a fresh array."""
    if kind == "tanh":
        t = np.tanh(b)
        return t, 1.0 - t * t
    if kind == "relu":
        return np.maximum(0.0, b), (b > 0.0).astype(float)
    s = np.empty_like(b)
    pos = b >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-b[pos]))
    eb = np.exp(b[~pos])
    s[~pos] = eb / (1.0 + eb)
    return s, s * (1.0 - s)


def reference_objective(params, kind, x, y):
    """Batch MSE and gradient, feature-major (each layer's activations one
    row per unit, one column per sample) with every intermediate in a fresh
    array: pre-activations kept, f' taken of them, every product by matmul
    except the input layer's on more than one feature, which is the
    fixed-order sum. The reference that loss_and_gradient is checked
    against byte for byte."""
    n = x.shape[0]
    h, pre, post = x.T, [], [x.T]
    for layer, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        product = fixed_order_product(w, x) if layer == 0 and x.shape[1] > 1 else w @ h
        z = product + b[:, None]
        h = reference_activation(kind, z)[0]
        pre.append(z)
        post.append(h)
    resid = (params.weights[-1] @ h + params.biases[-1])[0] - y
    loss = float(resid @ resid) / n
    delta = (2.0 / n) * resid[None, :]
    g_w = [delta @ post[-1].T]
    g_b = [delta.sum(axis=1)]
    for layer in range(len(params.weights) - 2, -1, -1):
        delta = (params.weights[layer + 1].T @ delta) * reference_activation(kind, pre[layer])[1]
        g_w.insert(0, delta @ post[layer].T)
        g_b.insert(0, delta.sum(axis=1))
    return loss, MlpParams(weights=tuple(g_w), biases=tuple(g_b))


def two_buffer_objective(params, kind, x, y):
    """Batch MSE and gradient as loss_and_gradient computed them with two
    backprop buffers: each step forms W' delta into the free one and f'
    into the other, whose delta that product has just consumed, and the
    activations stay untouched. Gradients go into arrays of their own."""
    act = ActivationKind(kind)
    n = x.shape[0]
    post = []
    for layer, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        z = column_product(w, x) if layer == 0 else np.matmul(w, post[-1])
        z += b[:, None]
        post.append(act.f(z, out=z))
    out = np.matmul(params.weights[-1], post[-1])
    out += params.biases[-1]
    resid = out[0] - y
    loss = float(resid @ resid) / n
    last = len(params.weights) - 1
    g_w, g_b = [None] * (last + 1), [None] * (last + 1)
    inputs = (x.T, *post)
    delta = np.multiply(2.0 / n, resid, out=np.empty((1, n)))
    free, scratch = np.empty_like(post[0]), np.empty_like(post[0])
    for layer in range(last, -1, -1):
        g_w[layer] = delta @ inputs[layer].T
        g_b[layer] = delta.sum(axis=1)
        if layer == 0:
            break
        if layer == last:
            column_product(params.weights[layer].T, delta.T, out=free)
        else:
            np.matmul(params.weights[layer].T, delta, out=free)
        free *= act.f_prime(inputs[layer], out=scratch)
        delta, free, scratch = free, scratch, free
    return loss, MlpParams(weights=tuple(g_w), biases=tuple(g_b))


def row_major_objective(params, kind, x, y):
    """The same objective sample-major (one row per sample), the textbook
    layout: loss_and_gradient must match it up to rounding."""
    n = x.shape[0]
    h, pre, post = x, [], [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        h = reference_activation(kind, z)[0]
        pre.append(z)
        post.append(h)
    resid = (h @ params.weights[-1].T + params.biases[-1])[:, 0] - y
    loss = float(resid @ resid) / n
    delta = (2.0 / n) * resid[:, None]
    g_w = [delta.T @ post[-1]]
    g_b = [delta.sum(axis=0)]
    for layer in range(len(params.weights) - 2, -1, -1):
        delta = (delta @ params.weights[layer + 1]) * reference_activation(kind, pre[layer])[1]
        g_w.insert(0, delta.T @ post[layer])
        g_b.insert(0, delta.sum(axis=0))
    return loss, MlpParams(weights=tuple(g_w), biases=tuple(g_b))


def assert_matches_row_major(loss, grad, params, kind, x, y):
    """loss and the whole gradient within 1e-12 relative of the
    sample-major formula. The gradient is compared as one vector: an array
    that is zero but for rounding, such as the biases of an odd network on
    a symmetric odd target, has no relative error of its own."""
    want_loss, want = row_major_objective(params, kind, x, y)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert relative_error(grad.flatten(), want.flatten()) <= 1e-12


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown activation 'bogus'"):
            ActivationKind("bogus")

    @pytest.mark.parametrize("kind", ["tanh", "relu", "logistic"])
    def test_derivative_matches_finite_difference(self, kind, rng):
        act = ActivationKind(kind)
        # keep away from relu's kink at zero
        b = rng.normal(size=200)
        b = b[np.abs(b) > 1e-3]
        h = 1e-7
        fd = (act.f(b + h) - act.f(b - h)) / (2.0 * h)
        assert act.f_prime(act.f(b)) == pytest.approx(fd, abs=1e-5)

    def test_tanh_derivative_is_one_minus_h_times_h_bit_for_bit(self, rng):
        # f_prime squares h with np.square; every bit must match 1 - h*h
        act = ActivationKind("tanh")
        h = act.f(rng.normal(scale=3.0, size=(16, 400)))
        out = np.empty_like(h)
        assert act.f_prime(h, out=out) is out
        assert out.tobytes() == (1.0 - h * h).tobytes()


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

    def test_no_features_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least one feature"):
            init_params(MlpConfig(hidden_layers=1, neurons_per_layer=2), 0)

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
        with pytest.raises(DimensionMismatch, match="x has 3 rows but y has 4 values"):
            loss_and_gradient(p, ActivationKind("tanh"), np.zeros((3, 1)), np.zeros(4))

    @pytest.mark.parametrize("kind", ["tanh", "relu", "logistic"])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_equals_reference_byte_for_byte(self, kind, layers, width, rng):
        cfg = MlpConfig(hidden_layers=layers, neurons_per_layer=7, seed=layers)
        p = init_params(cfg, width)
        p = MlpParams.unflatten(
            p.flatten() + 0.1 * rng.normal(size=p.flatten().size),
            MlpParams.shapes(cfg, width),
        )
        x = rng.normal(size=(40, width))
        y = rng.normal(size=40)
        loss, grad = loss_and_gradient(p, ActivationKind(kind), x, y)
        for reference in (reference_objective, two_buffer_objective):
            ref_loss, ref_grad = reference(p, kind, x, y)
            assert loss == ref_loss
            for got, want in zip(
                grad.weights + grad.biases, ref_grad.weights + ref_grad.biases
            ):
                assert same_bytes(got, want)
        assert_matches_row_major(loss, grad, p, kind, x, y)

    def test_equals_reference_at_grid_size(self):
        # the 5200-day grid's shape: 4160 rows, BLAS-sized hidden products
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=16, seed=0)
        p = init_params(cfg, 1)
        x = np.linspace(-1.7, 1.7, 4160)[:, None]
        y = np.tanh(3.0 * x[:, 0])
        for kind in ("tanh", "relu"):
            loss, grad = loss_and_gradient(p, ActivationKind(kind), x, y)
            for reference in (reference_objective, two_buffer_objective):
                ref_loss, ref_grad = reference(p, kind, x, y)
                assert loss == ref_loss
                assert same_bytes(grad.flatten(), ref_grad.flatten())
            assert_matches_row_major(loss, grad, p, kind, x, y)

    def test_gradient_is_written_into_out(self, rng):
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=4, seed=2)
        p = init_params(cfg, 1)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        out = np.full(p.flatten().size, np.nan)
        loss, grad = loss_and_gradient(p, ActivationKind("logistic"), x, y, out=out)
        want_loss, want = loss_and_gradient(p, ActivationKind("logistic"), x, y)
        assert loss == want_loss
        assert same_bytes(out, want.flatten())
        assert all(np.shares_memory(a, out) for a in grad.weights + grad.biases)
        with pytest.raises(DimensionMismatch):
            loss_and_gradient(p, ActivationKind("logistic"), x, y, out=out[:-1])

    def test_workspace_reuse_leaves_earlier_results_alone(self, rng):
        cfg = MlpConfig(hidden_layers=3, neurons_per_layer=6, seed=4)
        shapes = MlpParams.shapes(cfg, 2)
        p = init_params(cfg, 2)
        act = ActivationKind("tanh")
        x = rng.normal(size=(30, 2))
        work = Workspace.allocate(shapes, 30)
        loss1, grad1 = loss_and_gradient(p, act, x, rng.normal(size=30), work)
        kept = [a.copy() for a in grad1.weights + grad1.biases]
        other = MlpParams.unflatten(p.flatten() + 0.5, shapes)
        loss2, grad2 = loss_and_gradient(other, act, x, rng.normal(size=30), work)
        assert loss1 != loss2
        buffers = [*work.post, work.back, work.out]
        for got, want in zip(grad1.weights + grad1.biases, kept):
            assert same_bytes(got, want)
            assert not any(np.shares_memory(got, buf) for buf in buffers)

    def test_non_finite_loss_comes_back_as_computed(self):
        # the optimizers, not the objective, decide what an inf loss means
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
        p = init_params(cfg, 1)
        huge = np.full(4, 1e200)
        with np.errstate(over="ignore"):
            loss, _ = loss_and_gradient(
                p, ActivationKind("tanh"), np.zeros((4, 1)), huge
            )
        assert loss == np.inf


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

    @pytest.mark.parametrize("optimizer", ["lbfgs", "sgd"])
    def test_fit_equals_one_driven_by_the_reference(self, optimizer):
        x = np.linspace(-1.0, 1.0, 50)[:, None]
        y = np.sin(3.0 * x[:, 0])
        cfg = MlpConfig(
            hidden_layers=2, neurons_per_layer=6, optimizer=optimizer,
            max_iterations=60, seed=5, learning_rate=0.05, tolerance=0.0,
        )
        shapes = MlpParams.shapes(cfg, 1)

        def reference_flat(theta):
            loss, grad = reference_objective(
                MlpParams.unflatten(theta, shapes), cfg.activation, x, y
            )
            return loss, grad.flatten()

        theta0 = init_params(cfg, 1).flatten()
        with np.errstate(over="ignore", invalid="ignore"):
            if optimizer == "lbfgs":
                want = lbfgs_minimize(
                    reference_flat, theta0, max_iterations=60, tolerance=0.0
                )
            else:
                want = sgd_minimize(reference_flat, theta0, 0.05, 60, tolerance=0.0)
        params, got = train_mlp(cfg, x, y)
        assert got.iterations == want.iterations > 0
        assert got.trace == want.trace
        assert same_bytes(params.flatten(), want.theta)

    @pytest.mark.parametrize("optimizer", ["lbfgs", "sgd"])
    def test_overflowing_start_raises_non_finite_objective(self, optimizer):
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2, optimizer=optimizer)
        x = np.linspace(-1.0, 1.0, 4)[:, None]
        with pytest.raises(NonFiniteObjective, match="starting point"):
            train_mlp(cfg, x, np.full(4, 1e200))

    def test_shape_beyond_memory_is_an_input_error(self):
        # 1e14 neurons: the first weight matrix alone is 800 TB, more than
        # any address space, so the allocation fails at once
        cfg = MlpConfig(hidden_layers=1, neurons_per_layer=10**14)
        with pytest.raises(InputError, match="1 hidden layers of 100000000000000 neurons"):
            train_mlp(cfg, np.zeros((5, 1)), np.arange(5.0))

    def test_workspace_beyond_memory_is_an_input_error(self, monkeypatch):
        def refuse(shapes, n):
            raise MemoryError

        monkeypatch.setattr(Workspace, "allocate", staticmethod(refuse))
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=3)
        with pytest.raises(InputError, match="on a 5 x 1 design does not fit"):
            train_mlp(cfg, np.zeros((5, 1)), np.arange(5.0))

    def test_fit_holds_three_hidden_buffers(self):
        # Two hidden layers of 16 units on 4000 rows: the activations of
        # each, which backprop overwrites with its deltas, and one f'
        # scratch, 512 000 B apiece. Backprop through two scratch buffers
        # held a fourth; the rest of the peak is under a third of one.
        x = np.linspace(-1.0, 1.0, 4000)[:, None]
        y = np.sin(3.0 * x[:, 0])
        cfg = MlpConfig(hidden_layers=2, neurons_per_layer=16, max_iterations=3)
        train_mlp(cfg, x[:40], y[:40])  # lazy imports of a first fit stay out
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train_mlp(cfg, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = 16 * 4000 * 8
        assert 3 * buffer <= peak < 3.5 * buffer

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
