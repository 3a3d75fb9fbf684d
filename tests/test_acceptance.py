"""Acceptance suite: ten numbered criteria, one test (one pass/fail line) each.

Each test is self-contained: it builds what it checks, uses independent
oracles where the claim is numeric, and enforces the runtime budget of the
criterion where one applies.
"""

import json
import time
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np
import pytest

from epicast import (
    ActivationKind,
    KernelSpec,
    LbfgsConfig,
    LinRegConfig,
    MlpConfig,
    MlpParams,
    SplitSpec,
    SvrConfig,
    build_supervised,
    evaluate,
    fit_scaler,
    forward,
    gram_matrix,
    init_params,
    inverse_transform,
    lbfgs_minimize,
    linreg_fit,
    load_model,
    loss_and_gradient,
    model_from_dict,
    model_to_dict,
    mse,
    ols_closed_form,
    predict_scaled,
    r2_score,
    replay_manifest,
    run_grid,
    save_model,
    standardized_split,
    svr_fit,
    train_on_split,
    transform,
)
from epicast.cli import main
from epicast.models import TrainedModel
from epicast.preprocess import ScalerParams
from oracles import dual_objective, qp_oracle


def _min_preactivation(params, act, x):
    """Smallest |pre-activation| across hidden layers, by direct recursion."""
    h = np.asarray(x, dtype=float)
    gap = np.inf
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        gap = min(gap, float(np.min(np.abs(z))))
        h = act.f(z)
    return gap


def test_criterion_01_backprop_matches_finite_differences():
    """>= 20 random configs (<= 3 layers, <= 8 neurons, every activation):
    relative gradient error < 1e-4, under 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for trial in range(24):
        activation = ("tanh", "relu", "logistic")[trial % 3]
        cfg = MlpConfig(
            hidden_layers=int(rng.integers(1, 4)),
            neurons_per_layer=int(rng.integers(1, 9)),
            activation=activation,
            seed=int(rng.integers(0, 10_000)),
        )
        n_features = int(rng.integers(1, 4))
        params = init_params(cfg, n_features)
        act = ActivationKind(activation)
        x = rng.normal(size=(8, n_features))
        y = rng.normal(size=8)
        if activation == "relu":
            # central differences are invalid across the relu kink; keep
            # every pre-activation well clear of it
            for _ in range(50):
                if _min_preactivation(params, act, x) > 1e-4:
                    break
                x = rng.normal(size=(8, n_features))
            assert _min_preactivation(params, act, x) > 1e-4
        _, grad = loss_and_gradient(params, act, x, y)
        analytic = grad.flatten()

        shapes = MlpParams.shapes(cfg, n_features)
        theta = params.flatten()
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            loss_up, _ = loss_and_gradient(MlpParams.unflatten(up, shapes), act, x, y)
            loss_down, _ = loss_and_gradient(MlpParams.unflatten(down, shapes), act, x, y)
            fd[i] = (loss_up - loss_down) / (2.0 * h)

        rel = np.linalg.norm(analytic - fd) / (
            np.linalg.norm(analytic) + np.linalg.norm(fd) + 1e-30
        )
        assert rel < 1e-4, f"config {trial}: relative gradient error {rel:.3e}"
        checked += 1
    assert checked >= 20
    assert time.perf_counter() - started < 30.0


def test_criterion_02_lbfgs_quadratics_and_rosenbrock():
    """Random convex quadratics (dim <= 20) to ||grad||_inf < 1e-8 within 50
    iterations; Rosenbrock from (-1.2, 1) to (1, 1) within 1e-6; under 5 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    cfg = LbfgsConfig(max_iterations=50, grad_tolerance=1e-8)
    for _ in range(10):
        dim = int(rng.integers(2, 21))
        root = rng.normal(size=(dim, dim))
        # 1/dim keeps the spectrum O(1) regardless of dimension, so the
        # iteration budget tests convergence rate rather than conditioning
        a = root.T @ root / dim + 0.5 * np.eye(dim)
        target = rng.normal(size=dim)

        # minimum pinned at f = 0 so Wolfe decreases near the solution stay
        # representable in float64; with an O(1) offset the line search hits
        # the rounding floor of f before the gradient reaches 1e-8
        def quad(theta, a=a, target=target):
            delta = theta - target
            return 0.5 * delta @ (a @ delta), a @ delta

        result = lbfgs_minimize(quad, rng.normal(size=dim), cfg)
        assert result.iterations <= 50
        assert result.grad_norm < 1e-8, f"dim {dim}: grad {result.grad_norm:.3e}"
        assert np.max(np.abs(result.theta - target)) < 1e-6

    def rosenbrock(theta):
        x, y = theta
        f = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
        g = np.array(
            [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]
        )
        return f, g

    result = lbfgs_minimize(
        rosenbrock,
        np.array([-1.2, 1.0]),
        LbfgsConfig(max_iterations=200, grad_tolerance=1e-12),
    )
    assert np.max(np.abs(result.theta - 1.0)) < 1e-6
    assert time.perf_counter() - started < 5.0


def test_criterion_03_gradient_descent_matches_closed_form():
    """GD (standardized data, lr 0.1, 10k iterations) within 1e-6 of the
    normal-equations solution on 20 random instances; under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    cfg = LinRegConfig(learning_rate=0.1, iterations=10_000)
    for _ in range(20):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(1, 5))
        raw = rng.normal(loc=rng.normal(scale=5.0), scale=rng.uniform(0.5, 3.0), size=(n, d))
        x = transform(raw, fit_scaler(raw))
        y = x @ rng.normal(size=d) + rng.normal() + 0.05 * rng.normal(size=n)
        descended = linreg_fit(x, y, cfg)
        closed = ols_closed_form(x, y)
        assert np.max(np.abs(descended.slope - closed.slope)) < 1e-6
        assert abs(descended.intercept - closed.intercept) < 1e-6
    assert time.perf_counter() - started < 10.0


def test_criterion_04_svr_dual_matches_oracle_with_kkt():
    """Dual objective within 1e-4 of the exhaustive oracle on 50 instances
    (n <= 4); box/complementarity within 1e-8 on converged fits; under 60 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    kernels = [
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf"),
        KernelSpec(kind="poly", degree=2),
        KernelSpec(kind="poly", degree=3),
    ]
    converged_count = 0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        x = rng.normal(size=(n, int(rng.integers(1, 3))))
        y = rng.normal(size=n)
        cfg = SvrConfig(
            kernel=kernels[trial % len(kernels)],
            c=float(rng.uniform(0.5, 2.0)),
            epsilon=float(rng.uniform(0.02, 0.3)),
            tolerance=1e-8,
        )
        params = svr_fit(x, y, cfg)

        # the dual value must match the oracle on every instance, converged
        # or not
        k = gram_matrix(params.kernel, x, x)
        achieved = dual_objective(k, y, params.alphas, cfg.epsilon)
        best = qp_oracle(x, y, cfg)
        assert abs(achieved - best) < 1e-4, (
            f"instance {trial}: solver {achieved:.8f} vs oracle {best:.8f}"
        )

        # complementarity is promised for converged fits; with large-entry
        # Gram matrices a fit may stall at the float64 floor (violation
        # around 1e-8) and report converged=False, which stays flagged here
        if not params.converged:
            continue
        converged_count += 1

        beta = params.alphas
        resid = k @ beta + params.bias - y
        assert abs(float(np.sum(beta))) < 1e-8
        assert float(np.max(np.abs(beta))) <= cfg.c + 1e-8
        for i in range(n):
            if abs(beta[i]) <= 1e-12:  # inside or on the tube
                assert abs(resid[i]) <= cfg.epsilon + 1e-8
            elif beta[i] >= cfg.c - 1e-12:  # at the upper box bound
                assert resid[i] <= -cfg.epsilon + 1e-8
            elif beta[i] <= -cfg.c + 1e-12:  # at the lower box bound
                assert resid[i] >= cfg.epsilon - 1e-8
            elif beta[i] > 0.0:  # interior: pinned to the tube edge
                assert abs(resid[i] + cfg.epsilon) <= 1e-8
            else:
                assert abs(resid[i] - cfg.epsilon) <= 1e-8
    assert converged_count >= 45, f"only {converged_count}/50 fits converged"
    assert time.perf_counter() - started < 60.0


def test_criterion_05_metric_identities(series):
    """r2 = 1 perfect, 0 mean predictor, 0.5 on the pinned hand case;
    mse hand case 2.5; scaled and original R2 agree within 1e-9."""
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, y) == pytest.approx(1.0)
    assert r2_score(y, np.full(3, y.mean())) == pytest.approx(0.0)
    assert r2_score(y, np.array([1.0, 2.0, 4.0])) == pytest.approx(0.5)
    assert mse(np.array([0.0, 0.0]), np.array([1.0, 2.0])) == pytest.approx(2.5)

    data = build_supervised(series, ("day_index",), "confirmed")
    std = standardized_split(
        data, SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
    )
    for family, config in (
        ("linreg", LinRegConfig()),
        ("svr", SvrConfig()),
        ("mlp", MlpConfig(hidden_layers=2, neurons_per_layer=16, max_iterations=200)),
    ):
        model, scaled = train_on_split(family, config, std, ("day_index",), "confirmed")
        pred_original = inverse_transform(
            predict_scaled(model, std.test.x), model.y_scaler
        )
        true_original = inverse_transform(std.test.y, model.y_scaler)
        original = evaluate(true_original, pred_original, space="original")
        assert abs(scaled.r2 - original.r2) < 1e-9, family


def test_criterion_06_grid_reproduces_family_ordering(series, chrono_split):
    """Synthetic 520-day chronological 80/20 grid: best MLP cell in
    [0.85, 1.0], strictly above best linreg; MLP > SVR > linreg; under 5 min."""
    started = time.perf_counter()
    table = run_grid(series, chrono_split)

    def best(family):
        scores = [
            c.r2
            for c in table.family_cells(family)
            if c.target == "confirmed" and not c.flagged
        ]
        assert scores, f"no unflagged {family} cells"
        return max(scores)

    best_mlp, best_svr, best_linreg = best("mlp"), best("svr"), best("linreg")
    assert 0.85 <= best_mlp <= 1.0, f"best MLP cell {best_mlp:.4f}"
    assert best_mlp > best_linreg
    assert best_mlp > best_svr > best_linreg, (
        f"ordering violated: mlp {best_mlp:.4f}, svr {best_svr:.4f}, "
        f"linreg {best_linreg:.4f}"
    )
    assert time.perf_counter() - started < 300.0


def test_criterion_07_deep_config_runs_and_serializes(tmp_path):
    """The 100x64 tanh network builds, does one finite forward/backward
    pass, and survives a lossless save/load; under 60 s."""
    started = time.perf_counter()
    cfg = MlpConfig(hidden_layers=100, neurons_per_layer=64, activation="tanh")
    params = init_params(cfg, 1)
    assert len(params.weights) == 101

    act = ActivationKind("tanh")
    x = np.linspace(-1.0, 1.0, 20)[:, None]
    y = np.sin(2.0 * x[:, 0])
    out = forward(params, act, x)
    assert np.all(np.isfinite(out))
    loss, grad = loss_and_gradient(params, act, x, y)
    assert np.isfinite(loss)
    for w, b in zip(grad.weights, grad.biases):
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))

    model = TrainedModel(
        family="mlp",
        config=cfg,
        params=params,
        x_scaler=ScalerParams(mean=np.zeros(1), scale=np.ones(1)),
        y_scaler=ScalerParams(mean=np.zeros(1), scale=np.ones(1)),
        feature_names=("day_index",),
        target_name="confirmed",
        train_meta={"status": "untrained", "converged": True},
    )
    path = tmp_path / "deep.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    for a, b in zip(model.params.weights, loaded.params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(model.params.biases, loaded.params.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(forward(loaded.params, act, x), out)
    assert time.perf_counter() - started < 60.0


def test_criterion_08_forecast_contract_and_replay(series_csv_path, tmp_path):
    """A 30-day forecast holds exactly 30 nonnegative integers with attained
    min/max, and replays byte-identically (timestamps aside) from its manifest."""
    out = tmp_path / "run"
    assert main([
        "train", str(series_csv_path), "--model", "linreg", "--out-dir", str(out),
    ]) == 0
    assert main([
        "forecast", str(out / "model_linreg_confirmed.json"),
        "--csv", str(series_csv_path), "--horizon", "30", "--out-dir", str(out),
    ]) == 0
    doc = json.loads((out / "forecast.json").read_text())

    values = [p["predicted"] for p in doc["predictions"]]
    assert len(values) == 30
    assert all(isinstance(v, int) and v >= 0 for v in values)
    assert doc["range_min"] == min(values)
    assert doc["range_max"] == max(values)
    assert doc["range_min"] in values and doc["range_max"] in values

    replay_dir = tmp_path / "replay"
    assert replay_manifest(doc["manifest"], str(replay_dir)) == 0
    replayed = json.loads((replay_dir / "forecast.json").read_text())
    strip = lambda d: {k: v for k, v in d.items() if k != "manifest"}
    assert strip(replayed) == strip(doc)


def test_criterion_09_grid_command_determinism(series_csv_path, tmp_path):
    """Two cmd_grid runs with a fixed seed produce identical score tables."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main([
            "grid", str(series_csv_path), "--seed", "0", "--out-dir", str(out),
        ]) == 0
    doc_a = json.loads((out_a / "scoretable.json").read_text())
    doc_b = json.loads((out_b / "scoretable.json").read_text())
    assert doc_a["cells"] == doc_b["cells"]  # bitwise: identical JSON numbers
    assert doc_a["metadata"] == doc_b["metadata"]
    assert (out_a / "scoretable.csv").read_bytes() == (
        out_b / "scoretable.csv"
    ).read_bytes()


def test_criterion_10_stats_match_brute_force_oracle(tmp_path):
    """cmd_stats agrees with an independent pure-python describe oracle to
    1e-9 on 100 random fixtures (sample std, interpolated quartiles)."""

    def oracle(values):
        n = len(values)
        if n == 0:
            return {"count": 0, "mean": None, "std": None, "min": None,
                    "25%": None, "50%": None, "75%": None, "max": None}
        ordered = sorted(values)
        mean = sum(ordered) / n
        std = (
            (sum((v - mean) ** 2 for v in ordered) / (n - 1)) ** 0.5
            if n > 1
            else None
        )

        def quantile(q):
            pos = q * (n - 1)
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            frac = pos - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

        return {
            "count": n, "mean": mean, "std": std, "min": ordered[0],
            "25%": quantile(0.25), "50%": quantile(0.5), "75%": quantile(0.75),
            "max": ordered[-1],
        }

    rng = np.random.default_rng(1010)
    columns = ("tests", "confirmed", "deaths")
    for trial in range(100):
        n = int(rng.integers(1, 41))
        cells = {
            col: [
                int(rng.integers(0, 1000)) if rng.random() < 0.9 else None
                for _ in range(n)
            ]
            for col in columns
        }
        lines = ["date,tests,confirmed,deaths"]
        for i in range(n):
            row = [(Date(2021, 1, 1) + timedelta(days=i)).isoformat()]
            row += ["" if cells[c][i] is None else str(cells[c][i]) for c in columns]
            lines.append(",".join(row))
        case = tmp_path / f"case_{trial}"
        case.mkdir()
        csv_path = case / "fixture.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert main(["stats", str(csv_path), "--out-dir", str(case)]) == 0
        got = json.loads((case / "stats.json").read_text())["columns"]

        expected = {c: oracle([v for v in cells[c] if v is not None]) for c in columns}
        expected["day_index"] = oracle(list(range(n)))
        for col, want in expected.items():
            for stat, value in want.items():
                have = got[col][stat]
                if value is None:
                    assert have is None, (trial, col, stat)
                else:
                    assert have == pytest.approx(value, rel=1e-9, abs=1e-9), (
                        trial, col, stat,
                    )
