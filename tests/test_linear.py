import numpy as np
import pytest

from epicast import (
    LinRegConfig,
    build_supervised,
    default_grid,
    fit_scaler,
    linreg_fit,
    linreg_predict,
    ols_closed_form,
    standardized_split,
    transform,
)
from epicast.errors import DimensionMismatch, NonFiniteObjective, NumericError


def standardized_line(rng, n=60, slope=2.0, intercept=1.0, noise=0.0):
    x = rng.normal(size=(n, 1)) * 3.0
    y = slope * x[:, 0] + intercept + noise * rng.normal(size=n)
    xs = transform(x, fit_scaler(x))
    return xs, y


def fixed_order_product(xs, w):
    """xs @ w as the sum over the columns in order, written out; zeros for
    no columns."""
    out = np.zeros(xs.shape[0]) if xs.shape[1] == 0 else xs[:, 0] * w[0]
    for col in range(1, xs.shape[1]):
        out = out + xs[:, col] * w[col]
    return out


def reference_fit(xs, y, cfg):
    """The gradient-descent loop on the Gram statistics of D = [x 1], with
    fresh arrays each step: theta -= lr (2/n) (D'D theta - D'y)."""
    n = xs.shape[0]
    design = np.column_stack([xs, np.ones(n)])
    gram, c = design.T @ design, design.T @ y
    theta = np.zeros(design.shape[1])
    for _ in range(cfg.iterations):
        theta = theta - cfg.learning_rate * (2.0 / n) * (gram @ theta - c)
    return theta[:-1], float(theta[-1])


def reference_divergence_step(xs, y, cfg):
    """The first step of reference_fit whose loss
    (theta' G theta - 2 theta' c + y'y)/n is not finite, or None."""
    n = xs.shape[0]
    design = np.column_stack([xs, np.ones(n)])
    gram, c, yy = design.T @ design, design.T @ y, float(y @ y)
    theta = np.zeros(design.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.iterations + 1):
            g = gram @ theta
            if not np.isfinite((theta @ g - 2.0 * (theta @ c) + yy) / n):
                return it
            theta = theta - cfg.learning_rate * (2.0 / n) * (g - c)
    return None


def reference_fixed_point(xs, y, cfg):
    """The first step of reference_fit that returns theta unchanged bit for
    bit, or None."""
    n = xs.shape[0]
    design = np.column_stack([xs, np.ones(n)])
    gram, c = design.T @ design, design.T @ y
    theta = np.zeros(design.shape[1])
    for it in range(1, cfg.iterations + 1):
        stepped = theta - cfg.learning_rate * (2.0 / n) * (gram @ theta - c)
        if stepped.tobytes() == theta.tobytes():
            return it
        theta = stepped
    return None


def residual_reference_fit(xs, y, cfg, product):
    """The same loop written on the residuals: a fresh residual each step,
    x w formed by ``product``, and the gradient (2/n) [x 1]' r."""
    n = xs.shape[0]
    w = np.zeros(xs.shape[1])
    b = 0.0
    for _ in range(cfg.iterations):
        r = product(xs, w) + b - y
        w -= cfg.learning_rate * (2.0 / n) * (xs.T @ r)
        b -= cfg.learning_rate * (2.0 / n) * float(r.sum())
    return w, b


class TestFit:
    @pytest.mark.parametrize(
        "width, product",
        [(1, lambda xs, w: xs @ w), (0, fixed_order_product), (3, fixed_order_product)],
    )
    def test_equals_reference_loop_byte_for_byte(self, width, product, rng):
        xs = rng.normal(size=(70, width))
        y = xs @ np.linspace(1.0, -1.0, width) + 0.4 + 0.1 * rng.normal(size=70)
        cfg = LinRegConfig(0.1, 300)
        got = linreg_fit(xs, y, cfg)
        w, b = reference_fit(xs, y, cfg)
        assert got.slope.tobytes() == w.tobytes()
        assert got.intercept == b
        # the Gram form is the residual loop up to rounding
        w, b = residual_reference_fit(xs, y, cfg, product)
        assert np.allclose(got.slope, w, rtol=1e-12, atol=0.0)
        assert got.intercept == pytest.approx(b, rel=1e-12)
        if width == 0:  # intercept-only: gradient descent on the mean
            assert got.intercept == pytest.approx(float(np.mean(y)), abs=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("lr, reaches", [(0.2, True), (0.001, False)])
    def test_fixed_point_stop_equals_every_step(self, width, lr, reaches, rng):
        # On standardized columns theta stops changing bit for bit after
        # about 80 steps at rate 0.2, and the fit ends there; at 0.001 it
        # still moves on the last of the 4000.
        x = 3.0 * rng.normal(size=(50, width))
        xs = transform(x, fit_scaler(x))
        y = xs @ np.linspace(1.0, -1.0, width) + 0.4 + 0.2 * rng.normal(size=50)
        cfg = LinRegConfig(lr, 4000)
        fixed = reference_fixed_point(xs, y, cfg)
        assert (fixed is not None and fixed < cfg.iterations // 2) == reaches
        got = linreg_fit(xs, y, cfg)
        w, b = reference_fit(xs, y, cfg)
        assert (got.slope.tobytes(), got.intercept) == (w.tobytes(), b)

    @pytest.mark.parametrize("target", ["confirmed", "deaths"])
    def test_grid_slots_equal_reference_loop_byte_for_byte(self, series, chrono_split, target):
        # The 416-row train half of the 520-day series, where a step's
        # products in plain floats (no FMA) would move the last bits.
        data = build_supervised(series, ("day_index",), target)
        train = standardized_split(data, chrono_split).train
        slots = [s for s in default_grid() if s.model_family == "linreg"]
        assert len(slots) == 5
        for slot in slots:
            got = linreg_fit(train.x, train.y, slot.config)
            w, b = reference_fit(train.x, train.y, slot.config)
            assert (got.slope.tobytes(), got.intercept) == (w.tobytes(), b), slot.slot

    def test_exact_line_matches_ols(self, rng):
        xs, y = standardized_line(rng)
        gd = linreg_fit(xs, y, LinRegConfig(0.1, 3000))
        ols = ols_closed_form(xs, y)
        assert gd.slope == pytest.approx(ols.slope, abs=1e-6)
        assert gd.intercept == pytest.approx(ols.intercept, abs=1e-6)

    def test_zero_target(self, rng):
        xs, _ = standardized_line(rng)
        params = linreg_fit(xs, np.zeros(len(xs)), LinRegConfig(0.1, 2000))
        assert params.slope == pytest.approx([0.0], abs=1e-12)
        assert params.intercept == pytest.approx(0.0, abs=1e-12)

    def test_loss_non_increasing_in_iterations(self, rng):
        # re-fitting with a growing budget walks the same trajectory, so
        # loss as a function of the iteration count must not increase
        # while the rate stays under the stability bound
        xs, y = standardized_line(rng, noise=0.5)
        design = np.column_stack([xs, np.ones(len(xs))])
        lam_max = float(np.linalg.eigvalsh(2.0 * design.T @ design / len(xs)).max())
        lr = 0.9 / lam_max

        def loss(iters):
            p = linreg_fit(xs, y, LinRegConfig(lr, iters))
            r = linreg_predict(p, xs) - y
            return float(r @ r) / len(y)

        losses = [loss(k) for k in range(1, 40)]
        assert np.all(np.diff(losses) <= 1e-12)

    def test_gd_approaches_ols_with_budget(self, rng):
        xs, y = standardized_line(rng, noise=1.0)
        gd = linreg_fit(xs, y, LinRegConfig(0.1, 10000))
        ols = ols_closed_form(xs, y)
        distance = np.hypot(
            float(np.linalg.norm(gd.slope - ols.slope)), gd.intercept - ols.intercept
        )
        assert distance < 1e-6

    def test_divergence_on_unscaled_data(self):
        # raw day-count scales blow up under the aggressive default rate
        x = np.arange(500, dtype=float)[:, None]
        y = 3.0 * x[:, 0]
        cfg = LinRegConfig(0.5, 2500)
        with pytest.raises(NonFiniteObjective) as exc:
            linreg_fit(x, y, cfg)
        assert exc.value.iteration >= 1
        assert exc.value.iteration == reference_divergence_step(x, y, cfg)

    @pytest.mark.parametrize("lr", [0.05, 0.3, 2.0])
    @pytest.mark.parametrize("width", [1, 3])
    def test_divergence_step_matches_reference_loop(self, lr, width, rng):
        x = rng.normal(size=(50, width)) * 30.0 + 10.0
        y = x @ np.linspace(2.0, -1.0, width) + rng.normal(size=50)
        cfg = LinRegConfig(lr, 3000)
        expected = reference_divergence_step(x, y, cfg)
        assert expected is not None
        with pytest.raises(NonFiniteObjective) as exc:
            linreg_fit(x, y, cfg)
        assert exc.value.iteration == expected

    # On x = [-1, 1, -1, 1] the Gram statistics are exact, and a rate of
    # 2e290 sends theta past the largest float within three steps.
    TINY_X = np.array([-1.0, 1.0, -1.0, 1.0])
    TINY_Y = np.array([1e-140, 0.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_step_raises_without_a_warning(self):
        # the third step's G theta multiplies infinite parameters
        with pytest.raises(NonFiniteObjective, match="at iteration 3") as exc:
            linreg_fit(self.TINY_X, self.TINY_Y, LinRegConfig(2e290, 3))
        assert exc.value.iteration == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_parameters_that_overflow_on_the_final_step(self):
        # every loss is finite, and the last step leaves theta infinite
        with pytest.raises(NonFiniteObjective, match="on the final step") as exc:
            linreg_fit(self.TINY_X, self.TINY_Y, LinRegConfig(2e290, 2))
        assert exc.value.iteration == 2

    def test_multivariate(self, rng):
        x = rng.normal(size=(80, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 0.3
        gd = linreg_fit(x, y, LinRegConfig(0.1, 8000))
        assert gd.slope == pytest.approx([1.0, -2.0, 0.5], abs=1e-6)
        assert gd.intercept == pytest.approx(0.3, abs=1e-6)

    def test_too_few_rows(self):
        with pytest.raises(DimensionMismatch):
            linreg_fit(np.zeros((1, 1)), np.zeros(1), LinRegConfig(0.1, 10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LinRegConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            LinRegConfig(iterations=0)


class TestPredict:
    def test_affine_evaluation(self):
        from epicast.linear import LinRegParams

        params = LinRegParams(slope=np.array([2.0]), intercept=1.0)
        assert linreg_predict(params, np.array([[3.0]])) == pytest.approx([7.0])

    def test_zero_slope_constant(self):
        from epicast.linear import LinRegParams

        params = LinRegParams(slope=np.array([0.0]), intercept=4.5)
        out = linreg_predict(params, np.arange(5.0)[:, None])
        assert out == pytest.approx([4.5] * 5)

    def test_agreement_with_oracle_predictions(self, rng):
        xs, y = standardized_line(rng, noise=0.2)
        gd = linreg_fit(xs, y, LinRegConfig(0.1, 10000))
        ols = ols_closed_form(xs, y)
        grid = np.linspace(-2, 2, 30)[:, None]
        assert linreg_predict(gd, grid) == pytest.approx(
            linreg_predict(ols, grid), abs=1e-6
        )

    def test_feature_count_checked(self):
        from epicast.linear import LinRegParams

        params = LinRegParams(slope=np.array([1.0, 2.0]), intercept=0.0)
        with pytest.raises(DimensionMismatch):
            linreg_predict(params, np.zeros((3, 3)))


class TestOls:
    def test_through_origin_line(self):
        x = np.array([[1.0], [2.0], [3.0]])
        params = ols_closed_form(x, 3.0 * x[:, 0])
        assert params.slope == pytest.approx([3.0])
        assert params.intercept == pytest.approx(0.0, abs=1e-12)

    def test_two_points_interpolate(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([1.0, 5.0])
        params = ols_closed_form(x, y)
        assert linreg_predict(params, x) == pytest.approx(y)

    def test_residuals_orthogonal_to_design(self, rng):
        x = rng.normal(size=(50, 2))
        y = x @ np.array([1.5, -0.5]) + 2.0 + rng.normal(size=50)
        params = ols_closed_form(x, y)
        resid = y - linreg_predict(params, x)
        design = np.column_stack([x, np.ones(50)])
        assert design.T @ resid == pytest.approx(np.zeros(3), abs=1e-8)

    def test_singular_design(self):
        x = np.column_stack([np.ones(5), np.ones(5)])  # duplicate of intercept
        with pytest.raises(NumericError, match="rank deficient"):
            ols_closed_form(x, np.arange(5.0))
