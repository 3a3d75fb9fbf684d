import numpy as np
import pytest

from epicast import evaluate, fit_scaler, mse, r2_score, transform
from epicast.errors import ConstantTarget, DimensionMismatch, EmptyInput
from epicast.models import plain


class TestMse:
    def test_perfect(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_case(self):
        assert mse([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)

    def test_symmetry(self, rng):
        y = rng.normal(size=50)
        p = rng.normal(size=50)
        assert mse(y, p) == pytest.approx(mse(p, y))

    def test_nonnegative(self, rng):
        for _ in range(20):
            assert mse(rng.normal(size=10), rng.normal(size=10)) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="y_true has 1 values"):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mse([], [])


class TestR2:
    def test_perfect(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_predictor(self):
        y = [1.0, 2.0, 3.0, 6.0]
        ybar = sum(y) / len(y)
        assert r2_score(y, [ybar] * 4) == pytest.approx(0.0)

    def test_hand_case(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5)

    def test_constant_target(self):
        with pytest.raises(ConstantTarget):
            r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self, rng):
        # common rescale/shift of y and yhat leaves r2 unchanged
        for _ in range(20):
            y = rng.normal(size=30)
            p = y + 0.3 * rng.normal(size=30)
            a = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
            b = float(rng.normal())
            assert r2_score(a * y + b, a * p + b) == pytest.approx(
                r2_score(y, p), abs=1e-9
            )

    def test_scaled_equals_original_space(self, rng):
        # the pipeline's scaler is one common affine map, so both spaces
        # report the same r2
        y = rng.normal(100.0, 30.0, size=40)
        p = y + rng.normal(0.0, 10.0, size=40)
        scaler = fit_scaler(y)
        assert r2_score(transform(y, scaler), transform(p, scaler)) == pytest.approx(
            r2_score(y, p), abs=1e-12
        )

    def test_original_mse_is_scaled_times_variance(self, rng):
        y = rng.normal(100.0, 30.0, size=40)
        p = y + rng.normal(0.0, 10.0, size=40)
        scaler = fit_scaler(y)
        sigma2 = float(scaler.scale[0]) ** 2
        assert mse(y, p) == pytest.approx(
            mse(transform(y, scaler), transform(p, scaler)) * sigma2
        )


class TestEvaluate:
    def test_fields(self):
        result = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert result.n == 3
        assert result.space == "scaled"
        assert result.r2 == pytest.approx(0.5)
        assert result.mse == pytest.approx(1.0 / 3.0)
        assert set(plain(result)) == {"mse", "r2", "n", "space"}
