import numpy as np
import pytest

from epicast import (
    LinRegConfig,
    SplitSpec,
    build_supervised,
    fit_scaler,
    inverse_transform,
    split,
    standardized_split,
    train_on_split,
    transform,
)
from epicast.errors import (
    ConstantTarget,
    DegenerateSplit,
    DimensionMismatch,
    EmptyInput,
    InputError,
    MissingValuesPresent,
)
from epicast.models import model_from_dict, model_to_dict
from epicast.preprocess import (
    EPSILON_FLOOR,
    MAX_SCALE,
    SupervisedSet,
    as_design,
    column_product,
)
from epicast import CaseSeries, parse_csv

CSV = """date,tests,confirmed,deaths
2021-01-01,100,10,1
2021-01-02,110,12,0
2021-01-03,120,15,2
2021-01-04,130,20,3
2021-01-05,140,26,3
"""


class TestBuildSupervised:
    def test_columns(self):
        data = build_supervised(parse_csv(CSV), ("day_index", "tests"), "confirmed")
        assert data.x.shape == (5, 2)
        assert data.x[:, 0].tolist() == [0, 1, 2, 3, 4]
        assert data.x[:, 1].tolist() == [100, 110, 120, 130, 140]
        assert data.y.tolist() == [10, 12, 15, 20, 26]
        assert data.feature_names == ("day_index", "tests")
        assert data.target_name == "confirmed"

    def test_unknown_feature(self):
        with pytest.raises(InputError, match="unknown column 'weather'"):
            build_supervised(parse_csv(CSV), ("day_index", "weather"), "confirmed")

    def test_missing_values_rejected(self):
        text = CSV.replace("120,15,2", "120,,2")
        with pytest.raises(MissingValuesPresent):
            build_supervised(parse_csv(text), ("day_index",), "confirmed")

    def test_no_features(self):
        with pytest.raises(EmptyInput):
            build_supervised(parse_csv(CSV), (), "confirmed")

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            SupervisedSet(
                x=np.zeros((3, 2)), y=np.zeros(3), feature_names=("a",), target_name="t"
            )

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.zeros(3), np.zeros(3), "x must be 2-D"),
            (np.zeros((3, 1)), np.zeros((3, 1)), "y must be 1-D"),
        ],
        ids=["x-1d", "y-2d"],
    )
    def test_array_ranks(self, x, y, message):
        with pytest.raises(DimensionMismatch, match=message):
            SupervisedSet(x=x, y=y, feature_names=("a",), target_name="t")

    def test_empty_series(self):
        with pytest.raises(EmptyInput, match="no rows"):
            build_supervised(CaseSeries(), ("day_index",), "confirmed")


class TestAsDesign:
    def test_three_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatch, match="1-D or 2-D"):
            as_design(np.zeros((2, 2, 2)))


class TestScaler:
    def test_population_std(self, rng):
        x = rng.normal(3.0, 2.0, size=(40, 3))
        params = fit_scaler(x)
        assert params.mean == pytest.approx(x.mean(axis=0))
        # ddof=0, not the sample convention
        assert params.scale == pytest.approx(x.std(axis=0, ddof=0))

    def test_constant_column_floored_and_maps_to_zero(self):
        x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        params = fit_scaler(x)
        assert params.scale[0] == EPSILON_FLOOR
        z = transform(x, params)
        assert np.all(z[:, 0] == 0.0)

    def test_round_trip(self, rng):
        for _ in range(10):
            x = rng.normal(size=(20, 2)) * rng.uniform(0.5, 50.0)
            params = fit_scaler(x)
            assert inverse_transform(transform(x, params), params) == pytest.approx(
                x, abs=1e-9
            )

    def test_transformed_train_is_standard(self, rng):
        x = rng.normal(5.0, 3.0, size=(200, 1))
        z = transform(x, fit_scaler(x))
        assert float(z.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(z.std()) == pytest.approx(1.0, abs=1e-12)

    def test_1d_handling(self, rng):
        y = rng.normal(size=30)
        params = fit_scaler(y)
        z = transform(y, params)
        assert z.shape == (30,)
        assert inverse_transform(z, params) == pytest.approx(y)

    def test_width_mismatch(self, rng):
        params = fit_scaler(rng.normal(size=(10, 2)))
        with pytest.raises(DimensionMismatch):
            transform(rng.normal(size=(5, 3)), params)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            fit_scaler(np.zeros((0, 2)))


def _toy(n=520):
    x = np.arange(n, dtype=float)[:, None]
    y = np.linspace(0.0, 1.0, n)
    return SupervisedSet(x=x, y=y, feature_names=("day_index",), target_name="confirmed")


class TestSplit:
    def test_chronological_sizes(self):
        train, test = split(_toy(520), SplitSpec("chronological", 0.8, 0))
        assert len(train) == 416
        assert len(test) == 104
        assert train.x[:, 0].tolist() == list(range(416))
        assert test.x[0, 0] == 416

    def test_fraction_rounds_up(self):
        train, test = split(_toy(10), SplitSpec("chronological", 0.75, 0))
        assert (len(train), len(test)) == (8, 2)

    def test_shuffled_is_seeded_permutation(self):
        data = _toy(50)
        spec = SplitSpec("shuffled", 0.8, seed=9)
        train1, test1 = split(data, spec)
        train2, test2 = split(data, spec)
        assert np.array_equal(train1.x, train2.x)
        assert np.array_equal(test1.x, test2.x)
        # together they cover all rows exactly once
        union = np.concatenate([train1.x[:, 0], test1.x[:, 0]])
        assert sorted(union.tolist()) == list(range(50))
        # expected permutation from the seeded generator
        order = np.random.default_rng(9).permutation(50)
        assert train1.x[:, 0].tolist() == order[:40].tolist()

    def test_different_seeds_differ(self):
        data = _toy(100)
        a, _ = split(data, SplitSpec("shuffled", 0.8, seed=1))
        b, _ = split(data, SplitSpec("shuffled", 0.8, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_degenerate_fraction(self):
        with pytest.raises(DegenerateSplit):
            SplitSpec("chronological", 0.0, 0)
        with pytest.raises(DegenerateSplit):
            SplitSpec("chronological", 1.0, 0)

    def test_bad_mode(self):
        with pytest.raises(DegenerateSplit):
            SplitSpec("random", 0.8, 0)

    def test_tiny_input(self):
        with pytest.raises(DegenerateSplit):
            split(_toy(1), SplitSpec("chronological", 0.8, 0))


class TestStandardizedSplit:
    def test_scalers_fit_on_train_only(self):
        # leakage guard: the scaler's mean must be the train half's mean,
        # which differs from the full-series mean for a trending series
        data = _toy(100)
        std = standardized_split(data, SplitSpec("chronological", 0.8, 0))
        train_mean = data.x[:80].mean()
        full_mean = data.x.mean()
        assert std.x_scaler.mean[0] == pytest.approx(train_mean)
        assert abs(std.x_scaler.mean[0] - full_mean) > 1.0

    def test_train_half_standardized(self):
        std = standardized_split(_toy(200), SplitSpec("chronological", 0.8, 0))
        assert float(std.train.x.mean()) == pytest.approx(0.0, abs=1e-12)
        assert float(std.train.x.std()) == pytest.approx(1.0, abs=1e-12)
        assert float(std.train.y.mean()) == pytest.approx(0.0, abs=1e-12)

    def test_test_half_not_centered(self):
        # chronological test rows sit beyond the train range
        std = standardized_split(_toy(200), SplitSpec("chronological", 0.8, 0))
        assert float(std.test.x.mean()) > 1.0

    def test_constant_target_rejected(self):
        data = SupervisedSet(
            x=np.arange(10.0)[:, None],
            y=np.full(10, 4.0),
            feature_names=("day_index",),
            target_name="confirmed",
        )
        with pytest.raises(ConstantTarget):
            standardized_split(data, SplitSpec("chronological", 0.8, 0))

    @pytest.mark.parametrize(
        "column, x, y",
        [
            # a target whose train mean and scale are beyond the bound
            ("confirmed", np.arange(10.0), np.where(np.arange(10) % 2, 1e200, 1.0)),
            # a constant feature whose train mean is beyond it
            ("tests", np.full(10, 1e200), np.arange(10.0)),
        ],
    )
    def test_column_beyond_the_model_file_bound_rejected(self, column, x, y):
        data = SupervisedSet(
            x=x[:, None], y=y, feature_names=("tests",), target_name="confirmed"
        )
        with pytest.raises(InputError, match=f"column '{column}'"):
            standardized_split(data, SplitSpec("chronological", 0.8, 0))

    @pytest.mark.parametrize(
        "column, x, y",
        [
            # train rows of the feature are constant, so its scale is the floor
            ("tests", np.where(np.arange(10) < 8, 5.0, 1e300), np.arange(10.0)),
            # a test target beyond a train scale of about 2e-11
            (
                "confirmed",
                np.arange(10.0),
                np.where(np.arange(10) < 8, 1.0 + 1e-11 * np.arange(10), 1e300),
            ),
        ],
    )
    def test_test_value_that_scales_to_inf_rejected_naming_the_column(
        self, column, x, y
    ):
        data = SupervisedSet(
            x=x[:, None], y=y, feature_names=("tests",), target_name="confirmed"
        )
        with pytest.raises(InputError, match=f"column '{column}'"):
            standardized_split(data, SplitSpec("chronological", 0.8, 0))

    def test_column_at_the_bound_gives_a_loadable_model(self):
        data = SupervisedSet(
            x=np.full(10, MAX_SCALE)[:, None],
            y=np.arange(10.0),
            feature_names=("tests",),
            target_name="confirmed",
        )
        std = standardized_split(data, SplitSpec("chronological", 0.8, 0))
        model, _ = train_on_split(
            "linreg", LinRegConfig(iterations=5), std, ("tests",), "confirmed"
        )
        assert model_from_dict(model_to_dict(model)).x_scaler.mean[0] == MAX_SCALE

    def test_round_trip_to_original_units(self, rng):
        data = _toy(100)
        std = standardized_split(data, SplitSpec("chronological", 0.8, 0))
        back = inverse_transform(std.test.y, std.y_scaler)
        assert back == pytest.approx(data.y[80:])


class TestColumnProduct:
    def test_one_column_equals_matmul_bit_for_bit(self, rng):
        a = rng.normal(size=(300, 1))
        b = rng.normal(size=(17, 1))
        assert column_product(a, b).tobytes() == (a @ b.T).tobytes()
        w = rng.normal(size=1)
        out = np.empty((300, 1))
        column_product(a, w[None, :], out=out)
        assert out[:, 0].tobytes() == (a @ w).tobytes()

    def test_sums_columns_in_order_and_rows_alone(self, rng):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(9, 3))
        want = a[:, :1] * b[:, 0] + a[:, 1:2] * b[:, 1] + a[:, 2:3] * b[:, 2]
        got = column_product(a, b)
        assert got.tobytes() == want.tobytes()
        assert column_product(a[5:12], b).tobytes() == got[5:12].tobytes()

    def test_zero_columns_give_zeros(self):
        out = np.full((4, 2), 7.0)
        assert column_product(np.empty((4, 0)), np.empty((2, 0)), out=out) is out
        assert out.tolist() == [[0.0, 0.0]] * 4
