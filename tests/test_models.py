import json
from datetime import date as Date

import numpy as np
import pytest

from epicast import (
    KernelSpec,
    LinRegConfig,
    MlpConfig,
    SplitSpec,
    SvrConfig,
    build_supervised,
    load_model,
    model_from_dict,
    model_to_dict,
    original_space_eval,
    predict_raw,
    predict_scaled,
    save_model,
    standardized_split,
    train_on_split,
)
from epicast.dataset import SummaryStats
from epicast.errors import InputError, NumericError
from epicast.forecast import ForecastReport, Prediction
from epicast.harness import ComparisonReport, GridCell
from epicast.linear import LinRegParams
from epicast.metrics import EvalResult
from epicast.models import TrainedModel, json_text, plain
from epicast.preprocess import ScalerParams


@pytest.fixture(scope="module")
def std_split(series):
    data = build_supervised(series, ("day_index",), "confirmed")
    return standardized_split(
        data, SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
    )


def fit(family, config, std_split):
    return train_on_split(family, config, std_split, ("day_index",), "confirmed")


FAST_CONFIGS = {
    "mlp": MlpConfig(hidden_layers=2, neurons_per_layer=16, max_iterations=300, seed=0),
    "svr": SvrConfig(kernel=KernelSpec(kind="rbf")),
    "linreg": LinRegConfig(),
}


class TestTrainOnSplit:
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    def test_returns_model_and_scores(self, family, std_split):
        model, result = fit(family, FAST_CONFIGS[family], std_split)
        assert model.family == family
        assert model.feature_names == ("day_index",)
        assert model.target_name == "confirmed"
        assert result.space == "scaled"
        assert result.n == len(std_split.test.y)
        assert np.isfinite(result.mse)

    def test_mlp_meta_fields(self, std_split):
        model, _ = fit("mlp", FAST_CONFIGS["mlp"], std_split)
        assert set(model.train_meta) >= {"status", "iterations", "final_loss", "converged"}
        assert model.converged == (
            model.train_meta["status"] in ("converged", "stalled")
        )

    def test_mlp_at_its_iteration_budget_is_not_converged(self, std_split):
        config = MlpConfig(
            hidden_layers=1, neurons_per_layer=4, optimizer="sgd", max_iterations=5
        )
        model, _ = fit("mlp", config, std_split)
        assert model.train_meta["status"] == "max_iterations"
        assert model.converged is False

    def test_svr_meta_counts_support_vectors(self, std_split):
        model, _ = fit("svr", FAST_CONFIGS["svr"], std_split)
        assert model.train_meta["support_vectors"] == model.params.support_coefs.size

    def test_svr_budget_exhaustion_flagged_not_raised(self, std_split):
        model, result = fit("svr", SvrConfig(max_passes=1), std_split)
        assert not model.converged
        assert model.train_meta["status"] == "pass_budget_exhausted"
        assert np.isfinite(result.mse)

    def test_unknown_family(self, std_split):
        with pytest.raises(InputError):
            fit("forest", LinRegConfig(), std_split)


class TestPredict:
    def test_raw_round_trips_scaling(self, std_split, series):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        data = build_supervised(series, ("day_index",), "confirmed")
        raw = predict_raw(model, data.x)
        manual = (
            predict_scaled(model, (data.x - model.x_scaler.mean) / model.x_scaler.scale)
            * model.y_scaler.scale[0]
            + model.y_scaler.mean[0]
        )
        assert raw == pytest.approx(manual, rel=1e-12)

    def test_feature_width_checked(self, std_split):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        with pytest.raises(InputError, match="model expects features"):
            predict_raw(model, np.zeros((3, 2)))

    def test_original_space_eval_scales_mse_only(self, std_split):
        model, scaled = fit("linreg", LinRegConfig(), std_split)
        orig = original_space_eval(model, scaled)
        sigma = float(model.y_scaler.scale[0])
        assert orig.mse == pytest.approx(scaled.mse * sigma**2)
        assert orig.r2 == scaled.r2
        assert orig.n == scaled.n
        assert orig.space == "original"


class TestSerialization:
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    def test_json_round_trip_preserves_predictions_exactly(
        self, family, std_split, tmp_path
    ):
        model, _ = fit(family, FAST_CONFIGS[family], std_split)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.family == model.family
        assert loaded.feature_names == model.feature_names
        queries = np.linspace(0.0, 600.0, 40)[:, None]
        assert np.array_equal(predict_raw(model, queries), predict_raw(loaded, queries))

    def test_document_shape(self, std_split):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        doc = model_to_dict(model)
        assert doc["version"] == 1
        assert set(doc) == {
            "version", "family", "config", "params", "x_scaler", "y_scaler",
            "feature_names", "target_name", "train_meta",
        }
        json.dumps(doc)  # must already be JSON-clean

    def test_svr_with_no_support_vectors_round_trips(self, tmp_path, std_split):
        # epsilon wide enough to swallow the standardized targets
        model, _ = fit("svr", SvrConfig(epsilon=10.0), std_split)
        assert model.params.support_coefs.size == 0
        path = tmp_path / "flat.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        out = predict_raw(loaded, np.array([[1.0], [2.0]]))
        assert out[0] == pytest.approx(out[1])

    def test_version_gate(self, std_split):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        doc = model_to_dict(model)
        doc["version"] = 2
        with pytest.raises(InputError):
            model_from_dict(doc)

    def test_unknown_family_in_document(self, std_split):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        doc = model_to_dict(model)
        doc["family"] = "forest"
        with pytest.raises(InputError):
            model_from_dict(doc)


MALFORMED = {
    "missing config": lambda d: d.pop("config"),
    "missing params": lambda d: d.pop("params"),
    "missing x_scaler": lambda d: d.pop("x_scaler"),
    "missing scaler scale": lambda d: d["y_scaler"].pop("scale"),
    "unknown config field": lambda d: d["config"].update(momentum=0.9),
    "ill-typed config field": lambda d: d["config"].update(iterations="many"),
    "ill-typed params field": lambda d: d["params"].update(slope="steep"),
    "unhashable family": lambda d: d.update(family=["linreg"]),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("breakage", MALFORMED.values(), ids=MALFORMED.keys())
    def test_raises_input_error(self, breakage, std_split):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        doc = json.loads(json.dumps(model_to_dict(model)))
        breakage(doc)
        with pytest.raises(InputError):
            model_from_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(InputError):
            model_from_dict([1, 2, 3])

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00"])
    def test_load_rejects_non_json(self, content, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(InputError):
            load_model(str(path))


def _pop_last(items):
    items.pop()


# family -> breakages that leave a well-formed document whose arrays do
# not fit together.
INCONSISTENT = {
    "mlp": {
        "weight row dropped": lambda d: _pop_last(d["params"]["weights"][1]),
        "bias entry dropped": lambda d: _pop_last(d["params"]["biases"][0]),
        "bias list short": lambda d: _pop_last(d["params"]["biases"]),
        "no layers": lambda d: d["params"].update(weights=[], biases=[]),
        "two outputs": lambda d: (
            d["params"]["weights"][-1].append(d["params"]["weights"][-1][0]),
            d["params"]["biases"][-1].append(0.0),
        ),
    },
    "svr": {
        "support coef dropped": lambda d: _pop_last(d["params"]["support_coefs"]),
        "support vectors widened": lambda d: [
            row.append(0.0) for row in d["params"]["support_vectors"]
        ],
        "gamma unresolved": lambda d: d["params"]["kernel"].update(gamma=None),
    },
    "linreg": {
        "slope longer than features": lambda d: d["params"]["slope"].append(1.0),
        "slope is a matrix": lambda d: d["params"].update(slope=[d["params"]["slope"]]),
        "x scaler wider than features": lambda d: (
            d["x_scaler"]["mean"].append(0.0), d["x_scaler"]["scale"].append(1.0)
        ),
        "y scaler two columns": lambda d: (
            d["y_scaler"]["mean"].append(0.0), d["y_scaler"]["scale"].append(1.0)
        ),
        "zero scale": lambda d: d["x_scaler"].update(scale=[0.0]),
        "y scale empty": lambda d: d["y_scaler"].update(scale=[]),
        "y scale two entries": lambda d: d["y_scaler"]["scale"].append(99.0),
        "x scale wider than features": lambda d: d["x_scaler"]["scale"].append(1.0),
    },
}


class TestInconsistentDocuments:
    @pytest.mark.parametrize(
        "family, breakage",
        [(f, b) for f, cases in INCONSISTENT.items() for b in cases.values()],
        ids=[f"{f}: {name}" for f, cases in INCONSISTENT.items() for name in cases],
    )
    def test_raises_input_error(self, family, breakage, std_split):
        model, _ = fit(family, FAST_CONFIGS[family], std_split)
        doc = json.loads(json.dumps(model_to_dict(model)))
        model_from_dict(doc)  # intact, it loads
        breakage(doc)
        with pytest.raises(InputError):
            model_from_dict(doc)


class TestNonFinite:
    def test_overflowing_predictions_raise_numeric_error(self, std_split):
        model, _ = fit("mlp", FAST_CONFIGS["mlp"], std_split)
        doc = json.loads(json.dumps(model_to_dict(model)))
        doc["params"]["weights"][-1] = [[1e308] * len(doc["params"]["weights"][-1][0])]
        huge = model_from_dict(doc)
        with pytest.raises(NumericError):
            predict_scaled(huge, std_split.test.x)
        with pytest.raises(NumericError):
            predict_raw(huge, np.arange(5.0)[:, None])

    def test_save_rejects_non_finite_before_opening(self, std_split, tmp_path):
        model, _ = fit("linreg", LinRegConfig(), std_split)
        model.train_meta["final_loss"] = float("inf")
        path = tmp_path / "model.json"
        with pytest.raises(NumericError, match=r"train_meta\.final_loss is inf$"):
            save_model(model, str(path))
        assert not path.exists()

    @pytest.mark.parametrize(
        "document, where",
        [
            ({"a": [1.0, {"b": float("nan")}], "c": float("inf")}, "a.1.b is nan"),
            ({"a": (2.0, -float("inf"))}, "a.1 is -inf"),
            ({"eval": {"scaled": {"mse": np.float64("inf")}}}, "eval.scaled.mse is inf"),
        ],
    )
    def test_json_text_names_the_first_non_finite_field(self, document, where):
        with pytest.raises(NumericError) as raised:
            json_text(document)
        assert str(raised.value) == f"cannot write a non-finite number as JSON: {where}"


class TestPlain:
    # Key order decides the bytes of every report file, and a digest over
    # sorted keys cannot see it.
    @pytest.mark.parametrize(
        "value, text",
        [
            (
                ForecastReport(
                    Date(2021, 1, 2), 1, (Prediction(Date(2021, 1, 2), 5),), 5, 5,
                    "linreg:confirmed",
                ),
                '{"start_date": "2021-01-02", "horizon_days": 1, "predictions": '
                '[{"date": "2021-01-02", "predicted": 5}], "range_min": 5, '
                '"range_max": 5, "model_id": "linreg:confirmed", "scenario_label": ""}',
            ),
            (
                ComparisonReport(
                    "deaths", (Date(2021, 1, 1), Date(2021, 1, 2)), (3, None),
                    {"svr": (1.5, 2.5)}, {"horizon": 1},
                ),
                '{"target": "deaths", "dates": ["2021-01-01", "2021-01-02"], '
                '"observed": [3, null], "predicted": {"svr": [1.5, 2.5]}, '
                '"metadata": {"horizon": 1}}',
            ),
            (
                EvalResult(mse=0.25, r2=0.5, n=4),
                '{"mse": 0.25, "r2": 0.5, "n": 4, "space": "scaled"}',
            ),
            (
                GridCell(
                    1, "linreg", "deaths", None, None, True, "not_converged",
                    plain(LinRegConfig()),
                ),
                '{"slot": 1, "family": "linreg", "target": "deaths", "r2": null, '
                '"mse": null, "flagged": true, "flag_reason": "not_converged", '
                '"config": {"learning_rate": 0.5, "iterations": 2500}}',
            ),
            (
                SummaryStats(2, 1.5, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0),
                '{"count": 2, "mean": 1.5, "std": 0.5, "min": 1.0, "25%": 1.25, '
                '"50%": 1.5, "75%": 1.75, "max": 2.0}',
            ),
            (
                model_to_dict(
                    TrainedModel(
                        family="linreg",
                        config=LinRegConfig(),
                        params=LinRegParams(slope=np.array([2.0]), intercept=0.5),
                        x_scaler=ScalerParams(np.array([1.0]), np.array([2.0])),
                        y_scaler=ScalerParams(np.array([3.0]), np.array([4.0])),
                        feature_names=("day_index",),
                        target_name="confirmed",
                        train_meta={"status": "completed", "converged": True},
                    )
                ),
                '{"version": 1, "family": "linreg", "config": {"learning_rate": '
                '0.5, "iterations": 2500}, "params": {"slope": [2.0], "intercept": '
                '0.5}, "x_scaler": {"mean": [1.0], "scale": [2.0]}, "y_scaler": '
                '{"mean": [3.0], "scale": [4.0]}, "feature_names": ["day_index"], '
                '"target_name": "confirmed", "train_meta": {"status": "completed", '
                '"converged": true}}',
            ),
        ],
        ids=["forecast", "comparison", "eval", "grid_cell", "summary", "model"],
    )
    def test_key_order(self, value, text):
        assert json.dumps(plain(value)) == text
