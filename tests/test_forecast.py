import importlib
from datetime import date as Date, timedelta

import numpy as np
import pytest

from epicast import (
    ForecastReport,
    LinRegConfig,
    LinRegParams,
    MlpConfig,
    MlpParams,
    ScalerParams,
    SplitSpec,
    TrainedModel,
    emit_plot_series,
    forecast,
    forecast_raw,
    init_params,
    parse_csv,
    scenario_run,
    window,
)
from epicast.errors import InputError
from epicast.models import plain


def identity_scaler(width=1):
    return ScalerParams(mean=np.zeros(width), scale=np.ones(width))


def linear_model(slope, intercept, target="confirmed"):
    """Hand-built day_index model with identity scalers: y = slope*i + b."""
    return TrainedModel(
        family="linreg",
        config=LinRegConfig(),
        params=LinRegParams(slope=np.array([slope]), intercept=intercept),
        x_scaler=identity_scaler(),
        y_scaler=identity_scaler(),
        feature_names=("day_index",),
        target_name=target,
        train_meta={"status": "completed", "converged": True},
    )


def constant_mlp_model(value, target="confirmed"):
    """Zero-weight network whose output bias pins every prediction."""
    cfg = MlpConfig(hidden_layers=1, neurons_per_layer=2)
    init = init_params(cfg, 1)
    biases = [np.zeros_like(b) for b in init.biases]
    biases[-1] = np.array([value])
    params = MlpParams(
        weights=tuple(np.zeros_like(w) for w in init.weights),
        biases=tuple(biases),
    )
    return TrainedModel(
        family="mlp",
        config=cfg,
        params=params,
        x_scaler=identity_scaler(),
        y_scaler=identity_scaler(),
        feature_names=("day_index",),
        target_name=target,
        train_meta={"status": "converged", "converged": True},
    )


def tiny_series(confirmed, deaths=None):
    lines = ["date,tests,confirmed,deaths"]
    start = Date(2021, 1, 1)
    for i, v in enumerate(confirmed):
        d = "" if deaths is None else str(deaths[i])
        lines.append(f"{(start + timedelta(days=i)).isoformat()},100,{v},{d}")
    return parse_csv("\n".join(lines) + "\n")


class TestForecast:
    def test_thirty_day_contract(self):
        model = linear_model(2.0, 10.0)
        report = forecast(model, last_day_index=99, start_date=Date(2021, 6, 1), horizon=30)
        assert report.horizon_days == 30
        assert len(report.predictions) == 30
        values = [v for _, v in report.predictions]
        assert all(isinstance(v, int) and v >= 0 for v in values)
        assert report.range_min == min(values)
        assert report.range_max == max(values)
        assert report.range_min in values and report.range_max in values

    def test_dates_are_consecutive_from_start(self):
        report = forecast(linear_model(1.0, 0.0), 10, Date(2021, 3, 5), horizon=5)
        dates = [d for d, _ in report.predictions]
        assert dates[0] == Date(2021, 3, 5)
        assert dates == [Date(2021, 3, 5) + timedelta(days=k) for k in range(5)]

    def test_linear_model_values(self):
        # day_index 11..13 under y = 2 i + 10
        report = forecast(linear_model(2.0, 10.0), 10, Date(2021, 1, 1), horizon=3)
        assert [v for _, v in report.predictions] == [32, 34, 36]

    def test_negative_predictions_clamped_to_zero(self):
        report = forecast(linear_model(-1.0, 5.0), 10, Date(2021, 1, 1), horizon=4)
        assert [v for _, v in report.predictions] == [0, 0, 0, 0]
        assert report.range_min == 0 and report.range_max == 0

    def test_half_rounds_up(self):
        report = forecast(constant_mlp_model(2.5), 0, Date(2021, 1, 1), horizon=2)
        assert [v for _, v in report.predictions] == [3, 3]

    def test_clamp_applies_before_rounding(self):
        # -0.4 would round to 0 either way; -0.6 must clamp, not round to -1
        report = forecast(constant_mlp_model(-0.6), 0, Date(2021, 1, 1), horizon=1)
        assert report.predictions[0][1] == 0

    def test_model_id_is_family_and_target(self):
        model = linear_model(1.0, 0.0, target="deaths")
        assert forecast(model, 0, Date(2021, 1, 1), horizon=1).model_id == "linreg:deaths"

    def test_scenario_label_passthrough(self):
        got = forecast(
            linear_model(1.0, 0.0), 0, Date(2021, 1, 1), horizon=1,
            scenario_label="wave-two",
        )
        assert got.scenario_label == "wave-two"

    def test_bad_horizon(self):
        with pytest.raises(InputError):
            forecast(linear_model(1.0, 0.0), 0, Date(2021, 1, 1), horizon=0)

    def test_multifeature_model_rejected(self):
        model = TrainedModel(
            family="linreg",
            config=LinRegConfig(),
            params=LinRegParams(slope=np.array([1.0, 1.0]), intercept=0.0),
            x_scaler=identity_scaler(2),
            y_scaler=identity_scaler(),
            feature_names=("day_index", "tests"),
            target_name="confirmed",
            train_meta={},
        )
        with pytest.raises(InputError, match="cannot extrapolate"):
            forecast_raw(model, 0, 5)

    def test_deterministic(self):
        model = linear_model(3.0, 1.0)
        a = forecast(model, 50, Date(2021, 2, 1), horizon=30)
        b = forecast(model, 50, Date(2021, 2, 1), horizon=30)
        assert a == b

    def test_raw_forecast_is_affine_in_horizon_step(self):
        raw = forecast_raw(linear_model(2.5, -1.0), 20, 10)
        assert np.diff(raw) == pytest.approx(np.full(9, 2.5))
        assert raw[0] == pytest.approx(2.5 * 21 - 1.0)

    def test_as_dict_shape(self):
        report = forecast(linear_model(1.0, 0.0), 0, Date(2021, 1, 2), horizon=2)
        doc = plain(report)
        assert doc["start_date"] == "2021-01-02"
        assert doc["horizon_days"] == 2
        assert doc["predictions"][0] == {"date": "2021-01-02", "predicted": 1}
        assert set(doc) == {
            "start_date", "horizon_days", "predictions",
            "range_min", "range_max", "model_id", "scenario_label",
        }


class TestScenarioRun:
    def test_full_span_window(self, series, chrono_split):
        result = scenario_run(
            series,
            series.first_date,
            series.last_date,
            "linreg",
            LinRegConfig(),
            chrono_split,
            horizon=7,
            label="baseline",
        )
        assert result.window_start == series.first_date
        assert result.window_end == series.last_date
        assert set(result.reports) == {"confirmed", "deaths"}
        for target, report in result.reports.items():
            assert report.horizon_days == 7
            assert report.scenario_label == "baseline"
            assert report.start_date == series.last_date + timedelta(days=1)
        assert result.evals["confirmed"].space == "scaled"
        for target, model in result.models.items():
            assert (model.family, model.target_name) == ("linreg", target)

    def test_windowed_run_rebases_and_forecasts_after_window(self, series, chrono_split):
        start = series.first_date + timedelta(days=100)
        end = series.first_date + timedelta(days=199)
        result = scenario_run(
            series, start, end, "linreg", LinRegConfig(), chrono_split, horizon=3,
        )
        assert result.window_start == start
        assert result.window_end == end
        report = result.reports["confirmed"]
        assert report.predictions[0][0] == end + timedelta(days=1)

    def test_result_carries_the_windowed_series(self, series, chrono_split):
        start = series.first_date + timedelta(days=100)
        end = series.first_date + timedelta(days=199)
        result = scenario_run(
            series, start, end, "linreg", LinRegConfig(), chrono_split, horizon=3,
        )
        assert result.windowed == window(series, start, end)
        assert result.windowed.first_date == start
        assert result.windowed.column("day_index")[0] == 0

    def test_degenerate_window_raises_input_error(self, series, chrono_split):
        with pytest.raises(InputError):
            scenario_run(
                series,
                series.first_date,
                series.first_date,
                "linreg",
                LinRegConfig(),
                chrono_split,
                horizon=3,
            )

    @pytest.mark.parametrize("horizon", [0, 3_000_000])
    def test_bad_horizon_rejected_before_any_fit(
        self, series, chrono_split, monkeypatch, horizon
    ):
        # epicast.forecast, the attribute, is the function; patch the module.
        module = importlib.import_module("epicast.forecast")
        fits = []
        monkeypatch.setattr(module, "train_on_split", lambda *args: fits.append(args))
        with pytest.raises(InputError, match="horizon"):
            scenario_run(
                series, series.first_date, series.last_date, "linreg",
                LinRegConfig(), chrono_split, horizon=horizon,
            )
        assert fits == []

    def test_mlp_scenario_scores_reported(self, series):
        spec = SplitSpec(mode="chronological", train_fraction=0.8, seed=0)
        # a window on the rising phase, so both targets vary in the test rows
        result = scenario_run(
            series,
            series.first_date + timedelta(days=250),
            series.first_date + timedelta(days=309),
            "mlp",
            MlpConfig(hidden_layers=1, neurons_per_layer=8, max_iterations=200),
            spec,
            horizon=5,
        )
        for target in ("confirmed", "deaths"):
            assert np.isfinite(result.evals[target].mse)
            assert result.evals[target].n == 12  # 60 rows, test fifth


class TestEmitPlotSeries:
    def test_row_count_and_column_pattern(self):
        history = tiny_series([1, 2, 3, 4])
        report = forecast(linear_model(1.0, 0.0), 3, Date(2021, 1, 5), horizon=30)
        rows = emit_plot_series(history, report, target="confirmed")
        assert len(rows) == 4 + 30
        for row in rows[:4]:
            assert row["observed"] is not None and row["predicted"] is None
        for row in rows[4:]:
            assert row["observed"] is None and row["predicted"] is not None
        assert rows[0]["date"] == "2021-01-01"
        assert rows[4]["date"] == "2021-01-05"

    def test_linear_scale_passthrough(self):
        history = tiny_series([7])
        report = forecast(linear_model(1.0, 0.0), 0, Date(2021, 1, 2), horizon=1)
        rows = emit_plot_series(history, report, scale="linear", target="confirmed")
        assert rows[0]["scale"] == 7.0
        assert rows[1]["scale"] == float(rows[1]["predicted"])

    def test_log_scale_offsets_by_one(self):
        history = tiny_series([0, 99])
        report = forecast(linear_model(1.0, 0.0), 1, Date(2021, 1, 3), horizon=1)
        rows = emit_plot_series(history, report, scale="log", target="confirmed")
        assert rows[0]["scale"] == 0.0  # log10(0 + 1)
        assert rows[1]["scale"] == pytest.approx(2.0)  # log10(99 + 1)

    def test_missing_observation_keeps_null_scale(self):
        history = tiny_series([5, 6])  # deaths column empty
        report = forecast(
            linear_model(1.0, 0.0, target="deaths"), 1, Date(2021, 1, 3), horizon=1
        )
        rows = emit_plot_series(history, report, target="deaths")
        assert rows[0]["observed"] is None
        assert rows[0]["scale"] is None

    def test_target_override(self):
        history = tiny_series([5], deaths=[2])
        report = forecast(linear_model(1.0, 0.0), 0, Date(2021, 1, 2), horizon=1)
        rows = emit_plot_series(history, report, target="deaths")
        assert rows[0]["observed"] == 2

    def test_unknown_scale_rejected(self):
        history = tiny_series([1])
        report = forecast(linear_model(1.0, 0.0), 0, Date(2021, 1, 2), horizon=1)
        with pytest.raises(InputError):
            emit_plot_series(history, report, scale="sqrt", target="confirmed")

