"""Horizon forecasts, windowed scenario runs and plot-ready tables.

Forecasting is direct, not recursive: the models map day_index to a count,
so every future day is predicted independently from its own index and no
prediction is fed back in. Reports present clamped (at zero) and rounded
integer counts; raw real-valued predictions stay available for metrics.
Reports and plot rows hold values (dates as ``date`` objects) until the CLI
writes them: a ForecastReport goes to JSON field by field through
``models.plain``, each prediction as a {"date", "predicted"} object, and
plot rows go to CSV as records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from typing import NamedTuple

import numpy as np

from .dataset import CaseSeries, horizon_dates, window
from .errors import InputError
from .harness import GRID_TARGETS
from .metrics import EvalResult
from .models import FamilyConfig, TrainedModel, predict_raw, train_on_split
from .preprocess import SplitSpec, build_supervised, standardized_split

SCALES = ("linear", "log")


class Prediction(NamedTuple):
    """One forecast day: its date and its clamped, rounded count."""

    date: Date
    predicted: int


@dataclass(frozen=True)
class ForecastReport:
    """Integer per-day predictions over a horizon plus their min/max range."""

    start_date: Date
    horizon_days: int
    predictions: tuple[Prediction, ...]
    range_min: int
    range_max: int
    model_id: str
    scenario_label: str = ""


def _require_day_index_only(model: TrainedModel) -> None:
    if model.feature_names != ("day_index",):
        raise InputError(
            f"cannot extrapolate features {model.feature_names}; horizon "
            "forecasting needs a model trained on day_index alone (future "
            "covariate series are not supported)"
        )


def forecast_raw(
    model: TrainedModel, last_day_index: int, horizon: int
) -> np.ndarray:
    """Real-valued original-unit predictions for the next `horizon` days."""
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    _require_day_index_only(model)
    future = np.arange(1, horizon + 1, dtype=float) + float(last_day_index)
    return predict_raw(model, future[:, None])


def forecast(
    model: TrainedModel,
    last_day_index: int,
    start_date: Date,
    horizon: int,
    *,
    scenario_label: str = "",
) -> ForecastReport:
    """Per-day integer forecast report, model_id ``family:target``; clamp
    at zero, then round.

    Day h of the horizon (1-based) is predicted from day_index
    last_day_index + h and dated start_date + (h - 1); a date past
    9999-12-31 is an InputError, raised before anything is predicted.
    """
    dates = [start_date, *horizon_dates(start_date, horizon - 1)]
    raw = forecast_raw(model, last_day_index, horizon)
    clamped = np.maximum(raw, 0.0)
    counts = [int(math.floor(v + 0.5)) for v in clamped]
    return ForecastReport(
        start_date=start_date,
        horizon_days=horizon,
        predictions=tuple(map(Prediction, dates, counts)),
        range_min=min(counts),
        range_max=max(counts),
        model_id=f"{model.family}:{model.target_name}",
        scenario_label=scenario_label,
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Per-target model, evaluation and forecast for one windowed scenario."""

    label: str
    windowed: CaseSeries  # the window's rows, day_index re-based to 0
    models: dict[str, TrainedModel]  # target -> the model fit on the window
    evals: dict[str, EvalResult]  # target -> scaled-space scores
    reports: dict[str, ForecastReport]

    @property
    def window_start(self) -> Date:
        return self.windowed.first_date

    @property
    def window_end(self) -> Date:
        return self.windowed.last_date


def scenario_run(
    series: CaseSeries,
    window_start: Date,
    window_end: Date,
    family: str,
    config: FamilyConfig,
    split_spec: SplitSpec,
    horizon: int,
    *,
    label: str = "scenario",
) -> ScenarioResult:
    """Window the series, train per target, evaluate, forecast the horizon.

    The same family/config is fit once per target (confirmed, deaths) on
    the windowed data with indices re-based to the window start. The
    forecast begins the day after the window ends; a horizon below 1 or
    one that runs past 9999-12-31 is an InputError, raised before any fit.
    """
    part = window(series, window_start, window_end)
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    start_date = horizon_dates(part.last_date, horizon)[0]
    models: dict[str, TrainedModel] = {}
    evals: dict[str, EvalResult] = {}
    reports: dict[str, ForecastReport] = {}
    for target in GRID_TARGETS:
        data = build_supervised(part, ("day_index",), target)
        std = standardized_split(data, split_spec)
        models[target], evals[target] = train_on_split(
            family, config, std, ("day_index",), target
        )
        reports[target] = forecast(
            models[target],
            last_day_index=part.last_day_index,
            start_date=start_date,
            horizon=horizon,
            scenario_label=label,
        )
    return ScenarioResult(
        label=label,
        windowed=part,
        models=models,
        evals=evals,
        reports=reports,
    )


def emit_plot_series(
    history: CaseSeries,
    report: ForecastReport,
    scale: str = "linear",
    *,
    target: str,
) -> list[dict]:
    """One table of history rows followed by forecast rows, as records.

    Columns: date (a ``date``), observed (None on forecast rows), predicted
    (None on history rows), scale (the scale-transformed display value of
    whichever of the two is present; log maps v to log10(v + 1) so zeros
    plot). ``target`` picks the observed column.
    """
    if scale not in SCALES:
        raise InputError(f"unknown scale {scale!r}; use linear or log")

    def display(v: float) -> float:
        return float(np.log10(v + 1.0)) if scale == "log" else float(v)

    rows: list[dict] = []
    for day, obs in zip(history.dates, history.column(target)):
        rows.append(
            {
                "date": day,
                "observed": obs,
                "predicted": None,
                "scale": None if obs is None else display(obs),
            }
        )
    for d, v in report.predictions:
        rows.append(
            {
                "date": d,
                "observed": None,
                "predicted": v,
                "scale": display(v),
            }
        )
    return rows

