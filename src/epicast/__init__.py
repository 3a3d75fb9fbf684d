"""Regression and forecasting toolkit for daily epidemic case-count series.

Three model families (feed-forward MLP, epsilon-SVR, gradient-descent
linear regression) built from scratch over numpy, a shared preprocessing
and evaluation protocol, horizon forecasting and scenario analysis, and a
batch CLI that emits machine-readable reports.

Importing the package loads none of its modules and not numpy: each name
below is imported from its module on first access (PEP 562), so a command
pays only for the modules it runs, and ``epicast.cli`` can set the BLAS
thread count before numpy loads.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "dataset": (
        "CaseSeries", "CsvSchema", "SummaryStats", "fingerprint", "impute_missing",
        "parse_csv", "serialize_csv", "summarize", "summarize_series", "window",
    ),
    "errors": ("EpicastError", "InputError", "NotConvergedError", "NumericError"),
    "forecast": (
        "ForecastReport", "ScenarioResult", "emit_plot_series", "forecast",
        "forecast_raw", "scenario_run",
    ),
    "harness": (
        "ComparisonReport", "GridCell", "RegressorSlot", "ScoreTable",
        "compare_models", "default_grid", "run_grid", "select_best",
    ),
    "linear": ("LinRegConfig", "LinRegParams", "linreg_fit", "linreg_predict", "ols_closed_form"),
    "manifest": ("replay_manifest", "strip_timestamps"),
    "metrics": ("EvalResult", "evaluate", "mse", "r2_score"),
    "mlp": (
        "ActivationKind", "MlpConfig", "MlpParams", "forward", "init_params",
        "loss_and_gradient", "train_mlp",
    ),
    "models": (
        "TrainedModel", "load_model", "model_from_dict", "model_to_dict",
        "original_space_eval", "predict_raw", "predict_scaled", "save_model",
        "train_on_split",
    ),
    "optimizers": (
        "MinimizeResult", "adam_minimize", "lbfgs_minimize", "sgd_minimize",
        "two_loop_direction",
    ),
    "preprocess": (
        "ScalerParams", "SplitSpec", "StandardizedSplit", "SupervisedSet",
        "build_supervised", "fit_scaler", "inverse_transform", "split",
        "standardized_split", "transform",
    ),
    "svr": (
        "KernelSpec", "SvrConfig", "SvrParams", "gram_matrix", "resolve_gamma",
        "svr_fit", "svr_predict",
    ),
    "synthetic": ("SyntheticSpec", "synthetic_epidemic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        # also how ``from epicast import cli`` learns to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package module. Once a submodule loads, the import system sets
    the package attribute of the submodule's name to it; a name the package
    re-exports from that very submodule (``forecast``, the function of
    ``epicast.forecast``) keeps the re-exported value instead."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in _MODULE_OF:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
