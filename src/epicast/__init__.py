"""Regression and forecasting toolkit for daily epidemic case-count series.

Three model families (feed-forward MLP, epsilon-SVR, gradient-descent
linear regression) built from scratch over numpy, a shared preprocessing
and evaluation protocol, horizon forecasting and scenario analysis, and a
batch CLI that emits machine-readable reports.
"""

from .dataset import (
    CaseSeries,
    CsvSchema,
    SummaryStats,
    fingerprint,
    impute_missing,
    parse_csv,
    serialize_csv,
    summarize,
    summarize_series,
    window,
)
from .errors import (
    EpicastError,
    InputError,
    NotConvergedError,
    NumericError,
)
from .forecast import (
    ForecastReport,
    ScenarioResult,
    emit_plot_series,
    forecast,
    forecast_raw,
    scenario_run,
)
from .harness import (
    ComparisonReport,
    GridCell,
    RegressorSlot,
    ScoreTable,
    compare_models,
    default_grid,
    run_grid,
    select_best,
)
from .linear import LinRegConfig, LinRegParams, linreg_fit, linreg_predict, ols_closed_form
from .manifest import replay_manifest, strip_timestamps
from .metrics import EvalResult, evaluate, mse, r2_score
from .mlp import (
    ActivationKind,
    MlpConfig,
    MlpParams,
    forward,
    init_params,
    loss_and_gradient,
    train_mlp,
)
from .models import (
    TrainedModel,
    load_model,
    model_from_dict,
    model_to_dict,
    original_space_eval,
    predict_raw,
    predict_scaled,
    save_model,
    train_on_split,
)
from .optimizers import (
    MinimizeResult,
    adam_minimize,
    lbfgs_minimize,
    sgd_minimize,
    two_loop_direction,
)
from .preprocess import (
    ScalerParams,
    SplitSpec,
    StandardizedSplit,
    SupervisedSet,
    build_supervised,
    fit_scaler,
    inverse_transform,
    split,
    standardized_split,
    transform,
)
from .svr import (
    KernelSpec,
    SvrConfig,
    SvrParams,
    gram_matrix,
    resolve_gamma,
    svr_fit,
    svr_predict,
)
from .synthetic import SyntheticSpec, synthetic_epidemic

__version__ = "0.1.0"
