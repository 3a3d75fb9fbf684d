"""One interface over the three model families, plus model (de)serialization.

A TrainedModel bundles the fitted parameters with the scalers and column
names it was trained against, so prediction from raw feature values and
faithful save/load round trips are possible without extra context. The
on-disk form is a JSON envelope, version 1, with all arrays as nested
row-major lists.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, NoReturn

import numpy as np

from .dataset import read_text
from .errors import FeatureMismatch, InputError, NumericError
from .linear import LinRegConfig, LinRegParams, linreg_fit, linreg_predict
from .metrics import EvalResult, evaluate
from .mlp import ActivationKind, MlpConfig, MlpParams, forward, train_mlp
from .preprocess import (
    EPSILON_FLOOR,
    MAX_SCALE,
    ScalerParams,
    StandardizedSplit,
    SupervisedSet,
    as_design,
    inverse_transform,
    transform,
)
from .svr import KernelSpec, SvrConfig, SvrParams, svr_fit, svr_predict

MODEL_DOC_VERSION = 1

FamilyConfig = MlpConfig | SvrConfig | LinRegConfig
FamilyParams = MlpParams | SvrParams | LinRegParams


@dataclass(frozen=True)
class TrainedModel:
    family: str
    config: FamilyConfig
    params: FamilyParams
    x_scaler: ScalerParams
    y_scaler: ScalerParams
    feature_names: tuple[str, ...]
    target_name: str
    train_meta: dict

    @property
    def converged(self) -> bool:
        return bool(self.train_meta.get("converged", True))


@dataclass(frozen=True)
class Family:
    """Everything that differs between model families.

    ``fit`` maps (config, standardized train set) to (params, train_meta);
    ``predict`` maps (model, standardized 2-D features) to standardized
    predictions. The dict converters read and write the "config" and
    "params" sections of the model document; ``params_from_dict`` also
    takes the number of features and raises ValueError unless the arrays
    fit a design that wide.
    """

    config_from_dict: Callable[[dict], Any]
    fit: Callable[[Any, SupervisedSet], tuple[Any, dict]]
    predict: Callable[[TrainedModel, np.ndarray], np.ndarray]
    params_to_dict: Callable[[Any], dict]
    params_from_dict: Callable[[dict, int], Any]


# The fit helpers call the solvers through this module's globals at call
# time, so a caller that rebinds e.g. ``models.svr_fit`` sees every fit.
def _fit_mlp(config: MlpConfig, train: SupervisedSet) -> tuple[MlpParams, dict]:
    params, result = train_mlp(config, train.x, train.y)
    return params, {
        "status": result.status,
        "iterations": result.iterations,
        "final_loss": result.trace[-1],
        "converged": result.status in ("converged", "stalled"),
    }


def _fit_svr(config: SvrConfig, train: SupervisedSet) -> tuple[SvrParams, dict]:
    params = svr_fit(train.x, train.y, config)
    return params, {
        "status": "converged" if params.converged else "pass_budget_exhausted",
        "iterations": params.passes,
        "support_vectors": int(params.support_coefs.size),
        "converged": params.converged,
    }


def _fit_linreg(
    config: LinRegConfig, train: SupervisedSet
) -> tuple[LinRegParams, dict]:
    params = linreg_fit(train.x, train.y, config)
    return params, {
        "status": "completed",
        "iterations": config.iterations,
        "converged": True,
    }


def _array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _svr_params_to_dict(p: SvrParams) -> dict:
    return {
        "alphas": p.alphas.tolist(),
        "bias": p.bias,
        "support_vectors": p.support_vectors.tolist(),
        "support_coefs": p.support_coefs.tolist(),
        "kernel": dataclasses.asdict(p.kernel),
        "converged": p.converged,
        "passes": p.passes,
    }


def _mlp_params_from_dict(p: dict, width: int) -> MlpParams:
    params = MlpParams(
        weights=tuple(_array(w) for w in p["weights"]),
        biases=tuple(_array(b) for b in p["biases"]),
    )
    broken = ValueError(f"MLP layers do not chain {width} input columns to one output")
    rows = width
    for w, b in zip(params.weights, params.biases):
        if w.ndim != 2 or w.shape[1] != rows or b.shape != w.shape[:1]:
            raise broken
        rows = w.shape[0]
    if not params.weights or len(params.biases) != len(params.weights) or rows != 1:
        raise broken
    return params


def _svr_params_from_dict(p: dict, width: int) -> SvrParams:
    sv = _array(p["support_vectors"])
    params = SvrParams(
        alphas=_array(p["alphas"]),
        bias=float(p["bias"]),
        support_vectors=sv if sv.ndim == 2 else sv.reshape(0, width),
        support_coefs=_array(p["support_coefs"]),
        kernel=KernelSpec(**p["kernel"]),
        converged=bool(p["converged"]),
        passes=int(p["passes"]),
    )
    rows, columns = params.support_vectors.shape
    if columns != width or params.support_coefs.shape != (rows,):
        raise ValueError(
            f"support vectors need {width} columns and one support coef per row"
        )
    if params.kernel.kind != "linear" and params.kernel.gamma is None:
        raise ValueError("the kernel's gamma is unresolved")
    return params


def _linreg_params_from_dict(p: dict, width: int) -> LinRegParams:
    params = LinRegParams(slope=_array(p["slope"]), intercept=float(p["intercept"]))
    if params.slope.shape != (width,):
        raise ValueError(f"slope needs {width} entries")
    return params


def _scaler_from_dict(doc: dict, name: str, width: int) -> ScalerParams:
    """The scaler ``doc[name]``: its scales must lie between the floor that
    fit_scaler writes for a constant column and MAX_SCALE, and its means
    within MAX_SCALE of zero."""
    d = doc[name]
    scaler = ScalerParams(mean=_array(d["mean"]), scale=_array(d["scale"]))
    if scaler.mean.shape != (width,):
        raise ValueError(f"{name} needs {width} columns")
    if not np.all((scaler.scale >= EPSILON_FLOOR) & (scaler.scale <= MAX_SCALE)):
        raise ValueError(
            f"{name} scales must lie between {EPSILON_FLOOR:g} and {MAX_SCALE:.6g}"
        )
    if not np.all(np.abs(scaler.mean) <= MAX_SCALE):
        raise ValueError(
            f"{name} means must lie between -{MAX_SCALE:.6g} and {MAX_SCALE:.6g}"
        )
    return scaler


FAMILY_TABLE: dict[str, Family] = {
    "mlp": Family(
        config_from_dict=lambda d: MlpConfig(**d),
        fit=_fit_mlp,
        predict=lambda m, xs: forward(
            m.params, ActivationKind(m.config.activation), xs
        ),
        params_to_dict=lambda p: {
            "weights": [w.tolist() for w in p.weights],
            "biases": [b.tolist() for b in p.biases],
        },
        params_from_dict=_mlp_params_from_dict,
    ),
    "svr": Family(
        config_from_dict=lambda d: SvrConfig(
            **{**d, "kernel": KernelSpec(**d["kernel"])}
        ),
        fit=_fit_svr,
        predict=lambda m, xs: svr_predict(m.params, xs),
        params_to_dict=_svr_params_to_dict,
        params_from_dict=_svr_params_from_dict,
    ),
    "linreg": Family(
        config_from_dict=lambda d: LinRegConfig(**d),
        fit=_fit_linreg,
        predict=lambda m, xs: linreg_predict(m.params, xs),
        params_to_dict=lambda p: {
            "slope": p.slope.tolist(),
            "intercept": p.intercept,
        },
        params_from_dict=_linreg_params_from_dict,
    ),
}

FAMILIES = tuple(FAMILY_TABLE)


def lookup_family(name: str) -> Family:
    try:
        return FAMILY_TABLE[name]
    except (KeyError, TypeError):
        raise InputError(f"unknown model family {name!r}; valid: {FAMILIES}") from None


def train_on_split(
    family: str,
    config: FamilyConfig,
    split: StandardizedSplit,
    feature_names: tuple[str, ...],
    target_name: str,
) -> tuple[TrainedModel, EvalResult]:
    """Fit on the standardized train half, score R2/MSE on the test half."""
    params, meta = lookup_family(family).fit(config, split.train)
    model = TrainedModel(
        family=family,
        config=config,
        params=params,
        x_scaler=split.x_scaler,
        y_scaler=split.y_scaler,
        feature_names=tuple(feature_names),
        target_name=target_name,
        train_meta=meta,
    )
    result = evaluate(split.test.y, predict_scaled(model, split.test.x))
    return model, result


def _finite(predictions: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(predictions)):
        raise NumericError("the model's predictions are not finite")
    return predictions


def predict_scaled(model: TrainedModel, x_scaled: np.ndarray) -> np.ndarray:
    """Predictions in standardized target units from standardized features;
    a non-finite prediction raises NumericError."""
    xs = as_design(x_scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(lookup_family(model.family).predict(model, xs))


def predict_raw(model: TrainedModel, x_raw: np.ndarray) -> np.ndarray:
    """Raw features in, original-unit (real-valued) predictions out; a
    non-finite prediction raises NumericError."""
    xs = as_design(x_raw)
    if xs.shape[1] != len(model.feature_names):
        raise FeatureMismatch(
            f"model expects features {model.feature_names}, got {xs.shape[1]} columns"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = predict_scaled(model, transform(xs, model.x_scaler))
        return _finite(inverse_transform(scaled, model.y_scaler))


def original_space_eval(model: TrainedModel, scaled: EvalResult) -> EvalResult:
    """Same fit viewed in original units: mse scales by sigma_y^2, r2 is unchanged."""
    sigma = float(model.y_scaler.scale[0])
    return EvalResult(
        mse=scaled.mse * sigma * sigma, r2=scaled.r2, n=scaled.n, space="original"
    )


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "version": MODEL_DOC_VERSION,
        "family": model.family,
        "config": dataclasses.asdict(model.config),
        "params": lookup_family(model.family).params_to_dict(model.params),
        "x_scaler": {
            "mean": model.x_scaler.mean.tolist(),
            "scale": model.x_scaler.scale.tolist(),
        },
        "y_scaler": {
            "mean": model.y_scaler.mean.tolist(),
            "scale": model.y_scaler.scale.tolist(),
        },
        "feature_names": list(model.feature_names),
        "target_name": model.target_name,
        "train_meta": model.train_meta,
    }


def model_from_dict(doc: dict) -> TrainedModel:
    """Rebuild a model document; any malformed document raises InputError,
    and so do arrays that do not fit together: scalers and params must fit
    one column per feature name, and the y scaler one column."""
    if not isinstance(doc, dict):
        raise InputError("model document must be a JSON object")
    if doc.get("version") != MODEL_DOC_VERSION:
        raise InputError(
            f"unsupported model document version {doc.get('version')!r}"
        )
    name = doc.get("family")
    family = lookup_family(name)
    try:
        feature_names = tuple(doc["feature_names"])
        width = len(feature_names)
        return TrainedModel(
            family=name,
            config=family.config_from_dict(doc["config"]),
            params=family.params_from_dict(doc["params"], width),
            x_scaler=_scaler_from_dict(doc, "x_scaler", width),
            y_scaler=_scaler_from_dict(doc, "y_scaler", 1),
            feature_names=feature_names,
            target_name=doc["target_name"],
            train_meta=dict(doc.get("train_meta", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise InputError(f"malformed model document: {err!r}") from None


def json_text(document: dict) -> str:
    """Indented JSON with a final newline; a NaN or infinite number in the
    document raises NumericError, before any file is opened for it."""
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise NumericError(f"cannot write a non-finite number as JSON: {err}") from None


def save_model(model: TrainedModel, path: str) -> None:
    text = json_text(model_to_dict(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a finite number")


def load_model(path: str) -> TrainedModel:
    """The model document at path; NaN and Infinity literals are input errors."""
    try:
        doc = json.loads(read_text(path), parse_constant=_reject_constant)
    except ValueError as err:
        raise InputError(f"{path} is not a JSON model document: {err}") from None
    return model_from_dict(doc)
