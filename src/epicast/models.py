"""One interface over the three model families, plus model (de)serialization.

A TrainedModel bundles the fitted parameters with the scalers and column
names it was trained against, so prediction from raw feature values and
faithful save/load round trips are possible without extra context. The
on-disk form is a JSON envelope, version 1, with all arrays as nested
row-major lists. ``plain`` is the one way from a result to JSON: it writes
model documents and every command's report, field by field.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import date as Date
from typing import Any, Callable, NoReturn

import numpy as np

from .dataset import read_text
from .errors import InputError, NumericError
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
        return self.train_meta["converged"]


@dataclass(frozen=True)
class Family:
    """Everything that differs between model families.

    ``config`` is the family's config class, ``fit`` maps (config,
    standardized train set) to (params, train_meta) and ``predict`` maps
    (model, standardized 2-D features) to standardized predictions.
    ``params_from_dict`` reads the "params" section of the model document
    for the given number of features and raises ValueError unless the
    arrays fit a design that wide.
    """

    config: type
    fit: Callable[[Any, SupervisedSet], tuple[Any, dict]]
    predict: Callable[[TrainedModel, np.ndarray], np.ndarray]
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


def plain(value: Any) -> Any:
    """value as the reports and model documents write it, walked in turn: a
    dataclass as a dict of its fields in order, each keyed by its
    ``metadata["key"]`` or else its name; a named tuple as a dict of its
    fields; a dict by its values; an ndarray, tuple or list as a list; a
    date in ISO form."""
    if dataclasses.is_dataclass(value):
        return {
            f.metadata.get("key", f.name): plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {k: plain(v) for k, v in zip(value._fields, value)}
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, Date):
        return value.isoformat()
    return value


def config_from_dict(cls: type, d: dict) -> Any:
    """The config of class cls from the "config" section of a model
    document; a field that holds a config (SvrConfig.kernel) is built the
    same way, and an absent field keeps its default."""
    values = {**d}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default) and f.name in values:
            values[f.name] = config_from_dict(type(f.default), values[f.name])
    return cls(**values)


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


def _number(value: Any) -> int | float:
    """value, if it is a JSON number: not a bool or a string that float()
    would also read."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return value


def _svr_params_from_dict(p: dict, width: int) -> SvrParams:
    if not isinstance(p["converged"], bool):
        raise ValueError(f"converged {p['converged']!r} is not a boolean")
    passes = _number(p["passes"])
    if passes < 0 or passes != int(passes):
        raise ValueError(f"passes {passes!r} is not a count")
    sv = _array(p["support_vectors"])
    params = SvrParams(
        alphas=_array(p["alphas"]),
        bias=float(_number(p["bias"])),
        support_vectors=sv if sv.ndim == 2 else sv.reshape(0, width),
        support_coefs=_array(p["support_coefs"]),
        kernel=KernelSpec(**p["kernel"]),
        converged=p["converged"],
        passes=int(passes),
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
        config=MlpConfig,
        fit=_fit_mlp,
        predict=lambda m, xs: forward(
            m.params, ActivationKind(m.config.activation), xs
        ),
        params_from_dict=_mlp_params_from_dict,
    ),
    "svr": Family(
        config=SvrConfig,
        fit=_fit_svr,
        predict=lambda m, xs: svr_predict(m.params, xs),
        params_from_dict=_svr_params_from_dict,
    ),
    "linreg": Family(
        config=LinRegConfig,
        fit=_fit_linreg,
        predict=lambda m, xs: linreg_predict(m.params, xs),
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
        raise InputError(
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
    return {"version": MODEL_DOC_VERSION, **plain(model)}


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
        meta = doc["train_meta"]
        if not isinstance(meta, dict) or not isinstance(meta.get("converged"), bool):
            raise ValueError('train_meta needs a boolean "converged"')
        return TrainedModel(
            family=name,
            config=config_from_dict(family.config, doc["config"]),
            params=family.params_from_dict(doc["params"], width),
            x_scaler=_scaler_from_dict(doc, "x_scaler", width),
            y_scaler=_scaler_from_dict(doc, "y_scaler", 1),
            feature_names=feature_names,
            target_name=doc["target_name"],
            train_meta=dict(meta),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise InputError(f"malformed model document: {err!r}") from None


def _non_finite(node: Any, path: str = "") -> str | None:
    """'<dotted path> is <value>' for the first NaN or infinite float in
    node, walked in the order json.dumps writes it; None if there is none."""
    if isinstance(node, float) and not math.isfinite(node):
        return f"{path} is {float(node)!r}"
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, (list, tuple)):
        children = enumerate(node)
    else:
        return None
    for key, child in children:
        found = _non_finite(child, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def json_text(document: dict) -> str:
    """Indented JSON with a final newline; a NaN or infinite number in the
    document raises NumericError naming its dotted path, before any file
    is opened for it."""
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        where = _non_finite(document) or str(err)
        raise NumericError(f"cannot write a non-finite number as JSON: {where}") from None


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
