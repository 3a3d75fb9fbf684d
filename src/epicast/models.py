"""One interface over the three model families, plus model (de)serialization.

A TrainedModel bundles the fitted parameters with the scalers and column
names it was trained against, so prediction from raw feature values and
faithful save/load round trips are possible without extra context. The
on-disk form is a JSON envelope, version 1, with all arrays as nested
row-major lists. ``plain`` is the one way from a result to JSON: it writes
model documents and every command's report, field by field. ``read`` is the
way back for model documents, typed by the dataclass annotations, and
``schema`` the third walk over them: the JSON Schema of what ``read``
takes, from which ``model_schema`` builds docs/schemas/model.schema.json.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import date as Date
from typing import AbstractSet, Any, Callable, NoReturn, TypedDict, is_typeddict
from typing import get_args, get_origin, get_type_hints

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
from .svr import SvrConfig, SvrParams, svr_fit, svr_predict

MODEL_DOC_VERSION = 1

FamilyConfig = MlpConfig | SvrConfig | LinRegConfig
FamilyParams = MlpParams | SvrParams | LinRegParams


class _FitOutcome(TypedDict):
    status: str
    converged: bool


class FitMeta(_FitOutcome, total=False):
    """What a fit says about itself, a model's ``train_meta``: how it ended,
    whether that counts as converged, and the counts its family keeps."""

    iterations: int
    final_loss: float  # MLP
    support_vectors: int  # SVR


@dataclass(frozen=True)
class TrainedModel:
    family: str
    config: FamilyConfig
    params: FamilyParams
    x_scaler: ScalerParams
    y_scaler: ScalerParams
    feature_names: tuple[str, ...]
    target_name: str
    train_meta: FitMeta

    @property
    def converged(self) -> bool:
        return self.train_meta["converged"]


@dataclass(frozen=True)
class Family:
    """Everything that differs between model families.

    ``config`` and ``params`` are the family's classes, ``fit`` maps (config,
    standardized train set) to (params, train_meta) and ``predict`` maps
    (model, standardized 2-D features) to standardized predictions. ``check``
    maps (config, params, number of features) read from a model document to
    the params, raising ValueError unless they are what a fit of that
    config on a design that wide gives: its array shapes and its kernel.
    """

    config: type
    params: type
    fit: Callable[[Any, SupervisedSet], tuple[Any, FitMeta]]
    predict: Callable[[TrainedModel, np.ndarray], np.ndarray]
    check: Callable[[Any, Any, int], Any]


# The fit helpers call the solvers through this module's globals at call
# time, so a caller that rebinds e.g. ``models.svr_fit`` sees every fit.
def _fit_mlp(config: MlpConfig, train: SupervisedSet) -> tuple[MlpParams, FitMeta]:
    params, result = train_mlp(config, train.x, train.y)
    return params, {
        "status": result.status,
        "iterations": result.iterations,
        "final_loss": result.trace[-1],
        "converged": result.status in ("converged", "stalled"),
    }


def _fit_svr(config: SvrConfig, train: SupervisedSet) -> tuple[SvrParams, FitMeta]:
    params = svr_fit(train.x, train.y, config)
    return params, {
        "status": "converged" if params.converged else "pass_budget_exhausted",
        "iterations": params.passes,
        "support_vectors": int(params.support_coefs.size),
        "converged": params.converged,
    }


def _fit_linreg(
    config: LinRegConfig, train: SupervisedSet
) -> tuple[LinRegParams, FitMeta]:
    params = linreg_fit(train.x, train.y, config)
    return params, {
        "status": "completed",
        "iterations": config.iterations,
        "converged": True,
    }


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


def _fields(cls: Any, partial: bool) -> tuple[dict[str, Any], AbstractSet[str]]:
    """The annotated fields of a dataclass or TypedDict cls, and those of them
    that a JSON object of cls must hold: none if partial, a TypedDict's
    required keys, else all."""
    fields = get_type_hints(cls)
    return fields, frozenset() if partial else getattr(cls, "__required_keys__", fields.keys())


def read(cls: Any, value: Any, path: str, partial: bool = False) -> Any:
    """The cls that ``plain`` writes as value, read back by cls's
    annotations: a dataclass from an object of its fields, all of them or,
    with partial (a config section), any, the rest keeping their defaults;
    a TypedDict, as a plain dict, from an object of its keys, the required
    ones at least; ``T | None`` from null or a T; ``tuple[T, ...]`` from a
    list of T; an ndarray from nested lists of numbers; a float from a
    number, an int from a whole number, and a bool or a str only from that
    JSON type. Any other value raises TypeError, an unknown or missing key
    ValueError, and so does a dataclass that rejects its fields (an
    InputError such as a scaler's DimensionMismatch included). Each error
    begins with the dotted path of the value it rejects, ``path`` for value
    itself, then a field's name or a list's index per level."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    whole = number and (isinstance(value, int) or value.is_integer())
    if cls in (float, int) and number and (cls is float or whole):
        return cls(value)
    if cls in (bool, str) and isinstance(value, cls):
        return value
    args = get_args(cls)
    if dataclasses.is_dataclass(cls) or is_typeddict(cls):
        if not isinstance(value, dict):
            raise TypeError(f"{path}: {cls.__name__} needs a JSON object, not {value!r}")
        fields, required = _fields(cls, partial)
        if value.keys() - fields.keys() or not value.keys() >= required:
            raise ValueError(f"{path}: {cls.__name__} takes {list(fields)}, not {list(value)}")
        items = {k: read(fields[k], v, f"{path}.{k}", partial) for k, v in value.items()}
        try:
            return cls(**items)
        except (ValueError, InputError) as err:
            raise ValueError(f"{path}: {err}") from None
    if type(None) in args:
        return None if value is None else read(args[0], value, path, partial)
    if get_origin(cls) is tuple and isinstance(value, list):
        return tuple(read(args[0], v, f"{path}.{i}", partial) for i, v in enumerate(value))
    if cls is np.ndarray and isinstance(value, list):
        items = [
            read(cls if isinstance(v, list) else float, v, f"{path}.{i}")
            for i, v in enumerate(value)
        ]
        return np.array(items, dtype=float)
    kind = {float: "number", int: "whole number", bool: "boolean", str: "string"}
    raise TypeError(f"{path}: {value!r} is not a {kind.get(cls, 'list')}")


JSON_TYPES = {float: "number", int: "integer", bool: "boolean", str: "string"}


def schema(cls: Any, partial: bool = False) -> dict:
    """The JSON Schema of the values that ``read(cls, value, path, partial)``
    takes, by the same walk of cls's annotations: a dataclass or TypedDict
    as an object of its fields in order, those that read needs required and
    no others allowed, and a field's ``metadata["choices"]`` as an enum;
    ``T | None`` as a T or null; ``tuple[T, ...]`` as an array of T; an
    ndarray as ``#/$defs/ndarray``, nested arrays of numbers of any depth
    (``model_schema`` defines it); float, int, bool and str as number,
    integer, boolean and string. Ranges, shapes and the agreement of one
    field with another are left to the reader."""
    if cls in JSON_TYPES:
        return {"type": JSON_TYPES[cls]}
    args = get_args(cls)
    if dataclasses.is_dataclass(cls) or is_typeddict(cls):
        fields, required = _fields(cls, partial)
        choices = {
            f.name: {"enum": list(f.metadata["choices"])}
            for f in (dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ())
            if "choices" in f.metadata
        }
        return {
            "type": "object",
            "properties": {k: choices.get(k) or schema(t, partial) for k, t in fields.items()},
            "required": [k for k in fields if k in required],
            "additionalProperties": False,
        }
    if type(None) in args:
        return {"anyOf": [schema(args[0], partial), {"type": "null"}]}
    if get_origin(cls) is tuple:
        return {"type": "array", "items": schema(args[0], partial)}
    if cls is np.ndarray:
        return {"$ref": "#/$defs/ndarray"}
    raise TypeError(f"read takes no {cls!r}")


def _check_mlp(config: MlpConfig, params: MlpParams, width: int) -> MlpParams:
    # the counts first, so that a document's hidden_layers never sizes a list
    layers = config.hidden_layers + 1
    shapes = [(w.shape, b.shape) for w, b in zip(params.weights, params.biases)]
    if len(params.weights) != layers or len(params.biases) != layers or shapes != [
        (shape, shape[:1]) for shape in MlpParams.shapes(config, width)
    ]:
        raise ValueError(
            f"params: MLP layers do not have the shapes of config on {width} input columns"
        )
    return params


def _check_svr(config: SvrConfig, params: SvrParams, width: int) -> SvrParams:
    kernel = config.kernel
    if kernel.kind != "linear" and kernel.gamma is None:  # what resolve_gamma fills
        kernel = dataclasses.replace(kernel, gamma=params.kernel.gamma)
    if params.kernel != kernel:
        raise ValueError("params.kernel must be config.kernel with gamma resolved")
    if params.passes < 0:
        raise ValueError(f"params.passes: {params.passes} is not a count")
    if params.support_vectors.shape == (0,):  # [] is no rows of any width
        params = dataclasses.replace(params, support_vectors=np.empty((0, width)))
    rows, columns = params.support_vectors.shape
    if columns != width or params.support_coefs.shape != (rows,) or params.alphas.ndim != 1:
        raise ValueError(
            f"params: support vectors need {width} columns and one support coef per row,"
            " and alphas one entry per training row"
        )
    if params.kernel.kind != "linear" and params.kernel.gamma is None:
        raise ValueError("params.kernel.gamma is unresolved")
    return params


def _check_linreg(config: LinRegConfig, params: LinRegParams, width: int) -> LinRegParams:
    if params.slope.shape != (width,):
        raise ValueError(f"params.slope needs {width} entries")
    return params


def _scaler_from_dict(doc: dict, name: str, width: int) -> ScalerParams:
    """The scaler ``doc[name]``: its scales must lie between the floor that
    fit_scaler writes for a constant column and MAX_SCALE, and its means
    within MAX_SCALE of zero."""
    scaler = read(ScalerParams, doc[name], name)
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
        params=MlpParams,
        fit=_fit_mlp,
        predict=lambda m, xs: forward(
            m.params, ActivationKind(m.config.activation), xs
        ),
        check=_check_mlp,
    ),
    "svr": Family(
        config=SvrConfig,
        params=SvrParams,
        fit=_fit_svr,
        predict=lambda m, xs: svr_predict(m.params, xs),
        check=_check_svr,
    ),
    "linreg": Family(
        config=LinRegConfig,
        params=LinRegParams,
        fit=_fit_linreg,
        predict=lambda m, xs: linreg_predict(m.params, xs),
        check=_check_linreg,
    ),
}

FAMILIES = tuple(FAMILY_TABLE)


def model_schema() -> dict:
    """The JSON Schema of a model document, committed as
    docs/schemas/model.schema.json: the envelope's fields by ``schema``,
    and config (partial) and params by the classes of the family the
    document names, one ``oneOf`` branch per family."""
    fields = get_type_hints(TrainedModel)
    per_family = {"family": {"enum": list(FAMILIES)}, "config": {}, "params": {}}
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": "https://epicast.example/schemas/model.schema.json",
        "title": f"saved model document, version {MODEL_DOC_VERSION}",
        "type": "object",
        "properties": {
            "version": {"const": MODEL_DOC_VERSION},
            **{k: per_family[k] if k in per_family else schema(t) for k, t in fields.items()},
        },
        "required": ["version", *fields],
        "additionalProperties": False,
        "oneOf": [
            {
                "properties": {
                    "family": {"const": name},
                    "config": schema(family.config, partial=True),
                    "params": schema(family.params),
                }
            }
            for name, family in FAMILY_TABLE.items()
        ],
        "$defs": {
            "ndarray": {
                "type": "array",
                "items": {"anyOf": [{"type": "number"}, {"$ref": "#/$defs/ndarray"}]},
            }
        },
    }


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
    version = doc.get("version")
    if isinstance(version, bool) or version != MODEL_DOC_VERSION:
        raise InputError(f"unsupported model document version {version!r}")
    name = doc.get("family")
    family = lookup_family(name)
    try:
        if doc.keys() - {"version", *get_type_hints(TrainedModel)}:
            raise ValueError(f"{list(doc)} are not the keys of a model document")
        feature_names = read(tuple[str, ...], doc["feature_names"], "feature_names")
        if not feature_names:
            raise ValueError("feature_names is empty")
        width = len(feature_names)
        meta = read(FitMeta, doc["train_meta"], "train_meta")
        config = read(family.config, doc["config"], "config", partial=True)
        return TrainedModel(
            family=name,
            config=config,
            params=family.check(config, read(family.params, doc["params"], "params"), width),
            x_scaler=_scaler_from_dict(doc, "x_scaler", width),
            y_scaler=_scaler_from_dict(doc, "y_scaler", 1),
            feature_names=feature_names,
            target_name=read(str, doc["target_name"], "target_name"),
            train_meta=meta,
        )
    except KeyError as err:
        raise InputError(f"malformed model document: no {err} section") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"malformed model document: {err}") from None


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
