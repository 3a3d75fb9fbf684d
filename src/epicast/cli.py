"""Batch command-line surface.

Commands: stats, train, eval, grid, forecast, compare, scenario. Every
command reads CSV input, writes machine-readable outputs (JSON and/or
aligned CSV) under --out-dir, and prints its main JSON payload to stdout.
Exit codes: 0 ok (including completed runs with flagged grid cells),
2 input problem, 3 numeric failure, 4 non-convergence under --strict.

A command runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS says otherwise: this module sets OPENBLAS_NUM_THREADS=1
before it imports numpy, unless the user set either variable or numpy was
already loaded (and so read them).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from datetime import date as Date, datetime, timezone
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .dataset import (
    COUNT_COLUMNS,
    IMPUTE_POLICIES,
    CaseSeries,
    CsvSchema,
    fingerprint,
    horizon_dates,
    impute_missing,
    parse_csv,
    parse_date,
    read_text,
    summarize_series,
)
from .errors import InputError, NotConvergedError, NumericError
from .forecast import SCALES, emit_plot_series, forecast, scenario_run
from .harness import (
    GRID_TARGETS,
    REFERENCE_BEST_R2,
    ScoreTable,
    compare_models,
    default_grid,
    run_grid,
    select_best,
)
from .metrics import EvalResult, evaluate
from .mlp import MlpConfig
from .models import (
    FAMILIES,
    FAMILY_TABLE,
    TrainedModel,
    json_text,
    load_model,
    original_space_eval,
    plain,
    predict_scaled,
    save_model,
    train_on_split,
)
from .preprocess import (
    SPLIT_MODES,
    SplitSpec,
    build_supervised,
    standardized_split,
    transform,
)

GRID_COLUMNS = ("family", "slot", "target", "r2", "mse", "flagged", "flag_reason")

# A CSV table as records: one dict per row, keyed by column in column order.
Records = list[dict]


@contextmanager
def _output(path: Path):
    """An OSError in the block, which makes the directory of the output file
    at path or writes or renames that file, is an InputError that names it."""
    try:
        yield
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from None


def _write_csv(path: Path, records: Records) -> None:
    """Write records under a header of the first record's keys, one cell
    rule for every table: None is an empty cell, a date its ISO form (the
    ``str`` of a date) and a bool 0 or 1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(
            {k: int(v) if isinstance(v, bool) else v for k, v in r.items()}
            for r in records
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(
    args: argparse.Namespace,
    fp: dict | None,
    name: str,
    document: object,
    tables: dict[str, Records],
    model: tuple[TrainedModel, Path] | None = None,
) -> None:
    """Write every file a command leaves, all or none, then print its document.

    ``document`` is the command's result as values; ``models.plain`` turns
    it into JSON here, once. Finish the run manifest that ``main`` started
    and form ``<name>.json`` (the document plus that manifest). The files
    are ``model`` saved to its path, if given, and the report and the CSV
    tables that --format selects under --out-dir. Each is written to a
    temporary sibling, its directory made first, and only once all are
    written does ``os.replace`` move each onto its name. Two files with one
    target, a target that is a directory, a file that cannot be written
    (InputError) or a model document holding a non-finite number
    (NumericError) leave every target as it was; only a failure among the
    renames can leave a mix."""
    manifest = args._manifest
    manifest["input_fingerprint"] = fp
    manifest["timestamps"]["finished"] = _now()
    document = plain(document)
    text = json_text({**document, "manifest": manifest})
    out = Path(args.out_dir)
    files = [(model[1], lambda tmp: save_model(model[0], str(tmp)))] if model else []
    if args.format != "csv":
        files.append((out / f"{name}.json", lambda tmp: tmp.write_text(text, "utf-8")))
    if args.format != "json":
        files += [(out / f, lambda tmp, r=r: _write_csv(tmp, r)) for f, r in tables.items()]
    targets = [path.resolve() for path, _ in files]
    for (path, _), target in zip(files, targets):
        if path.is_dir():
            raise InputError(f"cannot write {path}: it is a directory")
        if targets.count(target) > 1:
            raise InputError(f"cannot write two files to {path}")
    temps: list[Path] = []
    try:
        for path, write in files:
            with _output(path):
                path.parent.mkdir(parents=True, exist_ok=True)
                temps.append(path.with_name(f".{path.name}.{os.getpid()}.{len(temps)}.tmp"))
                write(temps[-1])
        for (path, _), tmp in zip(files, temps):
            with _output(path):
                os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
    print(json.dumps(document, indent=2))


def _load_series(args: argparse.Namespace) -> CaseSeries:
    path = Path(args.csv)
    series = parse_csv(
        read_text(path),
        _config(CsvSchema, args),
        fill_gaps=args.fill_gaps,
        source_label=path.name,
    )
    # stats has no --impute: it describes the missing cells as the file has them
    policy = getattr(args, "impute", "none")
    if policy != "none" and len(series):
        series = impute_missing(series, policy)
    return series


def _split_spec(args: argparse.Namespace) -> SplitSpec:
    return SplitSpec(
        mode=args.split_mode, train_fraction=args.split_fraction, seed=args.seed
    )


def _config_snapshot(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)
    }


def _parse_date(text: str, flag: str) -> Date:
    try:
        return parse_date(text)
    except ValueError:
        raise InputError(f"{flag} must be an ISO date (YYYY-MM-DD), got {text!r}")


def _flag(f: dataclasses.Field) -> tuple[str | None, str | None]:
    """A config field's flag, ``metadata["flag"]`` or else --field-name, and
    its dest, ``metadata["dest"]`` or else the flag's; None for none."""
    flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
    return flag, f.metadata.get("dest", flag and flag[2:].replace("-", "_"))


def _add_config_flags(p: argparse.ArgumentParser, cls: type) -> None:
    """A flag for each field of the config class cls, in field order, with
    the field's default; a field that holds a config (SvrConfig.kernel)
    adds that config's flags. The field's metadata may give the flag's
    choices, its type (else the default's, or none with choices or for a
    str) and a flag_default in place of the field's default."""
    for f in dataclasses.fields(cls):
        meta, (flag, dest), kind = f.metadata, _flag(f), type(f.default)
        if dataclasses.is_dataclass(f.default):
            _add_config_flags(p, kind)
        elif flag is not None:
            p.add_argument(
                flag,
                dest=dest,
                type=meta.get("type", None if "choices" in meta or kind is str else kind),
                choices=meta.get("choices"),
                default=meta.get("flag_default", f.default),
                help=f"{cls.__name__}.{f.name}",
            )


def _config(cls: type, args: argparse.Namespace):
    """The config of class cls that the parsed flags select: a field with a
    dest takes its value there unless that is None, a field that holds a
    config is built the same way, and the rest keep their defaults. A value
    the config rejects is an input error."""
    values = {}
    for f in dataclasses.fields(cls):
        dest = _flag(f)[1]
        if dataclasses.is_dataclass(f.default):
            values[f.name] = _config(type(f.default), args)
        elif dest is not None and getattr(args, dest) is not None:
            values[f.name] = getattr(args, dest)
    try:
        return cls(**values)
    except ValueError as err:
        raise InputError(str(err)) from None


def _grid_table(
    args: argparse.Namespace, series: CaseSeries, spec: SplitSpec
) -> ScoreTable:
    if args.workers < 1:
        raise InputError(f"workers must be at least 1, got {args.workers}")
    try:
        slots = default_grid(
            mlp_hidden_layers=args.mlp_hidden_layers,
            mlp_neurons=args.mlp_neurons,
            seed=args.seed,
        )
    except ValueError as err:
        raise InputError(str(err)) from None
    return run_grid(series, spec, slots)


def _eval_section(model: TrainedModel, result: EvalResult) -> dict:
    return {"scaled": result, "original": original_space_eval(model, result)}


def cmd_stats(args: argparse.Namespace) -> int:
    series = _load_series(args)
    columns = plain(summarize_series(series))
    rows = [
        {"statistic": stat, **{col: values[stat] for col, values in columns.items()}}
        for stat in columns["day_index"]
    ]
    _emit(
        args,
        fingerprint(series) if len(series) else None,
        "stats",
        {"columns": columns, "rows": len(series)},
        {"stats.csv": rows},
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config(FAMILY_TABLE[args.model].config, args)
    series = _load_series(args)
    features = tuple(args.features.split(","))
    data = build_supervised(series, features, args.target)
    std = standardized_split(data, _split_spec(args))
    model, result = train_on_split(args.model, config, std, features, args.target)

    model_path = (
        Path(args.out)
        if args.out
        else Path(args.out_dir) / f"model_{args.model}_{args.target}.json"
    )
    document = {
        "model_file": str(model_path),
        "family": args.model,
        "target": args.target,
        "eval": _eval_section(model, result),
        "train_meta": model.train_meta,
    }
    _emit(
        args, fingerprint(series), "train_eval", document, {}, (model, model_path)
    )
    if args.strict and not model.converged:
        raise NotConvergedError(
            f"fit did not converge (status {model.train_meta.get('status')!r})"
        )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model_file)
    series = _load_series(args)
    data = build_supervised(series, model.feature_names, model.target_name)
    with np.errstate(over="ignore", invalid="ignore"):
        x_scaled = transform(data.x, model.x_scaler)
        y_scaled = transform(data.y, model.y_scaler)
    if not (np.all(np.isfinite(x_scaled)) and np.all(np.isfinite(y_scaled))):
        raise NumericError("the model's scalers map the CSV to non-finite values")
    # A y_scaler mean far beyond the targets cancels them to one value,
    # which would read as a constant target column in the CSV.
    if np.ptp(y_scaled) == 0 < np.ptp(data.y):
        raise NumericError("the model's y_scaler maps every target to one value")
    result = evaluate(y_scaled, predict_scaled(model, x_scaled))
    document = {
        "model_file": args.model_file,
        "family": model.family,
        "target": model.target_name,
        "n_rows": len(data),
        "eval": _eval_section(model, result),
    }
    _emit(args, fingerprint(series), "eval", document, {})
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    series = _load_series(args)
    table = _grid_table(args, series, _split_spec(args))
    document = {
        "cells": table.cells,
        "metadata": table.metadata,
        "reference_best_r2": REFERENCE_BEST_R2,
    }
    rows = [{k: getattr(c, k) for k in GRID_COLUMNS} for c in table.cells]
    _emit(args, table.metadata["dataset"], "scoretable", document, {"scoretable.csv": rows})
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    if args.csv and args.last_day_index is not None:
        raise InputError(
            "--last-day-index cannot be combined with --csv, whose history sets it"
        )
    model = load_model(args.model_file)
    history = CaseSeries()
    fp = None
    if args.csv:
        history = _load_series(args)
        if len(history) == 0:
            raise InputError(f"history CSV {args.csv} has no rows")
        fp = fingerprint(history)
        last_day_index = history.last_day_index
    elif args.last_day_index is None or not args.start:
        raise InputError(
            "without --csv, both --last-day-index and --start are required"
        )
    else:
        last_day_index = args.last_day_index
    if args.start:
        start = _parse_date(args.start, "--start")
    else:
        start = horizon_dates(history.last_date, 1)[0]
    report = forecast(
        model,
        last_day_index=last_day_index,
        start_date=start,
        horizon=args.horizon,
        scenario_label=args.label,
    )
    rows = emit_plot_series(history, report, args.scale, target=model.target_name)
    _emit(args, fp, "forecast", report, {"forecast.csv": rows})
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.horizon < 0:
        raise InputError(f"horizon must be non-negative, got {args.horizon}")
    series = _load_series(args)
    if len(series):
        horizon_dates(series.last_date, args.horizon)  # fail before the grid
    table = _grid_table(args, series, _split_spec(args))
    best = {fam: select_best(table, fam) for fam in FAMILIES}
    report = compare_models(series, table, best, args.target, args.horizon)
    rows = [
        {
            "date": d,
            "observed": report.observed[i],
            **{fam: report.predicted[fam][i] for fam in FAMILIES},
        }
        for i, d in enumerate(report.dates)
    ]
    _emit(args, table.metadata["dataset"], "comparison", report, {"comparison.csv": rows})
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    config = _config(MlpConfig, args)
    series = _load_series(args)
    result = scenario_run(
        series,
        _parse_date(args.window_from, "--from"),
        _parse_date(args.window_to, "--to"),
        "mlp",
        config,
        _split_spec(args),
        args.horizon,
        label=args.label,
    )
    document = {
        "label": result.label,
        "window": {"from": result.window_start, "to": result.window_end},
        "targets": {
            target: {
                "eval": _eval_section(result.models[target], result.evals[target]),
                "forecast": report,
            }
            for target, report in result.reports.items()
        },
    }
    tables = {
        f"scenario_{target}.csv": emit_plot_series(
            result.windowed, report, args.scale, target=target
        )
        for target, report in result.reports.items()
    }
    _emit(args, fingerprint(series), "scenario", document, tables)
    return 0


def _add_io_flags(
    p: argparse.ArgumentParser, *, needs_csv: bool = True, impute: bool = True
) -> None:
    if needs_csv:
        p.add_argument("csv", help="input CSV (date,tests,confirmed,deaths)")
    if impute:
        p.add_argument("--impute", choices=[*IMPUTE_POLICIES, "none"], default="mean")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    p.add_argument("--fill-gaps", dest="fill_gaps", action="store_true")
    _add_config_flags(p, CsvSchema)


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that fit: seed and train/test split."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-fraction", dest="split_fraction", type=float, default=0.8)
    p.add_argument(
        "--split-mode",
        dest="split_mode",
        choices=SPLIT_MODES,
        default="chronological",
    )


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=1, help="ignored: run_grid decides its own threads"
    )
    p.add_argument("--mlp-hidden-layers", type=int, default=MlpConfig.hidden_layers)
    p.add_argument("--mlp-neurons", type=int, default=MlpConfig.neurons_per_layer)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError, so they exit 2
    with a JSON error like every other bad input; the subcommand parsers
    inherit the class."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epicast",
        description="Regression and forecasting toolkit for daily epidemic "
        "case-count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="describe-style summary per column")
    _add_io_flags(p, impute=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="fit one model, write it, score it")
    _add_io_flags(p)
    _add_split_flags(p)
    p.add_argument("--model", choices=list(FAMILIES), required=True)
    p.add_argument("--target", choices=list(COUNT_COLUMNS), default="confirmed")
    p.add_argument("--features", default="day_index")
    p.add_argument("--out", default=None, help="model file path")
    p.add_argument("--strict", action="store_true", help="exit 4 on non-convergence")
    for family in FAMILY_TABLE.values():
        _add_config_flags(p, family.config)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model on a CSV")
    p.add_argument("model_file")
    _add_io_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run the 15-slot regressor grid")
    _add_io_flags(p)
    _add_split_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("forecast", help="horizon forecast from a saved model")
    p.add_argument("model_file")
    p.add_argument("--csv", default=None, help="history CSV to anchor the forecast")
    _add_io_flags(p, needs_csv=False)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--start", default=None, help="first forecast date (ISO)")
    p.add_argument("--last-day-index", dest="last_day_index", type=int, default=None)
    p.add_argument("--scale", choices=SCALES, default="linear")
    p.add_argument("--label", default="")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("compare", help="best slot per family on one axis")
    _add_io_flags(p)
    _add_split_flags(p)
    p.add_argument("--target", choices=list(GRID_TARGETS), default="confirmed")
    p.add_argument("--horizon", type=int, default=0)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scenario", help="windowed train + forecast, both targets")
    _add_io_flags(p)
    _add_split_flags(p)
    p.add_argument("--from", dest="window_from", default="2021-06-15")
    p.add_argument("--to", dest="window_to", default="2021-08-10")
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--label", default="critical")
    p.add_argument("--scale", choices=SCALES, default="linear")
    _add_config_flags(p, MlpConfig)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(raw_argv)
        args._manifest = {
            "command": args.command,
            "argv": raw_argv,
            "config": _config_snapshot(args),
            "input_fingerprint": None,
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "timestamps": {"started": _now()},
        }
        return args.func(args)
    except InputError as err:
        return _fail("input", err, 2)
    except NumericError as err:
        return _fail("numeric", err, 3)
    except NotConvergedError as err:
        return _fail("not_converged", err, 4)


def _fail(kind: str, err: Exception, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(err)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
