"""Batch command-line surface.

Commands: stats, train, eval, grid, forecast, compare, scenario. Every
command reads CSV input, writes machine-readable outputs (JSON and/or
aligned CSV) under --out-dir, and prints its main JSON payload to stdout.
Exit codes: 0 ok (including completed runs with flagged grid cells),
2 input problem, 3 numeric failure, 4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from datetime import date as Date, datetime, timezone
from pathlib import Path

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
from .forecast import SCALES, ForecastReport, emit_plot_series, forecast, scenario_run
from .harness import (
    GRID_TARGETS,
    ScoreTable,
    compare_models,
    default_grid,
    run_grid,
    select_best,
)
from .linear import LinRegConfig
from .metrics import EvalResult, evaluate
from .mlp import ACTIVATIONS, OPTIMIZERS, MlpConfig
from .models import (
    FAMILIES,
    FamilyConfig,
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
from .svr import KERNELS, KernelSpec, SvrConfig

STAT_COLUMNS = ("day_index",) + COUNT_COLUMNS


@contextmanager
def _output(path: Path):
    """Create the directory of an output file around the block that writes
    it; an OSError while creating, opening or writing the file is an
    InputError that names it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from None


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _output(path), open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


Table = tuple[list[str], list[list]]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(
    args: argparse.Namespace,
    fp: dict | None,
    name: str,
    document: dict,
    tables: dict[str, Table],
    model: tuple[TrainedModel, Path] | None = None,
) -> None:
    """Write every file a command leaves, then print its document.

    Finish the run manifest that ``main`` started and form ``<name>.json``
    (the document plus that manifest); then save ``model`` to its path, if
    given; then write the report and the CSV tables that --format selects
    under --out-dir. A report or model document holding a non-finite number
    raises NumericError before any file is written."""
    manifest = args._manifest
    manifest["input_fingerprint"] = fp
    manifest["timestamps"]["finished"] = _now()
    text = json_text({**document, "manifest": manifest})
    if model is not None:
        trained, model_path = model
        with _output(model_path):
            save_model(trained, str(model_path))
    out = Path(args.out_dir)
    if args.format in ("json", "both"):
        path = out / f"{name}.json"
        with _output(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format in ("csv", "both"):
        for file, (header, rows) in tables.items():
            _write_csv(out / file, header, rows)
    print(json.dumps(document, indent=2))


def _load_series(args: argparse.Namespace, *, impute: bool = True) -> CaseSeries:
    path = Path(args.csv)
    schema = CsvSchema(
        date=args.date_column,
        tests=args.tests_column,
        confirmed=args.confirmed_column,
        deaths=args.deaths_column,
    )
    series = parse_csv(
        read_text(path),
        schema,
        fill_gaps=args.fill_gaps,
        source_label=path.name,
    )
    if impute and args.impute != "none" and len(series):
        series = impute_missing(series, args.impute)
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


def _model_config(family: str, args: argparse.Namespace) -> FamilyConfig:
    """The config the family's flags select; a rejected value is an input error."""
    try:
        if family == "mlp":
            return MlpConfig(
                hidden_layers=args.hidden_layers,
                neurons_per_layer=args.neurons,
                activation=args.activation,
                optimizer=args.optimizer,
                max_iterations=args.max_iterations,
                seed=args.seed,
                tolerance=args.tolerance,
                learning_rate=args.learning_rate,
            )
        if family == "svr":
            return SvrConfig(
                kernel=KernelSpec(
                    kind=args.kernel,
                    gamma=args.gamma,
                    degree=args.degree,
                    coef0=args.coef0,
                ),
                c=args.c,
                epsilon=args.epsilon,
                max_passes=args.max_passes,
            )
        return LinRegConfig(
            learning_rate=args.lr if args.lr is not None else 0.5,
            iterations=args.iterations,
        )
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


def _plot_table(
    history: CaseSeries, report: ForecastReport, scale: str, target: str
) -> Table:
    header = ["date", "observed", "predicted", "scale"]
    rows = emit_plot_series(history, report, scale, target=target)
    return header, [[r[k] for k in header] for r in rows]


def _eval_section(model: TrainedModel, result: EvalResult) -> dict:
    return {
        "scaled": plain(result),
        "original": plain(original_space_eval(model, result)),
    }


def cmd_stats(args: argparse.Namespace) -> int:
    series = _load_series(args, impute=False)
    stats = summarize_series(series)
    columns = {col: plain(stats[col]) for col in STAT_COLUMNS}
    rows = [
        [stat, *(columns[col][stat] for col in STAT_COLUMNS)]
        for stat in columns["day_index"]
    ]
    _emit(
        args,
        fingerprint(series) if len(series) else None,
        "stats",
        {"columns": columns, "rows": len(series)},
        {"stats.csv": (["statistic", *STAT_COLUMNS], rows)},
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _model_config(args.model, args)
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
    header = ["family", "slot", "target", "r2", "mse", "flagged", "flag_reason"]
    rows = [
        [
            c.family,
            c.slot,
            c.target,
            c.r2,
            c.mse,
            int(c.flagged),
            c.flag_reason,
        ]
        for c in table.cells
    ]
    _emit(
        args,
        table.metadata["dataset"],
        "scoretable",
        table.as_dict(),
        {"scoretable.csv": (header, rows)},
    )
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
    table = _plot_table(history, report, args.scale, model.target_name)
    _emit(args, fp, "forecast", plain(report), {"forecast.csv": table})
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
        [d.isoformat(), report.observed[i]]
        + [report.predicted[fam][i] for fam in FAMILIES]
        for i, d in enumerate(report.dates)
    ]
    _emit(
        args,
        table.metadata["dataset"],
        "comparison",
        plain(report),
        {"comparison.csv": (["date", "observed", *FAMILIES], rows)},
    )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    config = _model_config("mlp", args)
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
        "window": {
            "from": result.window_start.isoformat(),
            "to": result.window_end.isoformat(),
        },
        "targets": {
            target: {
                "eval": _eval_section(result.models[target], result.evals[target]),
                "forecast": plain(report),
            }
            for target, report in result.reports.items()
        },
    }
    tables = {
        f"scenario_{target}.csv": _plot_table(
            result.windowed, report, args.scale, target
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
    p.add_argument("--date-column", dest="date_column", default="date")
    p.add_argument("--tests-column", dest="tests_column", default="tests")
    p.add_argument("--confirmed-column", dest="confirmed_column", default="confirmed")
    p.add_argument("--deaths-column", dest="deaths_column", default="deaths")


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
        "--workers", type=int, default=1, help="ignored: cells always run serially"
    )
    p.add_argument("--mlp-hidden-layers", dest="mlp_hidden_layers", type=int, default=2)
    p.add_argument("--mlp-neurons", dest="mlp_neurons", type=int, default=16)


def _add_mlp_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden-layers", dest="hidden_layers", type=int, default=2)
    p.add_argument("--neurons", type=int, default=16)
    p.add_argument("--activation", choices=ACTIVATIONS, default="tanh")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="lbfgs")
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=1e-3)


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
    _add_mlp_flags(p)
    p.add_argument("--kernel", choices=KERNELS, default="rbf")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--coef0", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--max-passes", dest="max_passes", type=int, default=10000)
    p.add_argument("--lr", type=float, default=None, help="linreg learning rate")
    p.add_argument("--iterations", type=int, default=2500, help="linreg iterations")
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
    _add_mlp_flags(p)
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
