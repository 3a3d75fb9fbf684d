import argparse
import copy
import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
import threading
import time
from datetime import datetime
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

from epicast import (
    CsvSchema,
    LinRegConfig,
    MlpConfig,
    SvrConfig,
    SyntheticSpec,
    default_grid,
    load_model,
    predict_raw,
    replay_manifest,
    serialize_csv,
    strip_timestamps,
    synthetic_epidemic,
)
from epicast import cli, harness
from epicast.cli import main
from epicast.models import FAMILY_TABLE

import numpy as np

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"

TINY = """date,tests,confirmed,deaths
2021-01-01,100,10,1
2021-01-02,110,12,0
2021-01-03,120,15,2
2021-01-04,130,20,3
"""


@pytest.fixture(scope="module")
def registry():
    common = Resource.from_contents(
        json.loads((SCHEMA_DIR / "common.json").read_text())
    )
    return common @ Registry()


@pytest.fixture(scope="module")
def check():
    validators = {}

    def _check(doc, schema_name, registry):
        if schema_name not in validators:
            schema = json.loads((SCHEMA_DIR / schema_name).read_text())
            validators[schema_name] = Draft202012Validator(schema, registry=registry)
        validators[schema_name].validate(doc)

    return _check


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY, encoding="utf-8")
    return path


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def payload(doc):
    return {k: v for k, v in doc.items() if k != "manifest"}


def linreg_model_with_intercept(csv_path, tmp_path, value):
    """A trained linreg model file whose intercept is float(value)."""
    out = tmp_path / "model"
    main(["train", str(csv_path), "--model", "linreg", "--out-dir", str(out)])
    model_path = out / "model_linreg_confirmed.json"
    doc = read_json(model_path)
    doc["params"]["intercept"] = float(value)
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    return model_path


class TestStats:
    def test_hand_checkable_summary(self, tiny_csv, tmp_path, check, registry):
        out = tmp_path / "out"
        assert main(["stats", str(tiny_csv), "--out-dir", str(out)]) == 0
        doc = read_json(out / "stats.json")
        check(doc, "stats.schema.json", registry)
        confirmed = doc["columns"]["confirmed"]
        assert confirmed["count"] == 4
        assert confirmed["mean"] == pytest.approx(14.25)
        assert confirmed["min"] == 10 and confirmed["max"] == 20
        assert doc["rows"] == 4
        table = read_csv(out / "stats.csv")
        assert table[0] == ["statistic", "day_index", "tests", "confirmed", "deaths"]
        assert [r[0] for r in table[1:]] == [
            "count", "mean", "std", "min", "25%", "50%", "75%", "max",
        ]
        mean_row = table[2]
        assert float(mean_row[3]) == pytest.approx(14.25)

    def test_header_only_input(self, tmp_path, check, registry):
        path = tmp_path / "empty.csv"
        path.write_text("date,tests,confirmed,deaths\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["stats", str(path), "--out-dir", str(out)]) == 0
        doc = read_json(out / "stats.json")
        check(doc, "stats.schema.json", registry)
        assert doc["rows"] == 0
        assert doc["columns"]["confirmed"]["count"] == 0
        assert doc["columns"]["confirmed"]["mean"] is None
        assert doc["manifest"]["input_fingerprint"] is None

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["stats", str(missing)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "nope.csv" in err["message"]

    def test_stdout_payload_has_no_manifest(self, tiny_csv, tmp_path, capsys):
        main(["stats", str(tiny_csv), "--out-dir", str(tmp_path / "o")])
        doc = json.loads(capsys.readouterr().out)
        assert "manifest" not in doc
        assert doc["rows"] == 4

    def test_manifest_config_holds_only_flags(self, tiny_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["stats", str(tiny_csv), "--out-dir", str(out)]) == 0
        manifest = read_json(out / "stats.json")["manifest"]
        config = manifest["config"]
        assert "_argv" not in config
        assert config["csv"] == str(tiny_csv)
        assert not {"seed", "split_fraction", "split_mode", "impute"} & set(config)
        assert manifest["seed"] is None

    def test_replay_appends_out_dir(self, tiny_csv, tmp_path, monkeypatch):
        # the recorded argv has no --out-dir, so the replay appends one
        monkeypatch.chdir(tmp_path)
        assert main(["stats", str(tiny_csv)]) == 0
        original = strip_timestamps(read_json(tmp_path / "stats.json"))
        replay_dir = str(tmp_path / "replay")
        assert replay_manifest(original["manifest"], replay_dir) == 0
        replayed = strip_timestamps(read_json(Path(replay_dir) / "stats.json"))
        manifest = dict(original["manifest"])
        manifest["argv"] = [*manifest["argv"], "--out-dir", replay_dir]
        manifest["config"] = {**manifest["config"], "out_dir": replay_dir}
        assert manifest["argv"] == ["stats", str(tiny_csv), "--out-dir", replay_dir]
        assert replayed == {**original, "manifest": manifest}

    def test_custom_column_names(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text(
            "day,swabs,cases,fatalities\n2021-01-01,50,5,0\n2021-01-02,60,8,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main([
            "stats", str(path), "--out-dir", str(out),
            "--date-column", "day", "--tests-column", "swabs",
            "--confirmed-column", "cases", "--deaths-column", "fatalities",
        ])
        assert code == 0
        assert read_json(out / "stats.json")["columns"]["confirmed"]["count"] == 2

    def test_manifest_started_when_the_command_starts(
        self, tiny_csv, tmp_path, monkeypatch
    ):
        summarize = cli.summarize_series

        def slow_summarize(series):
            time.sleep(0.06)
            return summarize(series)

        monkeypatch.setattr(cli, "summarize_series", slow_summarize)
        out = tmp_path / "out"
        assert main(["stats", str(tiny_csv), "--out-dir", str(out)]) == 0
        stamps = read_json(out / "stats.json")["manifest"]["timestamps"]
        started = datetime.fromisoformat(stamps["started"])
        finished = datetime.fromisoformat(stamps["finished"])
        assert (finished - started).total_seconds() >= 0.05


class TestTrain:
    def test_linreg_writes_model_and_report(
        self, series_csv_path, tmp_path, check, registry
    ):
        out = tmp_path / "out"
        code = main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        assert code == 0
        report = read_json(out / "train_eval.json")
        check(report, "train_eval.schema.json", registry)
        assert report["family"] == "linreg"
        assert report["target"] == "confirmed"
        assert report["eval"]["scaled"]["n"] == 104
        model_doc = read_json(out / "model_linreg_confirmed.json")
        check(model_doc, "model.schema.json", registry)
        model = load_model(str(out / "model_linreg_confirmed.json"))
        assert model.family == "linreg"
        assert np.isfinite(predict_raw(model, np.array([[600.0]]))[0])

    def test_svr_kernel_flags_reach_saved_config(
        self, series_csv_path, tmp_path, check, registry
    ):
        out = tmp_path / "out"
        code = main([
            "train", str(series_csv_path), "--model", "svr",
            "--kernel", "poly", "--degree", "5", "--target", "deaths",
            "--out-dir", str(out),
        ])
        assert code == 0
        doc = read_json(out / "model_svr_deaths.json")
        check(doc, "model.schema.json", registry)
        assert doc["config"]["kernel"]["kind"] == "poly"
        assert doc["config"]["kernel"]["degree"] == 5

    def test_mlp_custom_out_path(self, series_csv_path, tmp_path):
        target = tmp_path / "nested" / "net.json"
        code = main([
            "train", str(series_csv_path), "--model", "mlp",
            "--max-iterations", "100", "--out", str(target),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert target.exists()
        assert read_json(tmp_path / "train_eval.json")["model_file"] == str(target)

    def test_all_missing_target_exit_2(self, tmp_path):
        path = tmp_path / "nodeaths.csv"
        path.write_text(
            "date,tests,confirmed,deaths\n"
            "2021-01-01,1,1,\n2021-01-02,2,2,\n2021-01-03,3,3,\n",
            encoding="utf-8",
        )
        code = main([
            "train", str(path), "--model", "linreg", "--target", "deaths",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_divergent_learning_rate_exit_3(self, series_csv_path, tmp_path, capsys):
        code = main([
            "train", str(series_csv_path), "--model", "linreg", "--lr", "1.5",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_strict_flags_non_convergence_exit_4(self, series_csv_path, tmp_path, capsys):
        args = [
            "train", str(series_csv_path), "--model", "svr",
            "--max-passes", "1", "--out-dir", str(tmp_path / "o"),
        ]
        assert main(args) == 0  # tolerated by default, result flagged
        assert main(args + ["--strict"]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "not_converged"

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_strict_flags_mlp_at_its_iteration_budget(
        self, optimizer, series_csv_path, tmp_path, capsys
    ):
        code = main([
            "train", str(series_csv_path), "--model", "mlp",
            "--optimizer", optimizer, "--strict", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "not_converged"
        assert "max_iterations" in err["message"]

    def test_diverging_sgd_fit_exits_3_and_names_the_iteration(
        self, series_csv_path, tmp_path, capsys
    ):
        # the loss rises until it overflows; a rising loss is not a stall,
        # so the fit cannot end as a converged "stalled" one
        code = main([
            "train", str(series_csv_path), "--model", "mlp", "--optimizer", "sgd",
            "--learning-rate", "1", "--strict", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "at iteration 103" in err["message"]


class TestEval:
    def test_scores_saved_model_on_full_file(
        self, series_csv_path, tmp_path, check, registry
    ):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        code = main([
            "eval", str(out / "model_linreg_confirmed.json"),
            str(series_csv_path), "--out-dir", str(out),
        ])
        assert code == 0
        doc = read_json(out / "eval.json")
        check(doc, "eval.schema.json", registry)
        assert doc["n_rows"] == 520
        assert doc["eval"]["scaled"]["space"] == "scaled"
        assert doc["eval"]["original"]["space"] == "original"

    def test_missing_model_file_exit_2(self, series_csv_path, tmp_path):
        code = main([
            "eval", str(tmp_path / "ghost.json"), str(series_csv_path),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2

    def test_nan_in_model_file_exit_2(self, series_csv_path, tmp_path, capsys):
        model_path = linreg_model_with_intercept(series_csv_path, tmp_path, "nan")
        capsys.readouterr()
        code = main([
            "eval", str(model_path), str(series_csv_path), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    def test_non_json_model_file_exit_2(self, series_csv_path, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("model: linreg\n", encoding="utf-8")
        code = main([
            "eval", str(bogus), str(series_csv_path), "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"


class TestGrid:
    def test_report_layout_and_determinism(
        self, series_csv_path, tmp_path, check, registry
    ):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([
            "grid", str(series_csv_path), "--out-dir", str(out_a), "--workers", "2",
        ]) == 0
        assert main([
            "grid", str(series_csv_path), "--out-dir", str(out_b),
        ]) == 0
        doc_a = read_json(out_a / "scoretable.json")
        doc_b = read_json(out_b / "scoretable.json")
        check(doc_a, "scoretable.schema.json", registry)
        assert len(doc_a["cells"]) == 30
        # identical payloads regardless of worker count or output directory
        assert payload(doc_a) == payload(doc_b)
        table = read_csv(out_a / "scoretable.csv")
        assert table[0] == [
            "family", "slot", "target", "r2", "mse", "flagged", "flag_reason",
        ]
        assert len(table) == 31

    def test_manifest_survives_strip_helper(self, grid_reports):
        doc = read_json(grid_reports / "scoretable.json")
        stripped = strip_timestamps(doc)
        assert "timestamps" not in stripped["manifest"]
        assert "timestamps" in doc["manifest"]  # original untouched
        assert stripped["cells"] == doc["cells"]

    def test_cells_run_on_the_calling_thread(self, short_csv, tmp_path, monkeypatch):
        threads = []
        fit = harness.train_on_split

        def spy(*args):
            threads.append(threading.get_ident())
            return fit(*args)

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness, "train_on_split", spy)
        assert main([
            "grid", str(short_csv), "--workers", "4", "--out-dir", str(tmp_path),
        ]) == 0
        # 30 cells, of which MLP slots 2 and 3 take slot 1's early-stopped fits
        assert threads == [threading.get_ident()] * 26

    def test_negative_seed_fails_before_any_fit(
        self, short_csv, tmp_path, monkeypatch
    ):
        fits = []
        monkeypatch.setattr(harness, "train_on_split", lambda *a: fits.append(a))
        assert main([
            "grid", str(short_csv), "--seed", "-1", "--out-dir", str(tmp_path),
        ]) == 2
        assert fits == []


class TestForecastCmd:
    def test_csv_anchored_run(self, series_csv_path, tmp_path, check, registry):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        code = main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--csv", str(series_csv_path), "--out-dir", str(out),
        ])
        assert code == 0
        doc = read_json(out / "forecast.json")
        check(doc, "forecast.schema.json", registry)
        assert doc["horizon_days"] == 30
        assert len(doc["predictions"]) == 30
        assert doc["start_date"] == "2021-08-03"  # day after the series ends
        table = read_csv(out / "forecast.csv")
        assert table[0] == ["date", "observed", "predicted", "scale"]
        assert len(table) == 1 + 520 + 30

    def test_anchors_from_flags_without_csv(self, series_csv_path, tmp_path):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        code = main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--last-day-index", "519", "--start", "2021-08-03",
            "--horizon", "10", "--out-dir", str(out),
        ])
        assert code == 0
        table = read_csv(out / "forecast.csv")
        assert len(table) == 1 + 10  # no history rows without --csv

    def test_missing_anchor_flags_exit_2(self, series_csv_path, tmp_path):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        code = main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--out-dir", str(out),
        ])
        assert code == 2

    def test_malformed_model_file_exit_2(self, series_csv_path, tmp_path, capsys):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        model_path = out / "model_linreg_confirmed.json"
        doc = read_json(model_path)
        del doc["params"]
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main([
            "forecast", str(model_path), "--csv", str(series_csv_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    def test_infinity_in_model_file_exit_2(self, series_csv_path, tmp_path, capsys):
        model_path = linreg_model_with_intercept(series_csv_path, tmp_path, "inf")
        capsys.readouterr()
        code = main([
            "forecast", str(model_path), "--csv", str(series_csv_path),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    def test_header_only_history_exit_2(self, series_csv_path, tmp_path, capsys):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        empty = tmp_path / "empty.csv"
        empty.write_text("date,tests,confirmed,deaths\n", encoding="utf-8")
        capsys.readouterr()
        code = main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--csv", str(empty), "--out-dir", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "empty.csv" in err["message"]

    def test_last_day_index_with_csv_exit_2(self, short_csv, short_model, tmp_path, capsys):
        code = main([
            "forecast", str(short_model), "--csv", str(short_csv),
            "--last-day-index", "5", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "--last-day-index" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--csv", "{csv}", "--horizon", "3000000"],
            ["--start", "9999-12-31", "--last-day-index", "5", "--horizon", "2"],
            ["--csv", "{last_csv}"],
        ],
        ids=["huge-horizon", "start-at-the-last-date", "history-ends-at-the-last-date"],
    )
    def test_dates_past_9999_exit_2(self, flags, short_csv, short_model, tmp_path, capsys):
        last_csv = tmp_path / "last.csv"
        last_csv.write_text(
            "date,tests,confirmed,deaths\n9999-12-30,10,2,0\n9999-12-31,12,3,0\n",
            encoding="utf-8",
        )
        args = [f.format(csv=short_csv, last_csv=last_csv) for f in flags]
        code = main([
            "forecast", str(short_model), *args, "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "9999-12-31" in err["message"]

    def test_bad_start_date_exit_2(self, series_csv_path, tmp_path):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        code = main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--last-day-index", "519", "--start", "late august",
            "--out-dir", str(out),
        ])
        assert code == 2

    def test_replay_from_manifest_reproduces_payload(self, series_csv_path, tmp_path):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--csv", str(series_csv_path), "--out-dir", str(out),
        ])
        original = read_json(out / "forecast.json")
        replay_dir = tmp_path / "replay"
        assert replay_manifest(original["manifest"], str(replay_dir)) == 0
        replayed = read_json(replay_dir / "forecast.json")
        assert payload(replayed) == payload(original)

    def test_log_scale_column(self, series_csv_path, tmp_path):
        out = tmp_path / "out"
        main([
            "train", str(series_csv_path), "--model", "linreg",
            "--out-dir", str(out),
        ])
        main([
            "forecast", str(out / "model_linreg_confirmed.json"),
            "--csv", str(series_csv_path), "--scale", "log",
            "--out-dir", str(out),
        ])
        table = read_csv(out / "forecast.csv")
        first = table[1]  # day 0 of the history
        assert float(first[3]) == pytest.approx(
            np.log10(float(first[1]) + 1.0)
        )


class TestCompare:
    def test_three_families_on_one_axis(
        self, series_csv_path, tmp_path, check, registry
    ):
        out = tmp_path / "out"
        code = main([
            "compare", str(series_csv_path), "--horizon", "10",
            "--workers", "2", "--out-dir", str(out),
        ])
        assert code == 0
        doc = read_json(out / "comparison.json")
        check(doc, "comparison.schema.json", registry)
        assert len(doc["dates"]) == 104 + 10
        assert doc["observed"][-1] is None
        table = read_csv(out / "comparison.csv")
        assert table[0] == ["date", "observed", "mlp", "svr", "linreg"]
        assert len(table) == 1 + 104 + 10

    def test_negative_horizon_rejected_before_the_grid(
        self, series_csv_path, tmp_path, capsys, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        code = main([
            "compare", str(series_csv_path), "--horizon", "-1",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "horizon" in json.loads(capsys.readouterr().err)["message"]

    def test_horizon_past_9999_rejected_before_the_grid(
        self, short_csv, tmp_path, capsys, monkeypatch
    ):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        code = main([
            "compare", str(short_csv), "--horizon", "3000000",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "9999-12-31" in json.loads(capsys.readouterr().err)["message"]

    def test_fits_only_the_grids_cells(self, short_csv, tmp_path, monkeypatch):
        fits = []
        fit = harness.train_on_split

        def spy(*args):
            fits.append(args[0])
            return fit(*args)

        monkeypatch.setattr(harness, "train_on_split", spy)
        assert main(["compare", str(short_csv), "--out-dir", str(tmp_path)]) == 0
        # 30 cells, of which MLP slots 2 and 3 take slot 1's early-stopped fits
        assert len(fits) == 26

    def test_constant_deaths_exit_2_only_for_deaths(self, short_csv, tmp_path, capsys):
        rows = read_csv(short_csv)
        flat = tmp_path / "flat_deaths.csv"
        with open(flat, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [rows[0]] + [r[:3] + ["2"] for r in rows[1:]]
            )
        code = main([
            "compare", str(flat), "--target", "deaths", "--out-dir", str(tmp_path / "d"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "input",
            "message": "target 'deaths' is constant on the training rows",
        }
        assert main([
            "compare", str(flat), "--target", "confirmed",
            "--out-dir", str(tmp_path / "c"),
        ]) == 0

    def test_tests_is_not_a_target(self, short_csv, tmp_path, capsys):
        code = main([
            "compare", str(short_csv), "--target", "tests",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "--target" in err["message"]


class TestScenario:
    def test_windowed_run_emits_both_targets(
        self, series_csv_path, tmp_path, check, registry
    ):
        out = tmp_path / "out"
        code = main([
            "scenario", str(series_csv_path),
            "--from", "2021-04-01", "--to", "2021-06-30",
            "--out-dir", str(out),
        ])
        assert code == 0
        doc = read_json(out / "scenario.json")
        check(doc, "scenario.schema.json", registry)
        assert doc["window"] == {"from": "2021-04-01", "to": "2021-06-30"}
        assert set(doc["targets"]) == {"confirmed", "deaths"}
        forecast_doc = doc["targets"]["confirmed"]["forecast"]
        assert forecast_doc["horizon_days"] == 30
        assert forecast_doc["predictions"][0]["date"] == "2021-07-01"
        window_days = 91
        for target in ("confirmed", "deaths"):
            table = read_csv(out / f"scenario_{target}.csv")
            assert table[0] == ["date", "observed", "predicted", "scale"]
            assert len(table) == 1 + window_days + 30

    def test_inverted_window_exit_2(self, series_csv_path, tmp_path):
        code = main([
            "scenario", str(series_csv_path),
            "--from", "2021-06-30", "--to", "2021-04-01",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2


class TestRejectedFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("train --model svr --c -1", "c must be positive"),
            ("train --model mlp --neurons 0", "neurons_per_layer"),
            ("train --model linreg --iterations 0", "iterations"),
            ("scenario --neurons 0", "neurons_per_layer"),
            ("grid --workers 0", "workers"),
            ("grid --workers x", "invalid int value"),
            ("grid --mlp-neurons 0", "neurons_per_layer"),
            ("compare --workers -1", "workers"),
            ("compare --horizon -1", "horizon"),
            ("scenario --from 20210615", "YYYY-MM-DD"),
            ("scenario --horizon 3000000", "9999-12-31"),
            ("scenario --to 2021-W32-5", "YYYY-MM-DD"),
            ("train --model svr --c nan", "c must be positive and finite"),
            ("train --model svr --epsilon inf", "epsilon"),
            ("train --model svr --gamma nan", "gamma"),
            ("train --model svr --kernel poly --coef0 nan", "coef0"),
            (f"train --model svr --kernel poly --degree {10**400}", "degree"),
            ("train --model mlp --tolerance nan", "tolerance"),
            ("train --model mlp --learning-rate inf", "learning_rate"),
            ("train --model mlp --optimizer sgd --learning-rate -1", "learning_rate"),
            ("train --model mlp --optimizer adam --learning-rate -1", "learning_rate"),
            ("scenario --optimizer adam --learning-rate -1", "learning_rate"),
            ("train --model linreg --lr nan", "learning_rate"),
            ("train --model linreg --lr inf", "learning_rate"),
            ("train --model mlp --seed -1", "seed must be non-negative"),
            (
                "train --model linreg --split-mode shuffled --seed -1",
                "seed must be non-negative",
            ),
            ("grid --seed -1", "seed must be non-negative"),
            ("compare --seed -1", "seed must be non-negative"),
            ("scenario --seed -1", "seed must be non-negative"),
        ],
    )
    def test_exit_2_with_json_error(
        self, argv, message, series_csv_path, tmp_path, capsys
    ):
        command, *flags = argv.split()
        code = main([
            command, str(series_csv_path), *flags, "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert message in err["message"]


class TestShapeBeyondMemory:
    # 1e14 neurons: the first weight matrix alone is 800 TB, more than any
    # address space, so every command fails at its first allocation.
    NEURONS = str(10**14)
    MESSAGE = f"1 hidden layers of {10**14} neurons on a 48 x 1 design does not fit in memory"

    @pytest.mark.parametrize(
        "argv",
        [
            "train --model mlp --hidden-layers 1 --neurons {n}",
            "scenario --from 2020-03-01 --to 2020-04-29 --hidden-layers 1 --neurons {n}",
        ],
    )
    def test_fit_exits_2_with_json_error(self, argv, short_csv, tmp_path, capsys):
        command, *flags = argv.format(n=self.NEURONS).split()
        code = main([command, str(short_csv), *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert self.MESSAGE in err["message"]

    def test_grid_flags_every_mlp_cell(self, short_csv, tmp_path):
        code = main([
            "grid", str(short_csv), "--mlp-hidden-layers", "1",
            "--mlp-neurons", self.NEURONS, "--out-dir", str(tmp_path),
        ])
        assert code == 0
        cells = read_json(tmp_path / "scoretable.json")["cells"]
        for cell in cells:
            if cell["family"] == "mlp":
                assert cell["flagged"]
                assert self.MESSAGE in cell["flag_reason"]
        assert not all(c["flagged"] for c in cells if c["family"] == "linreg")

    def test_compare_exits_2(self, short_csv, tmp_path, capsys):
        code = main([
            "compare", str(short_csv), "--mlp-hidden-layers", "1",
            "--mlp-neurons", self.NEURONS, "--out-dir", str(tmp_path),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input", "message": "every mlp cell is flagged"}


class TestCountsBeyondTheScalerBound:
    # 10**200 parses as a count, but no model file can hold a scaler fit
    # to it: the loader bounds every scaler mean and scale by MAX_SCALE.
    @pytest.fixture(scope="class")
    def huge_csvs(self, tmp_path_factory):
        base = synthetic_epidemic(SHORT_WAVE)
        cases = {
            "target": dataclasses.replace(
                base, confirmed=(10**200,) + base.confirmed[1:]
            ),
            "feature": dataclasses.replace(base, tests=(10**200,) * len(base)),
        }
        out = tmp_path_factory.mktemp("huge")
        for name, series in cases.items():
            (out / f"{name}.csv").write_text(serialize_csv(series), encoding="utf-8")
        # tests is constant on the 16 train rows, so its scale is the floor
        # 1e-12, and 1e300 on the 4 test rows standardizes to inf
        rows = [
            f"2021-01-{day:02d},{5 if day <= 16 else '1e300'},{10 + day * day},{day // 3}"
            for day in range(1, 21)
        ]
        (out / "test_rows.csv").write_text(
            "\n".join(["date,tests,confirmed,deaths", *rows]) + "\n", encoding="utf-8"
        )
        return out

    @pytest.mark.parametrize(
        "case, argv, column",
        [
            ("target", "train --model linreg", "confirmed"),
            ("target", "scenario --from 2020-03-01 --to 2020-04-29 "
             "--hidden-layers 1 --neurons 2 --max-iterations 5", "confirmed"),
            ("feature", "train --model linreg --features day_index,tests", "tests"),
            *(
                ("test_rows", f"train --model {m} --features day_index,tests", "tests")
                for m in ("mlp", "svr", "linreg")
            ),
        ],
    )
    def test_fit_exits_2_naming_the_column(
        self, case, argv, column, huge_csvs, tmp_path, capsys
    ):
        command, *flags = argv.split()
        csv_path = huge_csvs / f"{case}.csv"
        code = main([command, str(csv_path), *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "input"
        assert f"column {column!r}" in err["message"]
        assert not list(tmp_path.glob("model_*.json"))

    def test_grid_flags_the_targets_cells(self, huge_csvs, tmp_path):
        code = main([
            "grid", str(huge_csvs / "target.csv"), "--mlp-hidden-layers", "1",
            "--mlp-neurons", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        for cell in read_json(tmp_path / "scoretable.json")["cells"]:
            flagged = "column 'confirmed'" in (cell["flag_reason"] or "")
            assert flagged == (cell["target"] == "confirmed")

    def test_stats_exits_3_with_one_json_line(self, huge_csvs, tmp_path, capsys):
        csv_path = huge_csvs / "target.csv"
        code = main(["stats", str(csv_path), "--out-dir", str(tmp_path)])
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "numeric"


# A 60-day wave keeps the grid and compare runs to about a second each.
SHORT_WAVE = SyntheticSpec(days=60, midpoint=30.0, width=6.0)

# command -> (arguments, JSON report, CSV tables); {csv} and {model} are
# filled in per test.
FORMAT_CASES = {
    "stats": (["{csv}"], "stats.json", ["stats.csv"]),
    "train": (["{csv}", "--model", "linreg"], "train_eval.json", []),
    "eval": (["{model}", "{csv}"], "eval.json", []),
    "grid": (["{csv}"], "scoretable.json", ["scoretable.csv"]),
    "forecast": (["{model}", "--csv", "{csv}"], "forecast.json", ["forecast.csv"]),
    "compare": (["{csv}"], "comparison.json", ["comparison.csv"]),
    "scenario": (
        ["{csv}", "--from", "2020-03-01", "--to", "2020-04-29"],
        "scenario.json",
        ["scenario_confirmed.csv", "scenario_deaths.csv"],
    ),
}


@pytest.fixture(scope="module")
def short_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("short") / "short.csv"
    path.write_text(serialize_csv(synthetic_epidemic(SHORT_WAVE)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def short_model(short_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main([
        "train", str(short_csv), "--model", "linreg", "--out-dir", str(out),
    ])
    assert code == 0
    return out / "model_linreg_confirmed.json"


class TestFormatSelection:
    def files_written(self, command, fmt, short_csv, short_model, out):
        """Names of the files one run with --format fmt leaves in out."""
        flags, _, _ = FORMAT_CASES[command]
        args = [f.format(csv=short_csv, model=short_model) for f in flags]
        assert main([command, *args, "--format", fmt, "--out-dir", str(out)]) == 0
        return {p.name for p in out.iterdir()} if out.exists() else set()

    @pytest.mark.parametrize("command", FORMAT_CASES)
    def test_json_only(self, command, short_csv, short_model, tmp_path):
        _, report, _ = FORMAT_CASES[command]
        model = {"model_linreg_confirmed.json"} if command == "train" else set()
        out = tmp_path / "out"
        written = self.files_written(command, "json", short_csv, short_model, out)
        assert written == {report} | model

    @pytest.mark.parametrize("command", FORMAT_CASES)
    def test_csv_only(self, command, short_csv, short_model, tmp_path):
        _, _, tables = FORMAT_CASES[command]
        model = {"model_linreg_confirmed.json"} if command == "train" else set()
        out = tmp_path / "out"
        written = self.files_written(command, "csv", short_csv, short_model, out)
        assert written == set(tables) | model


class TestRemovedFlags:
    """stats, eval and forecast fit nothing, and stats does not impute."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("stats", "eval", "forecast")
            for flag in ("--seed 1", "--split-fraction 0.5", "--split-mode shuffled")
        ]
        + [("stats", "--impute mean")],
    )
    def test_usage_error(self, command, flag, short_csv, short_model, tmp_path, capsys):
        flags, _, _ = FORMAT_CASES[command]
        args = [f.format(csv=short_csv, model=short_model) for f in flags]
        assert main([command, *args, *flag.split(), "--out-dir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert flag.split()[0] in err["message"]

    @pytest.mark.parametrize("argv", [[], ["forest"], ["stats"]])
    def test_missing_or_unknown_command(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "input"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", "--help"])
        assert exit_info.value.code == 0
        assert "usage: epicast stats" in capsys.readouterr().out


# Inputs that exist but cannot be read as text; each builds argv from a
# scratch directory holding latin1.csv and from a readable CSV.
UNREADABLE = {
    "csv-is-directory": lambda d, csv: ["stats", str(d)],
    "csv-not-utf8": lambda d, csv: ["stats", str(d / "latin1.csv")],
    "model-file-is-directory": lambda d, csv: ["eval", str(d), str(csv)],
}


class TestUnreadableInput:
    @pytest.mark.parametrize("argv_of", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_exit_2_with_json_error(self, argv_of, series_csv_path, tmp_path, capsys):
        # A valid table whose last line holds a Latin-1 byte.
        (tmp_path / "latin1.csv").write_bytes(TINY.encode("utf-8") + b"caf\xe9\n")
        argv = argv_of(tmp_path, series_csv_path)
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"


# Output locations that cannot be created: each builds argv from a readable
# CSV named in.csv, a regular file standing where a directory must go. No
# command writes a file then, not even a model file whose --out is writable.
UNWRITABLE = {
    "out-dir-is-a-file": lambda f: ["stats", str(f), "--out-dir", str(f)],
    "csv-table-out-dir-is-a-file": lambda f: [
        "stats", str(f), "--format", "csv", "--out-dir", str(f),
    ],
    "model-out-under-a-file": lambda f: [
        "train", str(f), "--model", "linreg", "--out", str(f / "m.json"),
        "--out-dir", str(f.parent / "o"),
    ],
    "out-dir-under-a-file": lambda f: [
        "train", str(f), "--model", "linreg", "--out", str(f.parent / "m" / "m.json"),
        "--out-dir", str(f / "o"),
    ],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv_of", UNWRITABLE.values(), ids=UNWRITABLE.keys())
    def test_exit_2_with_json_error(self, argv_of, short_csv, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(short_csv.read_bytes())
        assert main(argv_of(path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "in.csv" in err["message"]
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]


# Output targets that already exist as directories: only the move onto
# them would fail, after the command's other files were written. Each case
# names that target under the out-dir o and builds argv from in.csv and o.
DIRECTORY_TARGETS = {
    "train-report": ("train_eval.json", lambda f, o: [
        "train", str(f), "--model", "linreg", "--out-dir", str(o),
    ]),
    "stats-table": ("stats.csv", lambda f, o: ["stats", str(f), "--out-dir", str(o)]),
}


class TestAllFilesOrNone:
    @pytest.mark.parametrize(
        "target, argv_of", DIRECTORY_TARGETS.values(), ids=DIRECTORY_TARGETS.keys()
    )
    def test_a_directory_target_leaves_the_out_dir_as_it_was(
        self, target, argv_of, short_csv, tmp_path, capsys
    ):
        path = tmp_path / "in.csv"
        path.write_bytes(short_csv.read_bytes())
        (tmp_path / "o" / target).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv_of(path, tmp_path / "o")) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert err["message"].endswith(f"{target}: it is a directory")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("model", ["train_eval.json", "new/../train_eval.json"])
    def test_a_model_on_the_report_path_leaves_the_out_dir_as_it_was(
        self, model, short_csv, tmp_path, capsys
    ):
        out = tmp_path / "q"
        argv = ["train", str(short_csv), "--model", "linreg", "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        assert main([*argv, "--out", str(out / model)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert err["message"] == f"cannot write two files to {out / model}"
        assert {p: p.read_bytes() for p in out.rglob("*")} == before

    def test_a_failed_table_write_keeps_every_earlier_byte(
        self, short_csv, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "o"
        argv = ["stats", str(short_csv), "--out-dir", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["stats.csv", "stats.json"]

        class FullDisk(csv.DictWriter):
            def writerows(self, rows):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.csv, "DictWriter", FullDisk)
        capsys.readouterr()
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "stats.csv" in err["message"] and "No space left" in err["message"]
        # the new report would differ in its manifest timestamps
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def parser_table(parser: argparse.ArgumentParser) -> list[list]:
    """(subcommand, option strings, dest, default, type name, choices,
    required) for each argument of each subcommand, in order."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        [
            name, a.option_strings, a.dest, a.default, a.type and a.type.__name__,
            a.choices and list(a.choices), a.required,
        ]
        for name, p in sub.choices.items()
        for a in p._actions
    ]


class TestParserDeclarations:
    """The flags the config fields declare are the flags the parser had when
    they were still written out one by one: parser_golden.json is that
    parser's table."""

    def test_every_argument_matches_the_golden_table(self):
        golden = json.loads((Path(__file__).parent / "parser_golden.json").read_text())
        assert parser_table(cli.build_parser()) == golden

    @pytest.mark.parametrize("family", FAMILY_TABLE)
    def test_no_flags_give_the_family_default(self, family):
        config = FAMILY_TABLE[family].config
        args = cli.build_parser().parse_args(["train", "in.csv", "--model", family])
        assert cli._config(config, args) == config()

    def test_no_flags_give_the_default_mlp_elsewhere(self):
        args = cli.build_parser().parse_args(["scenario", "in.csv"])
        assert cli._config(MlpConfig, args) == MlpConfig()
        # the grid's MLP slots; the golden table holds --mlp-hidden-layers 2
        # and --mlp-neurons 16
        shapes = {
            (s.config.hidden_layers, s.config.neurons_per_layer)
            for s in default_grid()
            if s.model_family == "mlp"
        }
        assert shapes == {(MlpConfig().hidden_layers, MlpConfig().neurons_per_layer)} == {(2, 16)}

    def test_flag_values_reach_their_fields(self):
        parse = cli.build_parser().parse_args
        args = parse([
            "train", "in.csv", "--model", "mlp", "--seed", "3", "--neurons", "5",
            "--lr", "0.25", "--kernel", "poly", "--gamma", "0.5", "--tolerance", "0.5",
            "--date-column", "Day",
        ])
        assert cli._config(CsvSchema, args) == CsvSchema(date="Day")
        assert cli._config(MlpConfig, args) == MlpConfig(
            neurons_per_layer=5, seed=3, tolerance=0.5
        )
        assert cli._config(LinRegConfig, args) == LinRegConfig(learning_rate=0.25)
        svr = cli._config(SvrConfig, args)
        assert (svr.kernel.kind, svr.kernel.gamma) == ("poly", 0.5)
        # --tolerance is the MLP's; SvrConfig.tolerance has no flag
        assert svr.tolerance == SvrConfig().tolerance


# name -> the train flags of a model fit on short.csv.
SHORT_MODELS = {
    "mlp": ["--model", "mlp"],
    "svr": ["--model", "svr"],
    "svr-poly": ["--model", "svr", "--kernel", "poly"],
    "linreg": ["--model", "linreg"],
}


@pytest.fixture(scope="module")
def short_model_docs(short_csv, tmp_path_factory):
    """name -> the model document train writes for it on short.csv."""
    out = tmp_path_factory.mktemp("models")
    docs = {}
    for name, flags in SHORT_MODELS.items():
        path = out / f"{name}.json"
        argv = ["train", str(short_csv), *flags, "--out", str(path)]
        assert main([*argv, "--out-dir", str(out)]) == 0
        docs[name] = read_json(path)
    return docs


def _drop_weight_row(doc):
    doc["params"]["weights"][1].pop()


def _drop_support_coef(doc):
    doc["params"]["support_coefs"].pop()


def _huge_last_layer(doc):
    last = doc["params"]["weights"][-1]
    doc["params"]["weights"][-1] = [[1e308] * len(last[0])]


# Commands that read a model file; {model} and {csv} are filled in per test.
MODEL_COMMANDS = {
    "eval": ["eval", "{model}", "{csv}"],
    "forecast": ["forecast", "{model}", "--csv", "{csv}"],
}


def _run_on_model(doc, command, short_csv, tmp_path, *flags):
    """Run command on a model file holding doc, or the text doc if a str."""
    path = tmp_path / "model.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    argv = [a.format(model=path, csv=short_csv) for a in MODEL_COMMANDS[command]]
    return main([*argv, *flags, "--out-dir", str(tmp_path / "o")])


class TestInconsistentModelFile:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize(
        "family, breakage",
        [("mlp", _drop_weight_row), ("svr", _drop_support_coef)],
        ids=["mlp-weight-row-dropped", "svr-support-coef-dropped"],
    )
    def test_exit_2_with_json_error(
        self, family, breakage, command, short_model_docs, short_csv, tmp_path, capsys
    ):
        doc = copy.deepcopy(short_model_docs[family])
        breakage(doc)
        assert _run_on_model(doc, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "malformed model document" in err["message"]
        assert not (tmp_path / "o").exists()


# train_meta sections that do not say how the fit ended, a string status
# and a boolean converged; a model loaded from one of the first four used
# to read as converged, and from the last two it loaded.
BAD_TRAIN_META = {
    "train-meta-missing": None,
    "train-meta-empty": {},
    "train-meta-list-of-pairs": [["converged", True]],
    "converged-not-boolean": {"status": "converged", "converged": "true"},
    "status-missing": {"converged": True},
    "status-not-a-string": {"status": 7, "converged": True},
}


class TestTrainMetaWithoutConvergedFlag:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize(
        "meta", BAD_TRAIN_META.values(), ids=BAD_TRAIN_META.keys()
    )
    def test_exit_2_with_json_error(
        self, meta, command, short_model_docs, short_csv, tmp_path, capsys,
        check, registry,
    ):
        doc = copy.deepcopy(short_model_docs["svr"])
        if meta is None:
            del doc["train_meta"]
        else:
            doc["train_meta"] = meta
        assert _run_on_model(doc, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "train_meta" in err["message"]
        assert not (tmp_path / "o").exists()
        # the schema rejects what the reader rejects
        with pytest.raises(ValidationError):
            check(doc, "model.schema.json", registry)


# MLP config entries of the wrong JSON type or under an unknown key.
UNTYPED_CONFIG = {
    "hidden-layers-a-string": {"hidden_layers": "x"},
    "unknown-config-key": {"momentum": 0.9},
}


class TestUntypedConfig:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize(
        "entry", UNTYPED_CONFIG.values(), ids=UNTYPED_CONFIG.keys()
    )
    def test_exit_2_with_json_error(
        self, entry, command, short_model_docs, short_csv, tmp_path, capsys,
        check, registry,
    ):
        doc = copy.deepcopy(short_model_docs["mlp"])
        doc["config"].update(entry)
        assert _run_on_model(doc, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "malformed model document" in err["message"]
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValidationError):
            check(doc, "model.schema.json", registry)


# family, where in the document (section, key), the bad value, and the
# message that names where it sits.
MISPLACED_VALUES = {
    "mlp-hidden-layers-a-string": (
        "mlp", ("config", "hidden_layers"), "x",
        "malformed model document: config.hidden_layers: 'x' is not a whole number",
    ),
    "linreg-intercept-a-list": (
        "linreg", ("params", "intercept"), [1.0],
        "malformed model document: params.intercept: [1.0] is not a number",
    ),
    "x-scaler-shapes-differ": (
        "linreg", ("x_scaler", "scale"), [],
        "malformed model document: x_scaler: mean shape (1,) and scale shape (0,)"
        " must be equal 1-D shapes",
    ),
    "y-scaler-shapes-differ": (
        "svr", ("y_scaler", "mean"), [0.0, 1.0],
        "malformed model document: y_scaler: mean shape (2,) and scale shape (1,)"
        " must be equal 1-D shapes",
    ),
}


class TestModelErrorsNameTheirPath:
    @pytest.mark.parametrize(
        "family, where, value, message", MISPLACED_VALUES.values(), ids=MISPLACED_VALUES.keys()
    )
    def test_eval_exit_2(
        self, family, where, value, message, short_model_docs, short_csv, tmp_path, capsys
    ):
        doc = copy.deepcopy(short_model_docs[family])
        doc[where[0]][where[1]] = value
        assert _run_on_model(doc, "eval", short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "input", "message": message}
        assert not (tmp_path / "o").exists()


class TestOutOfRangeModelFile:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_fractional_poly_degree_exit_2(
        self, command, short_model_docs, short_csv, tmp_path, capsys
    ):
        # (gamma a.b + coef0) ** 2.5 is NaN wherever the base is negative.
        doc = copy.deepcopy(short_model_docs["svr-poly"])
        doc["params"]["kernel"]["degree"] = 2.5
        assert _run_on_model(doc, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "whole number" in err["message"]

    # 1e400 is a JSON number that reads as inf.
    @pytest.mark.parametrize("scale", ["1e300", "1e200", "1e400", "1e-300"])
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_y_scale_out_of_range_exit_2(
        self, command, family, scale, short_model_docs, short_csv, tmp_path, capsys
    ):
        doc = copy.deepcopy(short_model_docs[family])
        doc["y_scaler"]["scale"] = ["SCALE"]
        text = json.dumps(doc).replace('"SCALE"', scale)
        assert _run_on_model(text, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "y_scaler scales must lie between" in err["message"]

    # A mean this far from the targets overflowed transform with a scale of
    # 1e-12, and forecast wrote a 301-digit count.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mean", [1e300, -1e300, 1e155])
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_y_mean_out_of_range_exit_2(
        self, command, family, mean, short_model_docs, short_csv, tmp_path, capsys
    ):
        doc = copy.deepcopy(short_model_docs[family])
        doc["y_scaler"] = {"mean": [mean], "scale": [1e-12]}
        assert _run_on_model(doc, command, short_csv, tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert "y_scaler means must lie between" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_eval_y_mean_that_cancels_the_targets_exit_3(
        self, short_model_docs, short_csv, tmp_path, capsys
    ):
        # every target minus 1e25 rounds to -1e25: one value, which would
        # read as a constant target column
        doc = copy.deepcopy(short_model_docs["linreg"])
        doc["y_scaler"]["mean"] = [1e25]
        assert _run_on_model(doc, "eval", short_csv, tmp_path) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "maps every target to one value" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["mlp", "svr", "linreg"])
    def test_eval_targets_overflowing_the_scaler_exit_3(
        self, family, short_model_docs, tmp_path, capsys
    ):
        # Counts near 1e300 over an in-range scale of 1e-12 are not finite.
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text(TINY.replace(",10,", ",1e300,"), encoding="utf-8")
        doc = copy.deepcopy(short_model_docs[family])
        doc["y_scaler"] = {"mean": [0.0], "scale": [1e-12]}
        assert _run_on_model(doc, "eval", csv_path, tmp_path) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "non-finite" in err["message"]
        assert not (tmp_path / "o").exists()


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("fmt", ["json", "csv", "both"])
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_overflowing_model_exit_3_and_writes_nothing(
        self, command, fmt, short_model_docs, short_csv, tmp_path, capsys
    ):
        doc = copy.deepcopy(short_model_docs["mlp"])
        _huge_last_layer(doc)
        code = _run_on_model(doc, command, short_csv, tmp_path, "--format", fmt)
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"
        assert not (tmp_path / "o").exists()

    def test_infinite_score_exit_3_and_writes_nothing(
        self, short_model_docs, short_csv, tmp_path, capsys
    ):
        # Finite predictions whose squared errors overflow: the report
        # would carry "mse": Infinity.
        doc = copy.deepcopy(short_model_docs["mlp"])
        last = doc["params"]["weights"][-1]
        doc["params"]["weights"][-1] = [[1e200] * len(last[0])]
        code = _run_on_model(doc, "eval", short_csv, tmp_path, "--format", "csv")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "non-finite" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_infinite_score_names_its_field(self, tmp_path, capsys):
        # A last count of 1e160 squares past the float range in the test MSE.
        rows = [f"2021-01-{d:02d},100,{10 + 3 * d},1" for d in range(1, 15)]
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text(
            "\n".join(["date,tests,confirmed,deaths", *rows, "2021-01-15,100,1e160,1"])
            + "\n",
            encoding="utf-8",
        )
        code = main([
            "train", str(csv_path), "--model", "mlp", "--optimizer", "adam",
            "--learning-rate", "1", "--activation", "logistic",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "numeric",
            "message": "cannot write a non-finite number as JSON: eval.scaled.mse is inf",
        }
        assert not (tmp_path / "o" / "train_eval.json").exists()
        # The model file is saved only after the report passes, so the
        # out-dir holds nothing at all.
        assert not list((tmp_path / "o").rglob("*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sgd_fit_warns_nothing(self, short_csv, tmp_path, capsys):
        code = main([
            "train", str(short_csv), "--model", "mlp", "--optimizer", "sgd",
            "--learning-rate", "1e300", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"


class TestSolverImport:
    """The first SVR fit imports the interior-point solver, so a command
    that fits no SVR never compiles it."""

    @pytest.mark.parametrize(
        "flags, imported",
        [(["stats"], False), (["train", "--model", "svr"], True)],
        ids=["stats", "train-svr"],
    )
    def test_in_a_fresh_interpreter(self, flags, imported, short_csv, tmp_path):
        argv = [*flags, str(short_csv), "--out-dir", str(tmp_path)]
        code = (
            "import sys\n"
            "from epicast.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('epicast.interior_point' in sys.modules)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == str(imported)
