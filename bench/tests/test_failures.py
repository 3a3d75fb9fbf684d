import json
import os

import pytest

from checks import CheckFailed, OutputChecker, SHAPES
from run import SCHEMAS, SRC, Tally, run_round
from runner import run_inprocess, run_subprocess
from workloads import Step, Workload

MISSING = Workload(
    "missing-input",
    {},
    (Step("stats", "stats_s", ("stats", "no-such.csv"), (("stats.json", "stats.schema.json"),)),),
    frozenset(),
)


def _run(tmp_path, execute):
    tally = Tally()
    run_round(MISSING, tmp_path, execute, OutputChecker(SCHEMAS), tally)
    return tally


def test_missing_input_in_a_fresh_interpreter_is_counted_not_raised(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tally = _run(tmp_path, lambda step: run_subprocess(step.full_argv(), str(tmp_path), env))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures[0].startswith("stats: exit 2: ")
    assert json.loads(tally.failures[0].split(": ", 2)[2])["error"] == "input"


def test_missing_input_in_process_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tally = _run(tmp_path, lambda step: run_inprocess(step.full_argv()))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures[0].startswith("stats: exit 2: ")


def test_a_command_that_raises_counts_as_exit_1(tmp_path, monkeypatch):
    import epicast.cli

    def crash(series):
        raise RuntimeError("boom")

    (tmp_path / "input.csv").write_text("date,tests,confirmed,deaths\n2021-01-01,100,10,1\n")
    stats = Workload("crash", {}, (Step("stats", "stats_s", ("stats", "input.csv"), ()),), frozenset())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(epicast.cli, "summarize_series", crash)
    tally = Tally()
    run_round(stats, tmp_path, lambda step: run_inprocess(step.full_argv()), OutputChecker(SCHEMAS), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures[0] == "stats: exit 1: RuntimeError: boom"


def test_forecast_rows_must_be_thirty_non_negative_integers():
    rows = [{"date": "2021-01-01", "predicted": 5}] * 30
    SHAPES["forecast"]({"forecast.json": {"predictions": rows}})
    with pytest.raises(CheckFailed):
        SHAPES["forecast"]({"forecast.json": {"predictions": rows[:29]}})
    with pytest.raises(CheckFailed):
        SHAPES["forecast"]({"forecast.json": {"predictions": rows[:29] + [{"predicted": -1}]}})
    with pytest.raises(CheckFailed):
        SHAPES["forecast"]({"forecast.json": {"predictions": rows[:29] + [{"predicted": 1.5}]}})


def test_changed_output_fails_the_determinism_check(tmp_path):
    step = Step("x", "x_s", ("x",), ())
    out = tmp_path / step.out_dir
    out.mkdir(parents=True)
    checker = OutputChecker(SCHEMAS)
    doc = {"value": 1, "manifest": {"timestamps": {"started": "a"}}}
    (out / "r.json").write_text(json.dumps(doc))
    assert checker.check(step, tmp_path)[0] is None
    doc["manifest"]["timestamps"]["started"] = "b"  # timestamps are not payload
    (out / "r.json").write_text(json.dumps(doc))
    assert checker.check(step, tmp_path)[0] is None
    doc["value"] = 2
    (out / "r.json").write_text(json.dumps(doc))
    assert "differs" in checker.check(step, tmp_path)[0]
