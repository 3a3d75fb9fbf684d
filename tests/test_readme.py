"""The README's Library example and Command line block run against the
current API and CLI."""

import json
import re
import shlex
from datetime import timedelta
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from epicast import serialize_csv, synthetic_epidemic
from epicast.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SCHEMA_DIR = ROOT / "docs" / "schemas"


def section(heading: str) -> str:
    """The README's text under a level-2 heading, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    """The first python code block under the README's Library heading."""
    return re.search(r"```python\n(.*?)```", section("Library"), re.DOTALL).group(1)


def command_lines() -> list[str]:
    """Each ``epicast`` command of the first sh block under the README's
    Command line heading, continuation lines joined."""
    block = re.search(r"```sh\n(.*?)```", section("Command line"), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("epicast ")]


def validator(path: Path) -> Draft202012Validator:
    """The validator of the schema a written JSON file follows."""
    name = "model" if path.name.startswith("model_") else path.stem
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    common = Resource.from_contents(json.loads((SCHEMA_DIR / "common.json").read_text()))
    return Draft202012Validator(schema, registry=common @ Registry())


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_block(), "README.md (Library)", "exec"), namespace)
    r2, low, high = map(float, capsys.readouterr().out.split())
    series, report = namespace["series"], namespace["report"]
    assert len(report.predictions) == 30
    assert report.predictions[0][0] == series.last_date + timedelta(days=1)
    assert low <= high
    assert r2 > 0.5


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    commands = command_lines()
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    Path("cases.csv").write_text(serialize_csv(synthetic_epidemic()), encoding="utf-8")
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
        # a later command may overwrite a report, so check each one's output
        for path in tmp_path.rglob("*.json"):
            validator(path).validate(json.loads(path.read_text(encoding="utf-8")))
    assert {p.name for p in tmp_path.rglob("*.json")} == {
        "stats.json", "train_eval.json", "eval.json", "scoretable.json",
        "forecast.json", "comparison.json", "scenario.json",
        "model_mlp_confirmed.json", "model_svr_confirmed.json",
        "model_linreg_confirmed.json",
    }
