"""The README's Library example runs against the current API."""

import re
from datetime import timedelta
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python code block under the README's Library heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_block(), "README.md (Library)", "exec"), namespace)
    r2, low, high = map(float, capsys.readouterr().out.split())
    series, report = namespace["series"], namespace["report"]
    assert len(report.predictions) == 30
    assert report.predictions[0][0] == series.last_date + timedelta(days=1)
    assert low <= high
    assert r2 > 0.5
