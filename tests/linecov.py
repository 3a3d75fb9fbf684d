"""A pytest plugin that fails the run when a statement inside a function of
``src/epicast`` is never executed by the tests.

Tracing nearly doubles the run time, so it is its own step, not part of
the usual run:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

It records line events with ``sys.settrace`` and ``threading.settrace``
while the tests run, lists each function's statements with ``ast``, and at
the end prints ``file:line`` for every statement that ran no line and sets
the exit status to 1. Docstrings and ``nonlocal``/``global`` declarations
execute nothing, so they are not listed; a ``try`` is listed through the
statements of its clauses. Code that the tests reach only in a subprocess
is not traced.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epicast"


def _head(stmt: ast.stmt) -> range:
    """The lines a statement runs before its body: its decorators and the
    statement itself if simple, up to its first body line if compound."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    end = max(stmt.lineno, body[0].lineno - 1) if body else stmt.end_lineno
    return range(start, end + 1)


def _statements(body: list[ast.stmt]):
    """The statements of a function body that run a line, nested blocks
    included and nested functions and classes excluded (a nested function
    is a function of its own)."""
    for stmt in body:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        if not isinstance(stmt, ast.Try):
            yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, block, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def unexecuted(source: str, executed: set[int]) -> list[int]:
    """The first line of each statement inside a function of source none of
    whose head lines is in executed, in order."""
    missing = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body
            missing.update(
                stmt.lineno
                for stmt in _statements(body)
                if not any(line in executed for line in _head(stmt))
            )
    return sorted(missing)


class LineTracer:
    """The lines executed in files under root, per absolute path."""

    def __init__(self, root: Path) -> None:
        self.root = str(root) + os.sep
        self.lines: dict[str, set[int]] = defaultdict(set)
        self._paths: dict[str, str | None] = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._paths:
            path = os.path.realpath(name)
            self._paths[name] = path if path.startswith(self.root) else None
        path = self._paths[name]
        if path is None:
            return None
        lines = self.lines[path]

        def _line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return _line

        return _line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


_tracer = LineTracer(PACKAGE)


def pytest_configure(config: pytest.Config) -> None:
    _tracer.start()


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    _tracer.stop()
    missing = [
        f"{path.relative_to(PACKAGE.parents[1])}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in unexecuted(
            path.read_text(encoding="utf-8"), _tracer.lines.get(str(path), set())
        )
    ]
    if missing:
        print(f"\n{len(missing)} statements in src/epicast functions that no test ran:")
        print("\n".join(missing))
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
    else:
        print("\nevery statement in src/epicast functions ran")
