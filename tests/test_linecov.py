"""The line-coverage plugin's detector: it names the statements that did
not run and nothing else."""

import sys
import threading

from linecov import LineTracer, unexecuted

SOURCE = '''\
import functools


def f(x):
    """A docstring runs nothing."""
    global G
    if x:
        return 1
    try:
        y = (
            2
        )
    except ValueError:
        y = 3

    @functools.lru_cache
    def g():
        nonlocal y
        return y

    return g()
'''
# Lines: 7 if, 8 return 1, 10-12 y = 2, 14 y = 3, 16-17 def g, 19 return y,
# 21 return g().


def test_detector_lists_only_what_did_not_run():
    # the executed lines of f(1): the if, then its return
    assert unexecuted(SOURCE, {7, 8}) == [10, 14, 17, 19, 21]
    # a multi-line statement counts if any of its lines ran; a decorated
    # def if its decorator line did
    assert unexecuted(SOURCE, {7, 8, 11, 16, 19, 21}) == [14]


def test_tracer_records_the_lines_that_ran(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")
    namespace: dict = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    tracer = LineTracer(tmp_path)
    # the plugin itself may be tracing this run: put its tracer back after
    previous = sys.gettrace(), threading.gettrace()
    tracer.start()
    try:
        namespace["f"](0)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    executed = tracer.lines[str(path.resolve())]
    assert unexecuted(SOURCE, executed) == [8, 14]
