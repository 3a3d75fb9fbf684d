"""Running one CLI command: in a fresh interpreter, as a user's shell would,
or in-process through ``epicast.cli.main`` for the traced run."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

RSS_POLL_S = 0.05


@dataclass(frozen=True)
class CommandResult:
    seconds: float
    returncode: int
    stderr: str
    # Both None in-process, where the benchmark's own heap and time mix in.
    peak_rss_mb: float | None = None
    cpu_seconds: float | None = None  # user + system, reaped descendants included


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass  # the process ended between listing and reading
    return kids


def _own_peak_kb(pid: int) -> int:
    """VmHWM, the process's own peak resident set, or 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TreePeak(threading.Thread):
    """Samples the peak RSS of every process in a command's tree.

    A process's VmHWM only grows, so the last sample of each process is
    its peak up to that sample, which misses at most the last RSS_POLL_S of
    its life; the sum over the tree bounds the tree's simultaneous peak from
    above. wait4's ru_maxrss cannot serve: it keeps the RSS of the forked
    copy of the benchmark from before exec, ~40 MB, more than a short
    command's own peak.
    """

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.peaks: dict[int, int] = {}
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            pending = [self.root]
            while pending:
                pid = pending.pop()
                kb = _own_peak_kb(pid)
                if kb:
                    self.peaks[pid] = max(kb, self.peaks.get(pid, 0))
                pending.extend(_children(pid))
            if self._done.wait(RSS_POLL_S):
                return

    def stop(self) -> int:
        self._done.set()
        self.join()
        return sum(self.peaks.values())


def run_subprocess(argv: list[str], cwd: str, env: dict) -> CommandResult:
    """Run ``python -m epicast.cli argv`` and time it until it is reaped."""
    with open(os.path.join(cwd, "stderr.txt"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "epicast.cli", *argv],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        sampler = _TreePeak(proc.pid)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            seconds = time.perf_counter() - start
            tree_kb = sampler.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return CommandResult(seconds, proc.returncode, stderr, tree_kb / 1024.0, cpu)


def run_inprocess(argv: list[str]) -> CommandResult:
    """Call ``epicast.cli.main`` in this process; the working directory must
    already be the workload's. A raising command counts as exit 1."""
    from epicast.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = 1
    return CommandResult(time.perf_counter() - start, code, err.getvalue())


def reference_probe() -> float:
    """Seconds this process takes for a fixed piece of interpreter and numpy
    work. The benchmark never changes it, so its time tracks only how fast
    the machine runs at the moment; round times divided by it carry less of
    the minutes-long speed drift of a shared host."""
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(200_000):
        counts[i % 997] = counts.get(i % 997, 0) + i * 3 // 7
    a = np.random.default_rng(0).standard_normal((300, 300))
    for _ in range(60):
        a = np.tanh(a @ a.T / 300.0)
    return time.perf_counter() - start


def measure_setup(env: dict, cwd: str, repeats: int) -> list[float]:
    """Seconds from a fresh interpreter's start until ``epicast.cli`` is
    imported, ``repeats`` times."""
    argv = [sys.executable, "-c", "import epicast.cli"]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=cwd, env=env, check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples
