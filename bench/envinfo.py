"""The environment block printed with every run: interpreter, numpy and its
BLAS, processors and cache, so figures from two machines are not mixed."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _blas_threads(numpy) -> int | str:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="ascii") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size"), encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            continue
    return "unknown"


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's processors since boot; None where /proc/stat has no steal."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {
            var: os.environ.get(var, "unset") for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "l3": _l3_size(),
    }
