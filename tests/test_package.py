"""Start-up of the package: ``import epicast`` loads no module until a name
is used, and ``epicast.cli`` runs OpenBLAS on one thread unless told
otherwise."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epicast

SRC = str(Path(epicast.__file__).resolve().parents[1])


def fresh(code: str, **env: str) -> list[str]:
    """The lines that code prints in a fresh interpreter that finds the
    package under src, with env's variables set and every BLAS thread
    variable that env does not name unset."""
    base = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


class TestLazyNames:
    def test_import_loads_no_numpy(self):
        assert fresh("import sys, epicast\nprint('numpy' in sys.modules)") == ["False"]

    def test_every_exported_name_resolves_and_is_listed(self):
        assert len(epicast.__all__) == len(set(epicast.__all__)) > 0
        for name in epicast.__all__:
            value = getattr(epicast, name)
            assert getattr(value, "__name__", name) == name
        assert set(epicast.__all__) <= set(dir(epicast))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'fit_everything'"):
            getattr(epicast, "fit_everything")

    def test_forecast_stays_the_function(self):
        # The import system sets a loaded submodule on its package by this
        # setattr; epicast.forecast names both a submodule and its function.
        module = importlib.import_module("epicast.forecast")
        setattr(epicast, "forecast", module)
        assert epicast.forecast is module.forecast
        setattr(epicast, "harness", sys.modules["epicast.harness"])
        assert epicast.harness is sys.modules["epicast.harness"]

    def test_forecast_is_the_function_once_the_submodule_loads_first(self):
        code = (
            "import sys\n"
            "import epicast.forecast\n"
            "import epicast\n"
            "print(epicast.forecast is sys.modules['epicast.forecast'].forecast)\n"
        )
        assert fresh(code) == ["True"]


# What a fresh ``import epicast.cli`` leaves: OPENBLAS_NUM_THREADS and
# whether the harness counts OpenBLAS as pinned to one thread.
CLI_IMPORT = (
    "import os\n"
    "import epicast.cli\n"
    "from epicast import harness\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), harness.BLAS_PINNED)\n"
)


class TestOneBlasThread:
    def test_cli_pins_one_thread(self):
        assert fresh(CLI_IMPORT) == ["1 True"]

    @pytest.mark.parametrize(
        "env, printed",
        [
            ({"OPENBLAS_NUM_THREADS": "2"}, "2 False"),
            ({"OMP_NUM_THREADS": "2"}, "None False"),
            ({"OMP_NUM_THREADS": "1"}, "None True"),
        ],
        ids=["openblas-2", "omp-2", "omp-1"],
    )
    def test_a_users_choice_stands(self, env, printed):
        assert fresh(CLI_IMPORT, **env) == [printed]

    def test_no_change_once_numpy_is_loaded(self):
        # the benchmark's traced run imports numpy before epicast.cli
        assert fresh("import numpy\n" + CLI_IMPORT) == ["None False"]
