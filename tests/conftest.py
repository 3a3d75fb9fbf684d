import numpy as np
import pytest

from epicast import SplitSpec, run_grid, synthetic_epidemic


@pytest.fixture(scope="session")
def series():
    return synthetic_epidemic()


@pytest.fixture(scope="session")
def chrono_split():
    return SplitSpec(mode="chronological", train_fraction=0.8, seed=0)


@pytest.fixture(scope="session")
def grid_table(series, chrono_split):
    # One shared grid run; several tests only read from it.
    return run_grid(series, chrono_split)


@pytest.fixture(scope="session")
def series_csv_path(tmp_path_factory, series):
    from epicast import serialize_csv

    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    path.write_text(serialize_csv(series), encoding="utf-8")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def grid_reports(tmp_path_factory, series_csv_path):
    """The out-dir of one CLI grid run on the 520-day series, shared by the
    tests that only read its reports."""
    from epicast.cli import main

    out = tmp_path_factory.mktemp("grid_reports")
    assert main(["grid", str(series_csv_path), "--out-dir", str(out)]) == 0
    return out
