"""Property tests: the parser and the model-document reader accept any
input and either return a value or raise an InputError subclass, never a
raw Python error; a document the reader loads follows model.schema.json,
and the model predicts a row or raises an EpicastError; a document that
follows the schema loads unless a check on shapes, ranges or the agreement
of fields rejects it; and eval never blames the CSV for what is wrong with
a model it loads. An MLP fit that stops before its iteration budget is
the fit of every larger budget, which lets the grid share one fit between
budget-only slots."""

import copy
import dataclasses
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import date as Date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from epicast import (
    CaseSeries,
    KernelSpec,
    LinRegConfig,
    MlpConfig,
    SplitSpec,
    SvrConfig,
    SyntheticSpec,
    TrainedModel,
    build_supervised,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_csv,
    predict_raw,
    serialize_csv,
    standardized_split,
    synthetic_epidemic,
    train_on_split,
)
from epicast.cli import main
from epicast.errors import EpicastError, InputError
from epicast.mlp import ACTIVATIONS, OPTIMIZERS, train_mlp

# Seeded search keeps the suite deterministic; no example database is kept.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

HEADER = "date,tests,confirmed,deaths"

# Cells near the real format: dates in a short span (so some files parse),
# counts, and short fragments of the characters CSV treats specially.
CELL = st.one_of(
    st.dates(min_value=Date(2021, 1, 1), max_value=Date(2021, 1, 8)).map(Date.isoformat),
    st.integers(min_value=-5, max_value=10**6).map(str),
    st.text(alphabet='0123456789-.e ,"\r\n\x00', max_size=7),
)
ROW = st.lists(CELL, max_size=5).map(",".join)
CSV_TEXT = st.builds(
    lambda header, rows, newline: newline.join([header, *rows]),
    st.one_of(st.just(HEADER), st.just("deaths,date,confirmed,tests"), ROW),
    st.lists(ROW, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
)
CSV_INPUT = st.one_of(
    CSV_TEXT,
    st.text(max_size=40),
    st.builds(lambda t, u: t + u, CSV_TEXT, st.text(max_size=4)),
)


@PROPERTY
@given(CSV_INPUT)
@example(HEADER + "\n2021-01-01,1\r2,3,4\n")
def test_parse_csv_returns_series_or_raises_input_error(data):
    try:
        series = parse_csv(data)
    except InputError:
        return
    assert isinstance(series, CaseSeries)


SERIES = synthetic_epidemic(SyntheticSpec(days=40, midpoint=20.0, width=5.0))
SPLIT = standardized_split(
    build_supervised(SERIES, ("day_index",), "confirmed"), SplitSpec()
)


def _model_document(family: str, config) -> dict:
    """The document of a model fit to SERIES' confirmed counts."""
    model, _ = train_on_split(family, config, SPLIT, ("day_index",), "confirmed")
    return json.loads(json.dumps(model_to_dict(model)))


DOCS = {
    "mlp": _model_document(
        "mlp", MlpConfig(hidden_layers=1, neurons_per_layer=2, max_iterations=5)
    ),
    "svr": _model_document("svr", SvrConfig(kernel=KernelSpec(kind="poly", degree=2))),
    "linreg": _model_document("linreg", LinRegConfig(iterations=10)),
}


def _paths(node, prefix=()):
    """Every key path into a JSON tree, parents before children."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


# Values json.loads can produce, including NaN, Infinity and integers too
# large for a float.
JSON_VALUE = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.just(10**400),
        st.floats(),
        st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    paths = [p for p in _paths(doc) if p]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(paths))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if isinstance(parent, dict) and draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(JSON_VALUE)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
    return doc


def _with(family: str, section: str, key: str, value) -> dict:
    doc = copy.deepcopy(DOCS[family])
    doc[section][key] = value
    return doc


MODEL_SCHEMA = Draft202012Validator(json.loads(
    (Path(__file__).resolve().parents[1] / "docs/schemas/model.schema.json").read_text()
))


@PROPERTY
@given(mutated_documents())
@example(_with("svr", "params", "passes", float("inf")))
@example(_with("linreg", "params", "intercept", 10**400))
@example(_with("linreg", "params", "intercept", "1.5"))
@example(_with("linreg", "params", "slope", ["2.0"]))
@example(_with("svr", "params", "support_coefs", []))
@example(_with("mlp", "params", "biases", [[0.0], [0.0]]))
@example(_with("svr", "params", "kernel", {"kind": "poly", "gamma": 10**400}))
@example(
    _with("svr", "params", "kernel", {"kind": "poly", "gamma": 1.0, "degree": 10**400})
)
def test_model_from_dict_returns_model_or_raises_input_error(doc):
    try:
        model = model_from_dict(doc)
    except InputError:
        return
    assert isinstance(model, TrainedModel)
    MODEL_SCHEMA.validate(doc)
    try:
        predictions = predict_raw(model, np.zeros((1, len(model.feature_names))))
    except EpicastError:
        return
    assert predictions.shape == (1,)


# What the reader checks and model.schema.json leaves to it: the shapes
# and ranges of values and the agreement of one field with another.
READER_ONLY = {
    "ragged array": "inhomogeneous shape",
    "integer beyond the float range": "int too large to convert to float",
    "scaler shape": r"must be equal 1-D shapes|_scaler needs \d+ columns",
    "scaler range": r"_scaler (scales|means) must lie between",
    "MLP shapes": "MLP layers do not have the shapes",
    "slope width": "slope needs",
    "SVR shapes": "support vectors need",
    "kernel mismatch": "params.kernel must be config.kernel|gamma is unresolved",
    "empty feature_names": "feature_names is empty",
    "setting out of range": (
        r"must be (at least|positive|nonnegative|non-negative|finite|a whole)|is not a count"
    ),
}


@PROPERTY
@given(mutated_documents())
@example(_with("mlp", "config", "max_iterations", 0))
@example(_with("linreg", "params", "intercept", 10**400))
def test_schema_valid_document_loads_unless_a_reader_only_check_rejects_it(doc):
    if not MODEL_SCHEMA.is_valid(doc):
        return
    try:
        model_from_dict(doc)
    except InputError as err:
        assert re.search("|".join(READER_ONLY.values()), str(err)), err


# Model files as train writes them, one per family and SVR kernel.
MODEL_FILES = {
    "mlp": _model_document(
        "mlp", MlpConfig(hidden_layers=1, neurons_per_layer=4, max_iterations=200)
    ),
    "svr-rbf": _model_document("svr", SvrConfig()),
    "svr-poly": _model_document("svr", SvrConfig(kernel=KernelSpec(kind="poly"))),
    "linreg": _model_document("linreg", LinRegConfig()),
}

DROP_LAST = "drop the last entry"
EXTREMES = (1e300, -1e300, 1e-300, 2.5, -0.0, 0)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _changes(value) -> tuple:
    """Each numeric leaf is set to each extreme, and each non-empty array
    loses its last entry."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return EXTREMES
    if isinstance(value, list) and value:
        return (DROP_LAST,)
    return ()


# Every (model name, key path, change) of the model files.
MODEL_FILE_MUTATIONS = [
    (name, path, change)
    for name, doc in MODEL_FILES.items()
    for path in _paths(doc)
    for change in _changes(_at(doc, path))
]


@pytest.fixture(scope="module")
def history_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("history") / "history.csv"
    path.write_text(serialize_csv(SERIES), encoding="utf-8")
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(MODEL_FILE_MUTATIONS))
@example(("svr-rbf", ("y_scaler", "scale", 0), 1e300))
@example(("linreg", ("y_scaler", "mean", 0), -1e300))
def test_loaded_model_file_is_never_blamed_on_the_csv(history_csv, mutation):
    """eval and forecast exit 0, 2 or 3, a failure ends stderr with a JSON
    error, and eval does not exit 2 (an input error, which the CSV gets the
    blame for) on a model document that model_from_dict accepts."""
    name, path, change = mutation
    doc = copy.deepcopy(MODEL_FILES[name])
    if change == DROP_LAST:
        del _at(doc, path)[-1]
    else:
        _at(doc, path[:-1])[path[-1]] = change
    try:
        model_from_dict(doc)
        loads = True
    except InputError:
        loads = False
    with tempfile.TemporaryDirectory() as tmp:
        model_file = Path(tmp) / "model.json"
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (
            ["eval", str(model_file), str(history_csv)],
            ["forecast", str(model_file), "--csv", str(history_csv)],
        ):
            stderr = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = main([*argv, "--out-dir", str(Path(tmp) / "out")])
            assert code in (0, 2, 3)
            if code:
                assert "error" in json.loads(stderr.getvalue().splitlines()[-1])
            if loads and argv[0] == "eval":
                assert code != 2, stderr.getvalue()


START = Date(2021, 1, 1)
HUGE = "1" + "0" * 200  # parses as the count 10**200
# Count cells from ordinary to 1e300, plus missing and unusable ones.
COUNT = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.integers(min_value=0, max_value=10**300).map(str),
    st.sampled_from(["", HUGE, "1e300", "1e200", "1e160", "-3", "x"]),
)


@st.composite
def count_column(draw, n: int, shape: str):
    """n count cells of one column, shaped so that a fit can run on it.

    "varying": distinct ordinary counts, with up to two cells replaced by
    any COUNT (a gap, an unusable cell or one up to 1e300). "constant": one
    COUNT on every row. "step": one COUNT on every row but the last one to
    three, which draw their own, so the test rows of an 80/20 split leave
    the scale of a train column that may be constant.
    """
    if shape == "varying":
        cells = [str(v) for v in draw(
            st.lists(st.integers(min_value=0, max_value=10**6), min_size=n, max_size=n,
                     unique=True)
        )]
        for i, cell in draw(st.lists(st.tuples(st.integers(0, n - 1), COUNT), max_size=2)):
            cells[i] = cell
        return cells
    cells = [draw(COUNT)] * n
    if shape == "step":
        tail = draw(st.lists(COUNT, min_size=1, max_size=3))
        cells[n - len(tail):] = tail
    return cells


@st.composite
def count_csvs(draw):
    """(CSV text, scenario window start and end inside its dates, train
    features, target). The target column varies, so most examples reach a
    fit; the other two may be constant or step away from their train scale
    on the last rows."""
    n = draw(st.integers(min_value=10, max_value=24))
    features = draw(st.sampled_from(["day_index", "day_index,tests", "tests,deaths"]))
    target = draw(st.sampled_from(["confirmed", "deaths"]))
    columns = [
        draw(count_column(
            n,
            "varying" if name == target
            else draw(st.sampled_from(["varying", "constant", "step"])),
        ))
        for name in ("tests", "confirmed", "deaths")
    ]
    lines = [HEADER] + [
        ",".join([(START + timedelta(days=i)).isoformat(), *(c[i] for c in columns)])
        for i in range(n)
    ]
    # an 80/20 split tests on two rows or more of a ten-row window; a start
    # in the last nine rows leaves a shorter one
    lo = draw(st.integers(min_value=0, max_value=n - 1))
    hi = draw(st.integers(min_value=min(lo + 9, n - 1), max_value=n - 1))
    return "\n".join(lines) + "\n", lo, hi, features, target


def _huge_csv(tests: str, confirmed: str, test_rows_tests: str | None = None) -> tuple:
    """12 rows, the last 2 of which an 80/20 split tests on; tests holds
    ``test_rows_tests`` there when it is given."""
    lines = [HEADER] + [
        f"{START + timedelta(days=i)},"
        f"{test_rows_tests if test_rows_tests and i >= 10 else tests},"
        f"{confirmed if i % 2 else i},{i}"
        for i in range(12)
    ]
    return "\n".join(lines) + "\n", 0, 11, "day_index,tests", "confirmed"


def _keeps_the_exit_contract(argv: list[str], tmp: str) -> int:
    """Run one command with its --out-dir under tmp and check that it exits
    0, 2, 3 or 4, and on failure prints exactly one JSON error line on
    stderr; returns the exit code."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main([*argv, "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), (argv[:4], code)
    if code:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1, (argv[:4], lines)
        assert "error" in json.loads(lines[0])
    return code


def _huge_examples(test):
    """The count_csvs cases with counts beyond what the scaler accepts."""
    for case in (
        _huge_csv(tests="5", confirmed=HUGE),  # a target beyond the scaler bound
        _huge_csv(tests=HUGE, confirmed="7"),  # a constant feature beyond it
        # a feature constant on the train rows that scales to inf on the test rows
        _huge_csv(tests="5", confirmed="7", test_rows_tests="1e300"),
    ):
        test = example(case)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(count_csvs())
@_huge_examples
def test_count_csvs_through_the_cli_keep_the_exit_contract(case):
    """stats, train of each family, forecast of each model file and
    scenario on CSVs with counts up to 1e300 keep the exit contract with
    no warning (the suite turns numpy RuntimeWarnings into errors), and a
    model file train writes is one its loader accepts."""
    text, lo, hi, features, target = case
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "counts.csv"
        csv_path.write_text(text, encoding="utf-8")
        window = [(START + timedelta(days=d)).isoformat() for d in (lo, hi)]
        _keeps_the_exit_contract(["stats", str(csv_path)], tmp)
        trains = {
            "linreg": ["--iterations", "50"],
            "svr": ["--max-passes", "200"],
            "mlp": ["--hidden-layers", "1", "--neurons", "2", "--max-iterations", "5"],
        }
        for family, flags in trains.items():
            model_file = str(Path(tmp) / f"model_{family}.json")
            argv = ["train", str(csv_path), "--model", family, *flags, "--features",
                    features, "--target", target, "--out", model_file]
            if _keeps_the_exit_contract(argv, tmp) == 0:
                load_model(model_file)
                _keeps_the_exit_contract(
                    ["forecast", model_file, "--csv", str(csv_path), "--horizon", "3"], tmp
                )
        _keeps_the_exit_contract(
            ["scenario", str(csv_path), "--from", window[0], "--to", window[1],
             "--horizon", "3", "--hidden-layers", "1", "--neurons", "2",
             "--max-iterations", "5"],
            tmp,
        )


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    count_csvs(),
    st.sampled_from(OPTIMIZERS),
    st.sampled_from(["1e-3", "1", "1e3"]),
    st.sampled_from(ACTIVATIONS),
)
# an sgd fit whose loss rises until it overflows at iteration 43
@example(_huge_csv(tests="5", confirmed="7"), "sgd", "1e3", "tanh")
def test_mlp_optimizer_flags_keep_the_exit_contract(case, optimizer, rate, activation):
    """train --model mlp --strict with each optimizer, a learning rate from
    tame to diverging and each activation exits 0, 2, 3 or 4 with no
    warning, on the CSVs of the test above."""
    text, _, _, features, target = case
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "counts.csv"
        csv_path.write_text(text, encoding="utf-8")
        _keeps_the_exit_contract(
            ["train", str(csv_path), "--model", "mlp", "--strict", "--hidden-layers", "1",
             "--neurons", "2", "--optimizer", optimizer, "--learning-rate", rate,
             "--activation", activation, "--features", features, "--target", target],
            tmp,
        )


# A grid on 10-24 rows takes about 0.15 s and compare runs one more, so
# this test draws fewer CSVs than the one above.
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(count_csvs())
@_huge_examples
def test_count_csvs_through_grid_and_compare_keep_the_exit_contract(case):
    """grid and compare --horizon 3 of small MLP slots keep the exit
    contract on the CSVs of the test above."""
    text, _, _, _, target = case
    mlp = ["--mlp-hidden-layers", "1", "--mlp-neurons", "2"]
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "counts.csv"
        csv_path.write_text(text, encoding="utf-8")
        _keeps_the_exit_contract(["grid", str(csv_path), *mlp], tmp)
        _keeps_the_exit_contract(
            ["compare", str(csv_path), "--horizon", "3", "--target", target, *mlp], tmp
        )


BUDGET_X = np.linspace(-1.5, 1.5, 12)[:, None]
BUDGET_Y = np.tanh(2.0 * BUDGET_X[:, 0]) + 0.1 * BUDGET_X[:, 0] ** 2


def _fit_bytes(config: MlpConfig) -> tuple:
    """What train_mlp returns on the tiny design, as bytes to compare, or
    the error it raises."""
    try:
        _, result = train_mlp(config, BUDGET_X, BUDGET_Y)
    except EpicastError as err:
        return (type(err).__name__, str(err))
    return (
        result.theta.tobytes(),
        np.asarray(result.trace).tobytes(),
        result.status,
        result.iterations,
        np.float64(result.grad_norm).tobytes(),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.sampled_from(OPTIMIZERS),
    st.sampled_from(ACTIVATIONS),
    st.sampled_from([0.0, 1e-6, 1e-3, 1e-1]),
    st.sampled_from([1e-2, 0.1, 1.0]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=60),
)
# one early stop for each optimizer
@example("lbfgs", "tanh", 1e-3, 1e-2, 40, 1)
@example("sgd", "logistic", 1e-1, 0.1, 30, 30)
@example("adam", "relu", 1e-1, 1e-2, 25, 5)
def test_an_early_stop_is_the_fit_of_every_larger_budget(
    optimizer, activation, tolerance, rate, budget, extra
):
    """Whenever the fit at one budget ends with a status other than
    max_iterations, a larger budget gives byte-equal theta, trace, status,
    iteration count and grad_norm: the optimizers read the budget only to
    stop."""
    config = MlpConfig(
        hidden_layers=1, neurons_per_layer=3, activation=activation,
        optimizer=optimizer, max_iterations=budget, tolerance=tolerance,
        learning_rate=rate,
    )
    small = _fit_bytes(config)
    if "max_iterations" in small:
        return
    larger = dataclasses.replace(config, max_iterations=budget + extra)
    assert _fit_bytes(larger) == small
