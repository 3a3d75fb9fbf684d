"""Property tests: the parser and the model-document reader accept any
input and either return a value or raise an InputError subclass, never a
raw Python error."""

import copy
import json
from datetime import date as Date

from hypothesis import example, given, settings, strategies as st

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
    model_from_dict,
    model_to_dict,
    parse_csv,
    standardized_split,
    synthetic_epidemic,
    train_on_split,
)
from epicast.errors import InputError

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
    CSV_TEXT.map(str.encode),
    st.builds(lambda t, b: t.encode() + b, CSV_TEXT, st.binary(max_size=4)),
    st.binary(max_size=40),
)


@PROPERTY
@given(CSV_INPUT)
@example(HEADER.encode() + b"\n\xff\n")
@example(HEADER + "\n2021-01-01,1\r2,3,4\n")
def test_parse_csv_returns_series_or_raises_input_error(data):
    try:
        series = parse_csv(data)
    except InputError:
        return
    assert isinstance(series, CaseSeries)


def _model_documents() -> dict[str, dict]:
    series = synthetic_epidemic(SyntheticSpec(days=40, midpoint=20.0, width=5.0))
    data = build_supervised(series, ("day_index",), "confirmed")
    split = standardized_split(data, SplitSpec())
    configs = {
        "mlp": MlpConfig(hidden_layers=1, neurons_per_layer=2, max_iterations=5),
        "svr": SvrConfig(kernel=KernelSpec(kind="poly", degree=2)),
        "linreg": LinRegConfig(iterations=10),
    }
    docs = {}
    for family, config in configs.items():
        model, _ = train_on_split(family, config, split, ("day_index",), "confirmed")
        docs[family] = json.loads(json.dumps(model_to_dict(model)))
    return docs


DOCS = _model_documents()


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


@PROPERTY
@given(mutated_documents())
@example(_with("svr", "params", "passes", float("inf")))
@example(_with("linreg", "params", "intercept", 10**400))
def test_model_from_dict_returns_model_or_raises_input_error(doc):
    try:
        model = model_from_dict(doc)
    except InputError:
        return
    assert isinstance(model, TrainedModel)
