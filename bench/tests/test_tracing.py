import threading

import epicast.svr
import pytest

from tracing import Span, Tracer, installed, missing_spans, self_times


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "a", 2.0, 4.0),
        Span(3, 1, "b", 3.0, 6.0),  # overlaps a: 2..6 counts once
        Span(4, 1, "c", 9.0, 12.0),  # clipped to the parent's end
        Span(5, 1, "d", 11.0, 13.0),  # wholly outside the parent
        Span(6, 2, "grandchild", 2.5, 3.5),  # not a child of the parent
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert got[2] == pytest.approx(2.0 - 1.0)
    assert got[6] == pytest.approx(1.0)


def test_span_on_worker_thread_is_a_child_of_the_owner_span():
    tracer = Tracer()
    with tracer.span("run_grid") as grid:
        def cell():
            with tracer.span("cell"):
                with tracer.span("fit"):
                    pass

        worker = threading.Thread(target=cell)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["cell"].parent == grid.id
    assert by_name["fit"].parent == by_name["cell"].id
    assert by_name["run_grid"].parent is None


def test_wrappers_record_calls_and_are_removed_afterwards():
    original = epicast.svr.gram_matrix
    tracer = Tracer()
    with installed(tracer):
        assert epicast.svr.gram_matrix is not original
        epicast.svr.gram_matrix(epicast.svr.KernelSpec(kind="linear"), [[1.0], [2.0]], [[1.0]])
    assert epicast.svr.gram_matrix is original
    (span,) = tracer.spans
    assert span.name == "svr.gram"
    assert span.attrs == {"kernel": "linear", "bytes": 2 * 1 * 8}


def test_self_check_names_the_spans_that_recorded_nothing():
    spans = [Span(1, None, "svr.fit", 0.0, 1.0)]
    assert missing_spans(spans, frozenset({"svr.fit", "svr.gram", "mlp.fit"})) == ["mlp.fit", "svr.gram"]


def test_traced_run_fails_loudly_when_a_required_layer_records_no_call(tmp_path):
    from checks import OutputChecker
    from run import SCHEMAS, traced
    from workloads import Step, Workload

    (tmp_path / "input.csv").write_text(
        "date,tests,confirmed,deaths\n2021-01-01,100,10,1\n2021-01-02,110,12,0\n"
    )
    stats_only = Workload(
        "stats-only",
        {},
        (Step("stats", "stats_s", ("stats", "input.csv"), (("stats.json", "stats.schema.json"),)),),
        frozenset({"dataset.parse", "svr.fit"}),
    )
    with pytest.raises(SystemExit, match=r"recorded no calls on stats-only: svr\.fit;"):
        traced(stats_only, tmp_path, 0.0, OutputChecker(SCHEMAS))
