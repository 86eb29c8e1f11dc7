"""Self-time accounting of the traced run."""

import threading

import pytest

from spans import Span, Tracer, layer_rows, self_times, union_length, unattributed


def _span(index, name, start, end, parent=None, detached=False):
    return Span(index=index, name=name, start=start, end=end, parent=parent,
                op="op", detached=detached)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 2.0, 3.0, parent=1),
        _span(3, "c", 5.0, 6.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert unattributed(12.0, spans) == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 5.0, parent=0),
        _span(2, "b", 3.0, 7.0, parent=0),  # overlaps a by 2s
        _span(3, "c", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_detached_spans_stay_out_of_the_partition():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "wait", 1.0, 9.0, parent=0),
        _span(2, "load", 2.0, 8.0, parent=0, detached=True),
    ]
    selfs = self_times(spans)
    assert set(selfs) == {0, 1}
    assert selfs[0] == pytest.approx(2.0)
    rows = layer_rows(spans)
    assert rows["load"].total_s == pytest.approx(6.0)
    assert rows["load"].self_s == 0.0
    assert sum(selfs.values()) + unattributed(10.0, spans) == pytest.approx(10.0)


def test_tracer_links_parents_ops_and_adopted_threads():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.bind("lc1"):
        with tracer.span("systems.run_iteration", iteration=3) as outer:
            with tracer.span("core.compile"):
                pass

            def pool_task():
                with tracer.adopt(outer):
                    with tracer.span("storage.load"):
                        pass

            worker = threading.Thread(target=pool_task)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["core.compile"].parent == outer.index
    assert by_name["storage.load"].parent == outer.index
    assert by_name["storage.load"].detached
    assert not by_name["core.compile"].detached
    assert {span.op for span in tracer.spans} == {"lc1"}
    assert {span.iteration for span in tracer.spans} == {3}
    total = outer.duration
    assert sum(self_times(tracer.spans).values()) + unattributed(total, tracer.spans) == total
