"""Execution traces."""

import pickle

import pytest

from repro.sim.trace import Trace, TraceRecord


@pytest.fixture()
def trace():
    t = Trace()
    t.record(0.0, 1.0, "attn", item=0)
    t.record(1.0, 2.0, "attn", item=1)
    t.record(0.5, 3.0, "ffn", category="compute", item=0)
    t.record(3.0, 3.5, "dma", category="transfer", item=0)
    return t


class TestRecord:
    def test_duration(self):
        rec = TraceRecord(start=1.0, end=3.5, task="x")
        assert rec.duration == 2.5

    def test_reversed_interval_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError):
            trace.add(TraceRecord(start=2.0, end=1.0, task="x"))

    def test_record_convenience_stores_meta(self):
        trace = Trace()
        rec = trace.record(0.0, 1.0, "k", flops=42)
        assert rec.meta["flops"] == 42


class TestAggregates:
    def test_len_and_iter(self, trace):
        assert len(trace) == 4
        assert len(list(trace)) == 4

    def test_makespan(self, trace):
        assert trace.makespan == 3.5

    def test_makespan_empty(self):
        assert Trace().makespan == 0.0

    def test_busy_time_by_task(self, trace):
        busy = trace.busy_time_by_task()
        assert busy["attn"] == pytest.approx(2.0)
        assert busy["ffn"] == pytest.approx(2.5)

    def test_busy_time_by_category(self, trace):
        by_cat = trace.busy_time_by_category()
        assert by_cat["transfer"] == pytest.approx(0.5)

    def test_items_by_task(self, trace):
        assert trace.items_by_task()["attn"] == 2

    def test_task_throughput(self, trace):
        # attn: 2 items over a [0, 2] span.
        assert trace.task_throughput("attn") == pytest.approx(1.0)

    def test_task_throughput_unknown(self, trace):
        assert trace.task_throughput("nope") == 0.0

    def test_task_throughput_zero_span(self):
        t = Trace()
        t.record(1.0, 1.0, "instant")
        assert t.task_throughput("instant") == float("inf")


class TestFilter:
    def test_by_category(self, trace):
        assert len(trace.filter(category="transfer")) == 1

    def test_by_task(self, trace):
        assert len(trace.filter(task="attn")) == 2

    def test_by_both(self, trace):
        assert len(trace.filter(category="compute", task="ffn")) == 1

    def test_filter_returns_new_trace(self, trace):
        filtered = trace.filter(task="attn")
        filtered.record(10.0, 11.0, "extra")
        assert len(trace) == 4


def _columns_and_rows():
    """Two tasks' intervals as columns, plus the same rows one by one."""
    columns = [
        ("attn", "compute", [0.0, 1.0, 2.5], [1.0, 2.5, 2.75]),
        ("dma", "transfer", [0.25, 3.0], [0.5, 3.0]),
        ("attn", "compute", [4.0], [4.125]),
        ("instant", "host", [5.0, 5.0], [5.0, 5.0]),
    ]
    by_record = Trace()
    for task, category, starts, ends in columns:
        for item, (start, end) in enumerate(zip(starts, ends)):
            by_record.record(start, end, task, category=category, item=item)
    by_extend = Trace()
    for task, category, starts, ends in columns:
        by_extend.extend(task, starts, ends, category=category)
    return by_extend, by_record


class TestExtend:
    def test_equals_record_by_record_adds(self):
        by_extend, by_record = _columns_and_rows()
        assert len(by_extend) == len(by_record) == 8
        assert by_extend.records == by_record.records
        assert list(by_extend) == list(by_record)
        assert by_extend.makespan == by_record.makespan
        assert by_extend.busy_time_by_task() == by_record.busy_time_by_task()
        assert (by_extend.busy_time_by_category()
                == by_record.busy_time_by_category())
        assert by_extend.items_by_task() == by_record.items_by_task()
        for task in ("attn", "dma", "instant", "nope"):
            assert (by_extend.task_throughput(task)
                    == by_record.task_throughput(task))
        assert by_extend.task_throughput("instant") == float("inf")

    @pytest.mark.parametrize("kwargs", [
        {"category": "compute"}, {"category": "transfer"}, {"task": "attn"},
        {"task": "attn", "category": "host"}, {}])
    def test_filter_matches(self, kwargs):
        by_extend, by_record = _columns_and_rows()
        a, b = by_extend.filter(**kwargs), by_record.filter(**kwargs)
        assert a.records == b.records
        assert a.busy_time_by_task() == b.busy_time_by_task()
        assert a.items_by_task() == b.items_by_task()

    def test_mixes_with_add(self):
        trace = Trace()
        trace.record(0.0, 2.0, "k", item=7)
        trace.extend("k", [2.0, 3.0], [3.0, 5.0])
        assert [(r.item, r.start) for r in trace] == [(7, 0.0), (0, 2.0),
                                                      (1, 3.0)]
        assert trace.items_by_task() == {"k": 3}
        assert trace.task_throughput("k") == pytest.approx(3 / 5.0)

    def test_reversed_interval_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError, match="ends before it starts"):
            trace.extend("x", [0.0, 2.0, 3.0], [1.0, 1.5, 4.0])
        assert len(trace) == 0
        assert trace.items_by_task() == {}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace().extend("x", [0.0, 1.0], [1.0])

    def test_empty_extend_adds_nothing(self):
        trace = Trace()
        trace.extend("x", [], [])
        assert len(trace) == 0
        assert trace.task_throughput("x") == 0.0


class TestColumnarPickle:
    @pytest.fixture(scope="class")
    def wse_trace(self):
        from repro.cerebras.backend import CerebrasBackend
        from repro.models.config import TrainConfig, gpt2_model

        backend = CerebrasBackend()
        compiled = backend.compile(gpt2_model("small"),
                                   TrainConfig(batch_size=256, seq_len=1024))
        return backend.run(compiled).trace

    def test_well_under_record_form(self, wse_trace):
        record_form = Trace()
        for rec in wse_trace:
            record_form.add(rec)
        columnar = len(pickle.dumps(wse_trace))
        assert columnar < 0.5 * len(pickle.dumps(record_form))

    def test_iterating_does_not_grow_pickle(self, wse_trace):
        before = pickle.dumps(wse_trace)
        assert len(wse_trace.records) == len(wse_trace)
        assert pickle.dumps(wse_trace) == before

    def test_round_trip(self, wse_trace):
        copy = pickle.loads(pickle.dumps(wse_trace))
        assert copy.records == wse_trace.records
        assert copy.items_by_task() == wse_trace.items_by_task()
