"""TraceRecorder / trace merge determinism / Chrome export."""

import gc
import json
import random
import threading
import warnings

from repro.observe import (
    TraceEvent,
    TraceRecorder,
    events_for_key,
    load_events,
    merge_events,
    merged_trace_text,
    new_run_token,
    summarize_events,
    to_chrome_events,
    trace_shard_paths,
    write_chrome_trace,
)


def lifecycle(key, attempt=1):
    """A realistic per-cell event set, deliberately out of order."""
    return [
        TraceEvent("cell", key=key, status="ok", attempt=attempt,
                   ts=5.0, duration=2.0),
        TraceEvent("run", key=key, phase="run", status="ok",
                   attempt=attempt, ts=4.0, duration=1.0),
        TraceEvent("schedule", key=key, status="lane-major", ts=1.0),
        TraceEvent("compile", key=key, phase="compile", status="ok",
                   attempt=attempt, ts=3.0, duration=0.5),
        TraceEvent("dispatch", key=key, ts=2.0),
    ]


class TestTraceEvent:
    def test_round_trip(self):
        event = TraceEvent("retry", key="a::L2", phase="compile",
                           status="error", attempt=2, ts=1.5,
                           duration=0.0, seq=7,
                           meta={"error": "CompilerCrashError"})
        back = TraceEvent.from_dict(event.to_dict(), writer="w")
        assert back.name == event.name
        assert back.key == event.key
        assert back.attempt == 2
        assert back.meta == {"error": "CompilerCrashError"}
        assert back.writer == "w"

    def test_canonical_excludes_volatile_fields(self):
        event = TraceEvent("run", key="k", phase="run", status="ok",
                           attempt=1, ts=123.4, duration=9.9,
                           writer="shard-x", seq=42, meta={"pid": 1})
        assert event.canonical() == {"key": "k", "name": "run",
                                     "phase": "run", "status": "ok",
                                     "attempt": 1}


class TestRecorder:
    def test_emit_and_load(self, tmp_path):
        recorder = TraceRecorder(tmp_path, run="abcd1234")
        recorder.emit("schedule", key="wse::L2", status="lane-major")
        recorder.emit("compile", key="wse::L2", phase="compile",
                      status="ok", attempt=1, duration=0.5)
        recorder.close()
        events = load_events(tmp_path, run="abcd1234")
        assert [e.name for e in events] == ["schedule", "compile"]
        assert events[1].duration == 0.5
        assert events[0].seq == 1 and events[1].seq == 2

    def test_run_token_filters_shards(self, tmp_path):
        for run, key in (("run1aaaa", "a"), ("run2bbbb", "b")):
            recorder = TraceRecorder(tmp_path, run=run)
            recorder.emit("cell", key=key)
            recorder.close()
        assert len(load_events(tmp_path)) == 2
        only = load_events(tmp_path, run="run1aaaa")
        assert [e.key for e in only] == ["a"]
        assert len(trace_shard_paths(tmp_path)) == 2
        assert len(trace_shard_paths(tmp_path, run="run2bbbb")) == 1

    def test_torn_lines_are_skipped(self, tmp_path):
        recorder = TraceRecorder(tmp_path, run="cafe0000")
        recorder.emit("cell", key="good")
        recorder.close()
        shard = trace_shard_paths(tmp_path)[0]
        with shard.open("a") as handle:
            handle.write('{"name": "cell", "key": "torn", "ts"')
        events = load_events(tmp_path)
        assert [e.key for e in events] == ["good"]

    def test_emit_never_raises_on_io_failure(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        # mkdir/open under a file path fails with OSError; telemetry
        # must swallow it rather than kill the cell being traced.
        TraceRecorder(blocker / "sub").emit("cell", key="k")

    def test_close_releases_every_writer_shard(self, tmp_path):
        recorder = TraceRecorder(tmp_path, run="c105e000")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            threads = [threading.Thread(target=recorder.emit,
                                        args=("cell",),
                                        kwargs={"key": f"t{i}"})
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            recorder.emit("cell", key="main")
            recorder.close()
            del recorder, threads
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []
        assert len(trace_shard_paths(tmp_path)) == 4
        assert sorted(e.key for e in load_events(tmp_path)) == \
            ["main", "t0", "t1", "t2"]

    def test_emit_after_close_opens_a_fresh_shard(self, tmp_path):
        recorder = TraceRecorder(tmp_path, run="c105e001")
        recorder.emit("cell", key="a")
        recorder.close()
        recorder.emit("cell", key="b")
        recorder.close()
        assert len(trace_shard_paths(tmp_path)) == 2
        assert sorted(e.key for e in load_events(tmp_path)) == ["a", "b"]

    def test_run_tokens_are_fresh(self):
        assert new_run_token() != new_run_token()
        assert len(new_run_token()) == 8


class TestDeterministicMerge:
    def test_merge_is_shuffle_invariant(self):
        events = lifecycle("a::L2") + lifecycle("a::L3") + [
            TraceEvent("retry", key="a::L2", phase="compile",
                       status="error", attempt=1, ts=9.0),
            TraceEvent("pool-rebuild", attempt=1, ts=8.0),
        ]
        reference = merged_trace_text(events)
        rng = random.Random(0)
        for _ in range(25):
            shuffled = list(events)
            rng.shuffle(shuffled)
            assert merged_trace_text(shuffled) == reference

    def test_merge_ignores_timestamps_and_writers(self):
        base = lifecycle("k")
        jittered = [TraceEvent(e.name, key=e.key, phase=e.phase,
                               status=e.status, attempt=e.attempt,
                               ts=e.ts + 100.0, duration=e.duration * 3,
                               writer="other", seq=e.seq + 50)
                    for e in base]
        assert merged_trace_text(base) == merged_trace_text(jittered)

    def test_lifecycle_rank_orders_within_a_cell(self):
        ordered = merge_events(lifecycle("k"))
        assert [e.name for e in ordered] == \
            ["schedule", "dispatch", "compile", "run", "cell"]

    def test_unknown_names_sort_after_lifecycle(self):
        events = [TraceEvent("zz-custom", key="k", attempt=1, ts=0.0),
                  TraceEvent("cell", key="k", attempt=1, ts=1.0)]
        ordered = merge_events(events)
        assert [e.name for e in ordered] == ["cell", "zz-custom"]

    def test_text_is_json_lines_of_canonical_fields(self):
        text = merged_trace_text(lifecycle("k"))
        lines = text.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert set(json.loads(line)) == \
                {"key", "name", "phase", "status", "attempt"}


class TestQueries:
    def test_events_for_key_in_causal_order(self):
        events = lifecycle("a") + lifecycle("b")
        mine = events_for_key(events, "a")
        assert all(e.key == "a" for e in mine)
        assert [e.ts for e in mine] == sorted(e.ts for e in mine)

    def test_summarize_counts_names(self):
        counts = summarize_events(lifecycle("a") + lifecycle("b"))
        assert counts == {"cell": 2, "compile": 2, "dispatch": 2,
                          "run": 2, "schedule": 2}


class TestEpochNormalization:
    """Monotonic epochs are per-process: each shard's header records
    its writer's wall-minus-monotonic offset, and the loader shifts
    stamps onto one timeline. These shards are synthetic — real worker
    processes differ by whatever their boots/namespaces dictate."""

    RUN = "feed0000"

    def write_shard(self, tmp_path, n, events, epoch=None, pid=1):
        lines = []
        if epoch is not None:
            lines.append(json.dumps({"v": 1, "header": True,
                                     "epoch": epoch}))
        lines += [json.dumps({"v": 1, "seq": i + 1, **e})
                  for i, e in enumerate(events)]
        path = (tmp_path
                / f"trace-{self.RUN}-{pid}-aaaa-{n:03d}.jsonl")
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_skewed_shards_merge_onto_one_timeline(self, tmp_path):
        # Parent process: monotonic epoch 1000s behind the wall clock.
        # Its dispatch (wall 1005) and terminal cell event (wall 1009).
        self.write_shard(tmp_path, 0, [
            {"name": "dispatch", "key": "k", "ts": 5.0},
            {"name": "cell", "key": "k", "status": "ok", "ts": 9.0},
        ], epoch=1000.0, pid=1)
        # Worker process: epoch 500s behind the wall clock. Raw stamps
        # (506, 507) dwarf the parent's (5, 9) — sorting raw stamps
        # would put the terminal "cell" *before* the work it reports.
        self.write_shard(tmp_path, 0, [
            {"name": "compile", "key": "k", "phase": "compile",
             "status": "ok", "ts": 506.0},
            {"name": "run", "key": "k", "phase": "run",
             "status": "ok", "ts": 507.0},
        ], epoch=500.0, pid=2)
        events = load_events(tmp_path, run=self.RUN)
        assert [e.name for e in events] == \
            ["dispatch", "compile", "run", "cell"]
        # Shifted by offset - min(offsets): the lower-offset shard is
        # the anchor and stays put.
        assert [e.ts for e in events] == [505.0, 506.0, 507.0, 509.0]
        assert [e.name for e in events_for_key(events, "k")] == \
            ["dispatch", "compile", "run", "cell"]

    def test_single_process_trace_is_returned_unshifted(self, tmp_path):
        # All shards share one offset: stamps come back bit-for-bit.
        for n, ts in ((0, 3.25), (1, 1.75)):
            self.write_shard(tmp_path, n, [
                {"name": "cell", "key": f"k{n}", "ts": ts},
            ], epoch=1234.5)
        events = load_events(tmp_path, run=self.RUN)
        assert [e.ts for e in events] == [1.75, 3.25]

    def test_headerless_shard_is_tolerated_unshifted(self, tmp_path):
        # A pre-header (or torn-at-birth) shard has no epoch line; its
        # stamps pass through, and the sole headered shard anchors the
        # timeline (offset == base), so nothing shifts anywhere.
        self.write_shard(tmp_path, 0, [
            {"name": "dispatch", "key": "k", "ts": 5.0},
        ], epoch=1000.0, pid=1)
        self.write_shard(tmp_path, 0, [
            {"name": "legacy", "key": "k", "ts": 2.0},
        ], epoch=None, pid=2)
        events = load_events(tmp_path, run=self.RUN)
        assert {(e.name, e.ts) for e in events} == \
            {("dispatch", 5.0), ("legacy", 2.0)}

    def test_header_line_is_not_an_event(self, tmp_path):
        recorder = TraceRecorder(tmp_path, run=self.RUN)
        recorder.emit("cell", key="k")
        recorder.close()
        shard = trace_shard_paths(tmp_path, run=self.RUN)[0]
        first = json.loads(shard.read_text().splitlines()[0])
        assert first["header"] is True
        assert isinstance(first["epoch"], float)
        events = load_events(tmp_path, run=self.RUN)
        assert [e.name for e in events] == ["cell"]


class TestChromeExport:
    def test_spans_and_instants(self):
        payload = to_chrome_events(merge_events(lifecycle("k")),
                                   process_name="test")
        records = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        metas = [r for r in records if r["ph"] == "M"]
        assert metas[0]["args"]["name"] == "test"
        spans = [r for r in records if r["ph"] == "X"]
        instants = [r for r in records if r["ph"] == "i"]
        assert len(spans) == 3  # compile, run, cell carry durations
        assert len(instants) == 2  # schedule, dispatch
        for span in spans:
            assert span["dur"] > 0
            assert span["ts"] >= 0

    def test_span_start_shifted_back_by_duration(self):
        events = [TraceEvent("compile", key="k", phase="compile",
                             status="ok", attempt=1, ts=10.0,
                             duration=2.0),
                  TraceEvent("dispatch", key="k", ts=8.0)]
        records = to_chrome_events(events)["traceEvents"]
        span = next(r for r in records if r["ph"] == "X")
        # origin is ts=8.0; the compile span ended at 10.0 after 2.0s,
        # so it must start at the origin.
        assert span["ts"] == 0.0
        assert span["dur"] == 2.0 * 1e6

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(lifecycle("k"),
                                  tmp_path / "out" / "trace.json")
        assert path.exists()
        assert json.loads(path.read_text())["traceEvents"]
