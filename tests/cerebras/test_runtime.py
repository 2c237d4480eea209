"""WSE-2 runtime: pipeline DES, replication, streaming."""

import pytest

from repro.cerebras.backend import CerebrasBackend
from repro.cerebras.runtime import WEIGHT_STREAMING_EFFICIENCY
from repro.models.config import TrainConfig, gpt2_model
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord


@pytest.fixture(scope="module")
def backend():
    return CerebrasBackend()


@pytest.fixture(scope="module")
def small():
    return gpt2_model("small")


@pytest.fixture(scope="module")
def train():
    return TrainConfig(batch_size=64, seq_len=1024)


class TestPipelineExecution:
    def test_all_samples_complete(self, backend, small, train):
        run = backend.run(backend.compile(small, train))
        items = run.trace.items_by_task()
        # Every kernel processed every sample exactly once.
        for count in items.values():
            assert count == train.batch_size

    def test_step_time_bounded_by_bottleneck(self, backend, small, train):
        compiled = backend.compile(small, train)
        run = backend.run(compiled)
        t_max = max(compiled.meta["service_times"].values())
        fill = sum(compiled.meta["service_times"].values())
        lower = (train.batch_size - 1) * t_max
        upper = fill + train.batch_size * t_max + 1e-6
        assert lower <= run.step_time <= upper

    def test_throughput_consistency(self, backend, small, train):
        run = backend.run(backend.compile(small, train))
        assert run.tokens_per_second == pytest.approx(
            run.samples_per_second * train.seq_len)
        assert run.samples_per_second == pytest.approx(
            train.batch_size / run.step_time)

    def test_achieved_flops_positive_and_bounded(self, backend, small,
                                                 train):
        run = backend.run(backend.compile(small, train))
        assert 0 < run.achieved_flops < backend.system.chip.peak_flops

    def test_batch_saturation_shape(self, backend, small):
        """Fig. 12 WSE: strong gains below ~200, weak beyond."""
        def rate(batch):
            t = TrainConfig(batch_size=batch, seq_len=1024)
            return backend.run(backend.compile(small, t)).tokens_per_second

        low_gain = rate(64) / rate(32)
        high_gain = rate(512) / rate(256)
        assert low_gain > 1.15
        assert high_gain < 1.10


class TestReplication:
    def test_dp_improves_wafer_filling_model(self, backend):
        """Fig. 11a: replicas speed up models that underuse kernels.

        Needs a batch large enough that splitting it across replicas
        does not dominate the per-replica pipeline fill.
        """
        small = gpt2_model("small")
        big_batch = TrainConfig(batch_size=256, seq_len=1024)
        r1 = backend.run(backend.compile(small, big_batch, n_replicas=1))
        r2 = backend.run(backend.compile(small, big_batch, n_replicas=2))
        assert r2.tokens_per_second > 1.15 * r1.tokens_per_second

    def test_sync_time_grows_with_replicas(self, backend, train):
        mini = gpt2_model("mini")
        runs = {r: backend.run(backend.compile(mini, train, n_replicas=r))
                for r in (2, 4, 8)}
        syncs = [runs[r].meta["sync_time"] for r in (2, 4, 8)]
        assert syncs[0] < syncs[1] < syncs[2]

    def test_two_replicas_near_zero_comm(self, backend, train):
        # Paper: adjacency makes R=2 communication essentially free.
        run = backend.run(backend.compile(gpt2_model("mini"), train,
                                          n_replicas=2))
        assert run.meta["sync_time"] < 0.02 * run.step_time


class TestWeightStreaming:
    def test_throughput_penalty_about_20pct(self, backend, small, train):
        pipe = backend.run(backend.compile(small, train))
        stream = backend.run(backend.compile(small, train,
                                             mode="weight_streaming"))
        ratio = stream.tokens_per_second / pipe.tokens_per_second
        assert ratio == pytest.approx(WEIGHT_STREAMING_EFFICIENCY, abs=0.05)

    def test_mode_recorded(self, backend, small, train):
        run = backend.run(backend.compile(small, train,
                                          mode="weight_streaming"))
        assert run.meta["mode"] == "weight_streaming"


class TestMeasuredTasks:
    def test_measured_throughput_close_to_estimate(self, backend, small,
                                                   train):
        compiled = backend.compile(small, train)
        run = backend.run(compiled)
        estimates = {t.name: t.throughput
                     for t in compiled.phases[0].tasks
                     if t.role == "compute"}
        for task in run.phases[0].tasks:
            if task.role != "compute":
                continue
            # Measured rate is within 2x of the compile-time estimate
            # (fill/drain effects shift it, direction depends on depth).
            assert task.throughput == pytest.approx(
                estimates[task.name], rel=1.0)

    def test_transmission_tasks_have_no_throughput(self, backend, small,
                                                   train):
        run = backend.run(backend.compile(small, train))
        for task in run.phases[0].tasks:
            if task.role == "transmission":
                assert task.throughput == 0.0


class TestClosedFormRun:
    def test_run_dispatches_no_events_and_builds_no_records(
            self, backend, small, train, monkeypatch):
        """The WSE pipeline is computed, not simulated: a run pushes
        nothing through the event loop and materializes no records,
        yet its trace still holds one row per sample per kernel."""
        counts = {"events": 0, "records": 0}
        simulator_run = Simulator.run
        simulator_step = Simulator.step
        record_init = TraceRecord.__init__

        def counting_run(self, *args, **kwargs):
            before = self.events_processed
            try:
                return simulator_run(self, *args, **kwargs)
            finally:
                counts["events"] += self.events_processed - before

        def counting_step(self):
            stepped = simulator_step(self)
            counts["events"] += stepped
            return stepped

        def counting_init(self, *args, **kwargs):
            counts["records"] += 1
            record_init(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        monkeypatch.setattr(Simulator, "step", counting_step)
        monkeypatch.setattr(TraceRecord, "__init__", counting_init)

        compiled = backend.compile(small, train)
        run = backend.run(compiled)

        assert counts == {"events": 0, "records": 0}
        assert len(run.trace) == (train.batch_size
                                  * len(compiled.meta["kernel_order"]))
        # The counters do count.
        next(iter(run.trace))
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert counts == {"events": 1, "records": 1}
