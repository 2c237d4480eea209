"""Validate the WSE pipeline against tandem-queue theory and a DES.

The WSE runtime's pipeline is a tandem queue with bounded WIP; queueing
theory gives closed forms for its makespan in special cases, and the
runtime computes it by the queue's max-plus recurrence. Both must agree
with an event-driven simulation of the same queue on the simulation
engine — this is the cross-check that the recurrence, not just the
calibration, is sound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cerebras.runtime import WSERuntime
from repro.common.errors import SimulationError
from repro.sim.engine import Resource, Simulator
from repro.sim.trace import Trace


def simulate(service_times, depth, batch):
    runtime = WSERuntime()
    order = [f"s{i}" for i in range(len(service_times))]
    services = dict(zip(order, service_times))
    trace = Trace()
    makespan = runtime._simulate_pipeline(order, services, depth, batch,
                                          trace)
    return makespan, trace


def simulate_events(order, service, depth, batch, trace):
    """The pipeline as a discrete-event simulation: the oracle.

    Every kernel is a capacity-1 :class:`Resource` with FIFO waiters;
    a sample is admitted whenever fewer than ``depth`` are in flight.
    Returns the makespan and records one trace row per service.
    """
    if not order:
        raise SimulationError("empty kernel pipeline")
    sim = Simulator()
    stages = [Resource(sim, capacity=1, name=name) for name in order]
    in_flight = {"count": 0, "next_sample": 0, "done": 0}

    def admit():
        while (in_flight["count"] < depth
               and in_flight["next_sample"] < batch):
            sample = in_flight["next_sample"]
            in_flight["next_sample"] += 1
            in_flight["count"] += 1
            enter_stage(sample, 0)

    def enter_stage(sample, idx):
        stages[idx].request(start_service, sample, idx)

    def start_service(sample, idx):
        sim.schedule(service[order[idx]], finish_service, sample, idx,
                     sim.now)

    def finish_service(sample, idx, start):
        trace.record(start, sim.now, order[idx], category="compute",
                     item=sample)
        stages[idx].release()
        if idx + 1 < len(stages):
            enter_stage(sample, idx + 1)
        else:
            in_flight["count"] -= 1
            in_flight["done"] += 1
            admit()

    sim.schedule(0.0, admit)
    sim.run()
    assert in_flight["done"] == batch
    return sim.now


def assert_matches_oracle(order, service, depth, batch):
    """Makespan and every ``(task, item, start, end)`` agree exactly."""
    fast, slow = Trace(), Trace()
    makespan = WSERuntime()._simulate_pipeline(order, service, depth,
                                               batch, fast)
    expected = simulate_events(order, service, depth, batch, slow)
    assert makespan.hex() == expected.hex()

    def rows(trace):
        return sorted((r.task, r.item, r.start.hex(), r.end.hex(),
                       r.category) for r in trace)

    assert rows(fast) == rows(slow)
    assert len(fast) == len(slow) == batch * len(order)


class TestMatchesEventSimulation:
    SERVICES = {"a": 0.5, "b": 2.0, "c": 1.0}

    @pytest.mark.parametrize("depth, batch", [
        (1, 5), (3, 5), (5, 5), (9, 5), (4, 1), (1, 1), (2, 0)])
    def test_depth_and_batch_edges(self, depth, batch):
        assert_matches_oracle(["a", "b", "c"], self.SERVICES, depth, batch)

    def test_zero_service_times(self):
        service = {"a": 0.0, "b": 0.75, "c": 0.0}
        assert_matches_oracle(["a", "b", "c"], service, 2, 6)
        assert_matches_oracle(["a", "c"], service, 3, 4)

    def test_duplicate_kernel_names(self):
        assert_matches_oracle(["a", "b", "a", "c", "a"], self.SERVICES,
                              3, 7)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            WSERuntime()._simulate_pipeline([], {}, 2, 4, Trace())


_service_time = st.one_of(st.just(0.0),
                          st.floats(min_value=1e-9, max_value=5.0))


@settings(max_examples=150, deadline=None)
@given(kernels=st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                                  _service_time),
                        min_size=1, max_size=7),
       depth=st.integers(min_value=1, max_value=14),
       batch=st.integers(min_value=0, max_value=14))
def test_recurrence_equals_event_simulation(kernels, depth, batch):
    # Kernel names may repeat; a repeated name keeps its first time.
    order = [f"k{name}" for name, _time in kernels]
    service = {}
    for name, time in kernels:
        service.setdefault(f"k{name}", time)
    assert_matches_oracle(order, service, depth, batch)


class TestClosedForms:
    def test_unbounded_wip_formula(self):
        """With depth >= batch, makespan = sum(t) + (B-1) * t_max."""
        services = [0.5, 2.0, 1.0]
        batch = 7
        makespan, _trace = simulate(services, depth=batch, batch=batch)
        assert makespan == pytest.approx(sum(services) + (batch - 1) * 2.0)

    def test_wip_one_serializes(self):
        """Depth 1: samples pass one at a time; makespan = B * sum(t)."""
        services = [0.5, 2.0, 1.0]
        batch = 5
        makespan, _trace = simulate(services, depth=1, batch=batch)
        assert makespan == pytest.approx(batch * sum(services))

    def test_single_stage(self):
        makespan, _trace = simulate([1.5], depth=4, batch=6)
        assert makespan == pytest.approx(9.0)

    def test_uniform_stages(self):
        """n equal stages: makespan = (n + B - 1) * t."""
        makespan, _trace = simulate([1.0] * 5, depth=100, batch=10)
        assert makespan == pytest.approx((5 + 10 - 1) * 1.0)


@settings(max_examples=30, deadline=None)
@given(services=st.lists(st.floats(min_value=0.01, max_value=3.0),
                         min_size=1, max_size=8),
       depth=st.integers(min_value=1, max_value=12),
       batch=st.integers(min_value=1, max_value=12))
def test_bounds_and_conservation(services, depth, batch):
    makespan, trace = simulate(services, depth, batch)
    total = sum(services)
    t_max = max(services)
    # Lower bounds: critical path of one sample, bottleneck serialization,
    # and WIP-limited rate.
    assert makespan >= total - 1e-9
    assert makespan >= batch * t_max - 1e-9
    assert makespan >= batch * total / max(depth, 1) / 2 - 1e-9
    # Upper bound: full serialization.
    assert makespan <= batch * total + 1e-9
    # Conservation: every stage served every sample exactly once.
    counts = trace.items_by_task()
    assert all(count == batch for count in counts.values())
    assert len(counts) == len(services)


@settings(max_examples=20, deadline=None)
@given(services=st.lists(st.floats(min_value=0.05, max_value=2.0),
                         min_size=2, max_size=6),
       batch=st.integers(min_value=4, max_value=16))
def test_deeper_wip_never_slower(services, batch):
    shallow, _t1 = simulate(services, depth=1, batch=batch)
    deep, _t2 = simulate(services, depth=batch, batch=batch)
    assert deep <= shallow + 1e-9
