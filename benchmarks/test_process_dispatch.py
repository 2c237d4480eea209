"""Process vs thread dispatch on a CPU-bound grid.

The tentpole claim, measured: on a grid of GIL-bound cells (pure-Python
burns via :class:`~repro.workloads.reference.CpuBoundBackend`), a
4-worker process pool finishes at least 1.5x faster than a 4-worker
thread pool, because threads serialize on the GIL while processes
genuinely overlap. Both runs must produce equal cell reports —
parallelism never changes results.

The speedup assertion needs real cores; it is skipped on machines with
fewer than four. The results-equality half runs everywhere.
"""

import os
import statistics
import time

import pytest

from repro.models.config import TrainConfig, gpt2_model
from repro.resilience import ExecutionPolicy
from repro.workloads.reference import CpuBoundBackend
from repro.workloads.sweeps import SweepSpec, run_grid

WORKERS = 4
MIN_SPEEDUP = 1.5
#: Heavy enough that the burn dominates pool startup by two orders of
#: magnitude on commodity cores (~0.5 s per cell).
SPINS_PER_LAYER = 150_000
LAYERS = (8, 8, 8, 8, 8, 8, 8, 8)
#: Alternating default/hot runs per setting in the supervision gate.
SUPERVISION_REPEATS = 5


def grid():
    return [SweepSpec(f"c{i}-L{n}",
                      gpt2_model("mini").with_layers(n),
                      TrainConfig(batch_size=4, seq_len=64))
            for i, n in enumerate(LAYERS)]


def timed_run(dispatch, spins=SPINS_PER_LAYER, **policy_kwargs):
    backend = CpuBoundBackend(spins_per_layer=spins)
    policy = ExecutionPolicy(max_workers=WORKERS, dispatch=dispatch,
                             **policy_kwargs)
    start = time.perf_counter()
    cells = run_grid(backend, grid(), policy=policy)
    return time.perf_counter() - start, cells


def test_dispatch_modes_agree_on_results():
    _, threaded = timed_run("thread", spins=100)
    _, processed = timed_run("process", spins=100)
    assert [c.spec.label for c in threaded] == \
        [c.spec.label for c in processed]
    for a, b in zip(threaded, processed):
        assert a.compiled == b.compiled
        assert a.run.meta["checksum"] == b.run.meta["checksum"]


def test_supervision_overhead_is_bounded():
    # Every process-dispatched run is supervised; its steady-state
    # cost is one heartbeat stamp per interval per worker plus a
    # parent-side patrol between drain polls. Cranking the stamping
    # rate 100x above the default (0.05 s vs 5 s) must not move
    # wall-clock by more than 50% on the same CPU-bound grid — the
    # machinery has to stay noise next to the work.
    # The two settings alternate SUPERVISION_REPEATS times and the
    # gate compares medians, so one run slowed by the host cannot
    # flip it.
    timed_run("process", spins=10)  # warm the fork machinery
    default_runs, hot_runs = [], []
    for _ in range(SUPERVISION_REPEATS):
        seconds, default_cells = timed_run("process", spins=30_000)
        default_runs.append(seconds)
        seconds, hot_cells = timed_run("process", spins=30_000,
                                       heartbeat_interval=0.05)
        hot_runs.append(seconds)
        for a, b in zip(default_cells, hot_cells):
            assert a.run.meta["checksum"] == b.run.meta["checksum"]
    default_s = statistics.median(default_runs)
    hot_s = statistics.median(hot_runs)
    print(f"\n  heartbeat 5.00 s: {default_s:6.2f} s (median of "
          f"{SUPERVISION_REPEATS})")
    print(f"  heartbeat 0.05 s: {hot_s:6.2f} s"
          f"  ({hot_s / default_s:.2f}x)")
    assert hot_s <= default_s * 1.5


@pytest.mark.skipif((os.cpu_count() or 1) < WORKERS,
                    reason=f"speedup needs >= {WORKERS} cores")
def test_process_pool_beats_threads_on_cpu_bound_grid():
    # warm up the fork machinery so pool startup is out of the measure
    timed_run("process", spins=10)
    thread_s, _ = timed_run("thread")
    process_s, _ = timed_run("process")
    speedup = thread_s / process_s
    print(f"\n  thread  {WORKERS} workers: {thread_s:7.2f} s")
    print(f"  process {WORKERS} workers: {process_s:7.2f} s")
    print(f"  speedup: {speedup:.2f}x (floor {MIN_SPEEDUP}x)")
    assert speedup >= MIN_SPEEDUP
