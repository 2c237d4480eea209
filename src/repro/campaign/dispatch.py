"""The one cell builder behind ``run_grid`` and ``Campaign``.

Both entry points reduce to *lanes* — one backend and the specs it
sweeps — executed under one :class:`~repro.resilience.ExecutionPolicy`.
:func:`_run_lanes` walks the (lane, spec) pairs once, prices and
fingerprints every cell, and hands the list to the drain of the
policy's dispatch mode: :class:`~repro.campaign.engine.CellTask`
closures for :func:`~repro.campaign.engine.run_cell_tasks` (threads),
or :class:`~repro.campaign.process.CellSpec` data plus one
:class:`~repro.campaign.process.WorkerSpec` for
:func:`~repro.campaign.process.run_cell_specs` (processes).

The two callers differ in exactly two ways, both parameters:

* ``lane_keys`` — journal keys are ``<lane>::<label>`` (campaigns,
  whose lanes share one journal) instead of the bare spec label
  (:func:`~repro.workloads.sweeps.run_grid`);
* ``lane_breakers`` — every lane gets a circuit breaker (campaigns)
  instead of only when the policy asks for one (``run_grid``, where
  breaking is off by default).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cache import cell_fingerprint
from repro.campaign.engine import CellResult, CellTask, run_cell_tasks
from repro.campaign.process import (
    CellSpec,
    WorkerSpec,
    check_process_policy,
    run_cell_specs,
)
from repro.campaign.scheduler import Scheduler, estimate_cell_seconds
from repro.campaign.supervisor import SupervisionStats
from repro.core.backend import AcceleratorBackend
from repro.observe import TraceRecorder
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import Clock
from repro.resilience.executor import ResilientExecutor
from repro.resilience.policy import DISPATCH_PROCESS, ExecutionPolicy

if TYPE_CHECKING:  # sweeps imports this module
    from repro.workloads.sweeps import SweepSpec


@dataclass
class CampaignLane:
    """One backend and the specs it should sweep.

    ``label`` defaults to the backend's display name (deduplicated by
    the campaign when two lanes share it); ``clock`` optionally gives
    the lane its own time source — with per-lane fake clocks a test can
    read each lane's simulated busy time independently, which is how
    the parallel-speedup acceptance test stays deterministic.
    """

    backend: AcceleratorBackend
    specs: "Sequence[SweepSpec]"
    label: str | None = None
    clock: Clock | None = None


@dataclass
class LaneRun:
    """What one dispatch produced, in lane-then-spec order.

    ``breakers`` and ``executors`` are the parent-side per-lane
    instances (thread dispatch only: under process dispatch they live
    in the workers); ``supervision`` is the process drain's telemetry.
    The tracer is closed by the time the caller sees it — its
    ``directory`` and ``run`` still locate the shards.
    """

    results: list[CellResult]
    scheduler: Scheduler
    tracer: TraceRecorder | None
    breakers: dict[str, CircuitBreaker]
    executors: dict[str, ResilientExecutor]
    supervision: SupervisionStats | None = None


def _run_lanes(
    lanes: Sequence[CampaignLane], policy: ExecutionPolicy, *,
    measure: bool,
    on_result: "Callable[[CampaignLane, SweepSpec, CellResult], None]"
               " | None",
    lane_keys: bool,
    lane_breakers: bool,
    api: str,
) -> LaneRun:
    """Build every lane's cells once and dispatch them per ``policy``.

    ``on_result(lane, spec, result)`` fires once per cell as it
    resolves; ``api`` names the caller in configuration errors. Every
    lane needs its ``label`` set. The tracer this makes is closed
    whatever the drain does; the cache is pruned after a drain that
    returns.
    """
    process = policy.dispatch == DISPATCH_PROCESS
    journal = policy.normalized_journal()
    if process:
        check_process_policy(
            policy, journal, api=api,
            injected_clock=any(lane.clock is not None for lane in lanes))
    cache = policy.normalized_cache()
    tracer = policy.make_tracer()
    try:
        cells: list[CellTask | CellSpec] = []
        owners: list[tuple[CampaignLane, SweepSpec]] = []
        breakers: dict[str, CircuitBreaker] = {}
        executors: dict[str, ResilientExecutor] = {}
        for lane in lanes:
            label = lane.label
            assert label is not None
            backend = lane.backend
            if not process:
                clock = lane.clock or policy.clock
                breaker = policy.make_breaker(label, clock)
                if breaker is None and lane_breakers:
                    breaker = policy.new_breaker(label, clock)
                if breaker is not None:
                    breakers[label] = breaker
                executor = executors[label] = policy.make_executor(
                    label, breaker=breaker, clock=clock, tracer=tracer)
                serializer = (None if backend.thread_safe
                              else threading.Lock())
                run_fn = ((lambda compiled, b=backend: b.run(compiled))
                          if measure else None)
            for spec in lane.specs:
                key = f"{label}::{spec.label}" if lane_keys else spec.label
                cost = estimate_cell_seconds(backend, spec.model,
                                             spec.train, measure=measure)
                family = f"{label}::{spec.model.family}"
                fingerprint = (cell_fingerprint(backend, spec.model,
                                                spec.train, spec.options,
                                                measure=measure)
                               if cache is not None else None)
                if process:
                    cells.append(CellSpec(
                        key=key, lane=label, model=spec.model,
                        train=spec.train, options=dict(spec.options),
                        measure=measure, cost_hint=cost, family=family,
                        fingerprint=fingerprint))
                else:
                    cells.append(CellTask(
                        key=key,
                        compile_fn=lambda b=backend, s=spec: b.compile(
                            s.model, s.train, **s.options),
                        run_fn=run_fn,
                        is_transient=backend.is_transient,
                        executor=executor,
                        serializer=serializer,
                        cost_hint=cost, family=family,
                        fingerprint=fingerprint))
                owners.append((lane, spec))

        relay = None
        if on_result is not None:
            callback = on_result

            def relay(result: CellResult) -> None:
                lane, spec = owners[result.index]
                callback(lane, spec, result)

        scheduler = policy.make_scheduler(tracer)
        drain = dict(max_workers=policy.max_workers, journal=journal,
                     resume=policy.resume,
                     retry_failed=policy.retry_failed, on_result=relay,
                     scheduler=scheduler, tracer=tracer)
        if not process:
            run = LaneRun(run_cell_tasks(cells, cache=cache, **drain),
                          scheduler, tracer, breakers, executors)
        else:
            trace_dir = policy.trace_directory()
            worker = WorkerSpec(
                backends={lane.label: lane.backend for lane in lanes},
                retry=policy.retry,
                deadline=policy.deadline,
                breakers=lane_breakers or bool(policy.breaker),
                breaker_threshold=policy.breaker_threshold,
                breaker_reset=policy.breaker_reset,
                journal_dir=(str(journal.directory)
                             if journal is not None else None),
                journal_prefix=(journal.prefix if journal is not None
                                else "shard"),
                trace_dir=(str(trace_dir) if trace_dir is not None
                           else None),
                trace_run=tracer.run if tracer is not None else "",
                cache_dir=(str(cache.directory) if cache is not None
                           else None),
            )
            supervisor = policy.make_supervisor(
                tracer, families={cell.family for cell in cells})
            run = LaneRun(run_cell_specs(cells, worker=worker,
                                         supervisor=supervisor, **drain),
                          scheduler, tracer, {}, {}, supervisor.stats())
    finally:
        if tracer is not None:
            tracer.close()
    if cache is not None:
        # Eviction is parent-owned: workers only read and publish.
        cache.prune()
    return run
