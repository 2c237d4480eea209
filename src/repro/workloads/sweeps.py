"""Generic sweep execution: run a grid of workloads against a backend.

The benchmark harness uses :func:`run_grid` to regenerate the paper's
tables: each cell compiles + runs one configuration and failures are
recorded rather than raised (a "Fail" cell is a result — Table I).

Any :class:`~repro.common.errors.ReproError` escaping the backend
becomes a failed cell with a structured
:class:`~repro.common.errors.ErrorRecord` (compile-phase and run-phase
failures are distinguished). Execution behaviour — retry, per-cell
deadlines, circuit breaking, journaling/resume, and worker-thread
fan-out — is described by one
:class:`~repro.resilience.ExecutionPolicy`::

    cells = run_grid(backend, specs,
                     policy=ExecutionPolicy(retry=RetryPolicy(2),
                                            journal="sweep.jsonl",
                                            resume=True, max_workers=4))

The pre-policy keywords (``executor=``, ``journal=``, ``resume=``,
``retry_failed=``) were removed in 0.3 — passing one raises
``TypeError`` with a migration hint. Cells always come back in spec
order, whatever order they executed in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.campaign.engine import CellResult, CellTask, run_cell_tasks
from repro.common.errors import ErrorRecord
from repro.core.backend import AcceleratorBackend, CompileReport, RunReport
from repro.models.config import ModelConfig, TrainConfig
from repro.resilience.executor import ResilientExecutor
from repro.resilience.journal import JournalEntry, ShardedJournal
from repro.resilience.policy import (
    DISPATCH_PROCESS,
    ExecutionPolicy,
    reject_removed_kwargs,
)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep cell: a labelled (model, train, options) triple."""

    label: str
    model: ModelConfig
    train: TrainConfig
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepCell:
    """The outcome of one cell.

    ``error`` keeps the human-readable message; ``failure`` carries the
    structured record (exception type, phase, and attributes such as
    ``required_bytes``). ``resumed`` cells were restored from a journal
    without touching the backend — their reports are ``None`` but
    ``summary`` holds the journaled run metrics.
    """

    spec: SweepSpec
    compiled: CompileReport | None
    run: RunReport | None
    error: str | None = None
    failure: ErrorRecord | None = None
    attempts: int = 1
    resumed: bool = False
    summary: dict[str, Any] | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def phase(self) -> str | None:
        """Which harness phase failed (``None`` for successful cells)."""
        return self.failure.phase if self.failure is not None else None


def _cell_from_outcome(spec: SweepSpec, outcome: Any) -> SweepCell:
    if outcome.ok:
        return SweepCell(spec=spec, compiled=outcome.compiled,
                         run=outcome.run, attempts=outcome.attempts)
    return SweepCell(spec=spec, compiled=None, run=None,
                     error=str(outcome.error), failure=outcome.error,
                     attempts=max(1, outcome.attempts))


def _cell_from_journal(spec: SweepSpec, entry: JournalEntry) -> SweepCell:
    return SweepCell(spec=spec, compiled=None, run=None,
                     error=str(entry.error) if entry.error else None,
                     failure=entry.error, attempts=entry.attempts,
                     resumed=True, summary=entry.summary)


def cell_from_result(spec: SweepSpec, result: CellResult) -> SweepCell:
    """Convert an engine :class:`CellResult` back into a sweep cell."""
    if result.resumed:
        assert result.entry is not None
        return _cell_from_journal(spec, result.entry)
    return _cell_from_outcome(spec, result.outcome)


def cell_tasks(backend: AcceleratorBackend, specs: list[SweepSpec],
               executor: ResilientExecutor, *, measure: bool = True,
               key_prefix: str = "",
               fingerprints: bool = False) -> list[CellTask]:
    """Engine tasks for a spec grid on one backend.

    Non-thread-safe backends get a shared serializer lock so a pooled
    run never overlaps their calls. Every task is stamped with its
    analytic cost prediction and workload-family key so a cost-aware
    :class:`~repro.campaign.scheduler.Scheduler` can order dispatch;
    with ``fingerprints`` each task also carries its content-addressed
    cache key (see :func:`repro.cache.cell_fingerprint`).
    """
    from repro.cache import cell_fingerprint
    from repro.campaign.scheduler import estimate_cell_seconds

    serializer = None if backend.thread_safe else threading.Lock()
    run_fn = ((lambda compiled: backend.run(compiled)) if measure
              else None)
    return [
        CellTask(
            key=f"{key_prefix}{spec.label}",
            compile_fn=lambda spec=spec: backend.compile(
                spec.model, spec.train, **spec.options),
            run_fn=run_fn,
            is_transient=backend.is_transient,
            executor=executor,
            serializer=serializer,
            cost_hint=estimate_cell_seconds(backend, spec.model,
                                            spec.train, measure=measure),
            family=f"{backend.name}::{spec.model.family}",
            fingerprint=(cell_fingerprint(backend, spec.model,
                                          spec.train, spec.options,
                                          measure=measure)
                         if fingerprints else None),
        )
        for spec in specs
    ]


def run_grid(backend: AcceleratorBackend,
             specs: list[SweepSpec],
             measure: bool = True,
             on_cell: Callable[[SweepCell], None] | None = None,
             *,
             policy: ExecutionPolicy | None = None,
             **removed: Any) -> list[SweepCell]:
    """Compile (and optionally run) every spec; failures become cells.

    Args:
        backend: the accelerator to drive.
        specs: the grid.
        measure: when ``False`` only compile (compile-time metrics are
            enough for most Tier-1 tables, matching the paper's
            "most metrics are from compile time" note).
        on_cell: optional progress callback (also fired for resumed
            cells). With ``max_workers=1`` it fires in spec order; under
            a pool, in completion order.
        policy: the :class:`ExecutionPolicy` governing retry, deadlines,
            journaling, resume, ``max_workers`` fan-out, the dispatch
            ``schedule``, tracing, and the run ledger. The pre-policy
            ``executor``/``journal``/``resume``/``retry_failed``
            keywords were removed in 0.3 and raise :class:`TypeError`.
    """
    reject_removed_kwargs("run_grid", removed)
    if policy is None:
        policy = ExecutionPolicy()

    relay = None
    if on_cell is not None:
        callback = on_cell

        def relay(result: CellResult) -> None:
            callback(cell_from_result(specs[result.index], result))

    if policy.dispatch == DISPATCH_PROCESS:
        return _run_grid_process(backend, specs, policy, measure=measure,
                                 relay=relay)

    tracer = policy.make_tracer()
    cache = policy.normalized_cache()
    tasks = cell_tasks(backend, specs,
                       policy.make_executor(backend.name, tracer=tracer),
                       measure=measure, fingerprints=cache is not None)
    results = run_cell_tasks(
        tasks,
        max_workers=policy.max_workers,
        journal=policy.normalized_journal(),
        resume=policy.resume,
        retry_failed=policy.retry_failed,
        on_result=relay,
        scheduler=policy.make_scheduler(tracer),
        tracer=tracer,
        cache=cache,
    )
    if cache is not None:
        cache.prune()
    return [cell_from_result(spec, result)
            for spec, result in zip(specs, results)]


def _run_grid_process(backend: AcceleratorBackend,
                      specs: list[SweepSpec],
                      policy: ExecutionPolicy, *, measure: bool,
                      relay: Callable[[CellResult], None] | None,
                      ) -> list[SweepCell]:
    """The grid's process-dispatch path (see
    :mod:`repro.campaign.process`).

    Journal keys stay ``spec.label``, exactly as on the thread path, so
    a process-dispatched run and a sequential one resume each other.
    """
    from repro.cache import cell_fingerprint
    from repro.campaign.process import (
        CellSpec,
        WorkerSpec,
        check_process_policy,
        run_cell_specs,
    )
    from repro.campaign.scheduler import estimate_cell_seconds

    store = policy.normalized_journal()
    check_process_policy(policy, store, api="run_grid")
    if store is not None:
        assert isinstance(store, ShardedJournal)  # check_process_policy
    cache = policy.normalized_cache()
    cells = [
        CellSpec(
            key=spec.label,
            lane=backend.name,
            model=spec.model,
            train=spec.train,
            options=dict(spec.options),
            measure=measure,
            cost_hint=estimate_cell_seconds(backend, spec.model,
                                            spec.train, measure=measure),
            family=f"{backend.name}::{spec.model.family}",
            fingerprint=(cell_fingerprint(backend, spec.model,
                                          spec.train, spec.options,
                                          measure=measure)
                         if cache is not None else None),
        )
        for spec in specs
    ]
    tracer = policy.make_tracer()
    trace_dir = policy.trace_directory()
    worker = WorkerSpec(
        backends={backend.name: backend},
        retry=policy.retry,
        deadline=policy.deadline,
        breakers=bool(policy.breaker),
        breaker_threshold=policy.breaker_threshold,
        breaker_reset=policy.breaker_reset,
        journal_dir=str(store.directory) if store is not None else None,
        journal_prefix=store.prefix if store is not None else "shard",
        trace_dir=str(trace_dir) if trace_dir is not None else None,
        trace_run=tracer.run if tracer is not None else "",
        cache_dir=str(cache.directory) if cache is not None else None,
    )
    results = run_cell_specs(
        cells,
        worker=worker,
        max_workers=policy.max_workers,
        journal=store,
        resume=policy.resume,
        retry_failed=policy.retry_failed,
        on_result=relay,
        scheduler=policy.make_scheduler(tracer),
        supervisor=policy.make_supervisor(
            tracer, families={cell.family for cell in cells}),
        tracer=tracer,
    )
    if cache is not None:
        cache.prune()
    return [cell_from_result(spec, result)
            for spec, result in zip(specs, results)]
