"""The pooled cell dispatcher behind every sweep and campaign.

A sweep is a list of independent cells; this module executes such a
list — sequentially or across a thread pool — with journaling, resume,
and deterministic result ordering. The higher layers
(:func:`~repro.workloads.sweeps.run_grid`, the Tier-2 analyzers, and
:class:`~repro.campaign.Campaign`) all reduce their work to
:class:`CellTask` lists and call :func:`run_cell_tasks`, so the
retry/journal/resume semantics cannot drift between entry points.

Guarantees:

* **Deterministic ordering** — results come back in task-list order,
  whatever order cells completed in.
* **Sequential fidelity** — with ``max_workers=1`` cells run inline in
  order, exactly like the pre-campaign harness (including progress
  callback ordering on a resumed run).
* **Crash tolerance** — each finished cell is journaled (fsynced)
  before its result is surfaced; a non-:class:`ReproError` escaping a
  cell (a harness bug, or an injected "kill") cancels undispatched
  cells, drains the running ones, and re-raises — journaled outcomes
  survive for the resume.
* **Backend serialization** — tasks carrying a ``serializer`` lock
  (backends audited ``thread_safe = False``) never overlap their
  backend calls, while their retries/backoffs still interleave freely.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.resilience.executor import CellOutcome, ResilientExecutor
from repro.resilience.journal import JournalEntry, ShardedJournal, SweepJournal

if TYPE_CHECKING:  # the scheduler module imports nothing from here
    from repro.cache import CompileCache
    from repro.campaign.scheduler import Scheduler
    from repro.observe import TraceRecorder


@dataclass(frozen=True)
class CellTask:
    """One independent unit of sweep work.

    Attributes:
        key: the cell's journal key (unique within the task list).
        compile_fn: zero-arg callable producing the compile artifact.
        run_fn: optional callable taking the compile artifact.
        is_transient: the owning backend's fault taxonomy.
        executor: the retry/deadline/breaker engine for this cell
            (lanes of a campaign share one executor per backend).
        summary_extra: optional hook computing extra journal-summary
            fields from a successful outcome (e.g. allocation ratios)
            so a resume can restore them without re-executing.
        serializer: optional lock serializing the backend calls of a
            non-thread-safe backend.
        cost_hint: analytic prediction of the cell's harness seconds
            (see :func:`~repro.campaign.scheduler.estimate_cell_seconds`);
            ``None`` means unpriced.
        family: workload-family key cost observations generalize over
            (the campaign stamps ``"<lane>::<model family>"``).
        fingerprint: the cell's content-addressed cache key (see
            :func:`repro.cache.cell_fingerprint`); ``None`` means the
            cell bypasses any configured compile cache.
    """

    key: str
    compile_fn: Callable[[], Any]
    run_fn: Callable[[Any], Any] | None = None
    is_transient: Callable[[BaseException], bool] | None = None
    executor: ResilientExecutor | None = None
    summary_extra: Callable[[CellOutcome],
                            dict[str, Any] | None] | None = None
    serializer: threading.Lock | None = None
    cost_hint: float | None = None
    family: str = ""
    fingerprint: str | None = None


@dataclass(frozen=True)
class CellResult:
    """What the engine produced for one task, at its input index.

    Executed cells carry the live :class:`CellOutcome` (and the
    :class:`JournalEntry` that was recorded, when journaling); resumed
    cells carry only the journaled entry.
    """

    index: int
    key: str
    outcome: CellOutcome | None
    entry: JournalEntry | None
    resumed: bool

    @property
    def status(self) -> str:
        if self.outcome is not None:
            return self.outcome.status
        assert self.entry is not None
        return self.entry.status

    @property
    def attempts(self) -> int:
        if self.outcome is not None:
            return max(1, self.outcome.attempts)
        assert self.entry is not None
        return self.entry.attempts

    @property
    def elapsed(self) -> float:
        """Injected-clock seconds this run spent on the cell (0 if
        resumed)."""
        return self.outcome.elapsed if self.outcome is not None else 0.0


def _locked(fn: Callable[..., Any],
            lock: threading.Lock | None) -> Callable[..., Any]:
    if lock is None:
        return fn

    def guarded(*args: Any) -> Any:
        with lock:
            return fn(*args)

    return guarded


def _execute(task: CellTask, index: int,
             journal: SweepJournal | ShardedJournal | None,
             fallback: ResilientExecutor,
             tracer: "TraceRecorder | None" = None,
             cache: "CompileCache | None" = None) -> CellResult:
    outcome = None
    if cache is not None:
        from repro.cache import cached_outcome
        outcome = cached_outcome(cache, task.key, task.fingerprint,
                                 tracer)
    replayed = outcome is not None
    if outcome is None:
        executor = task.executor if task.executor is not None else fallback
        run_fn = task.run_fn
        outcome = executor.execute(
            task.key,
            _locked(task.compile_fn, task.serializer),
            _locked(run_fn, task.serializer) if run_fn is not None else None,
            is_transient=task.is_transient,
        )
    entry = None
    if journal is not None:
        extra = None
        if task.summary_extra is not None:
            extra = task.summary_extra(outcome)
        entry = outcome.journal_entry(extra)
        journal.record(entry)
    if tracer is not None:
        tracer.emit("cell", key=task.key, status=outcome.status,
                    attempt=outcome.attempts, duration=outcome.elapsed)
    if cache is not None and not replayed:
        from repro.cache import store_outcome
        store_outcome(cache, task.fingerprint, outcome)
    return CellResult(index=index, key=task.key, outcome=outcome,
                      entry=entry, resumed=False)


def run_cell_tasks(
    tasks: list[CellTask], *,
    max_workers: int = 1,
    journal: SweepJournal | ShardedJournal | None = None,
    resume: bool = False,
    retry_failed: bool = False,
    on_result: Callable[[CellResult], None] | None = None,
    scheduler: "Scheduler | None" = None,
    tracer: "TraceRecorder | None" = None,
    cache: "CompileCache | None" = None,
) -> list[CellResult]:
    """Execute every task; return results in task order.

    ``on_result`` fires once per cell as it resolves (resumed cells
    resolve immediately). Under ``max_workers=1`` that is strict task
    order; under a pool it is completion order — still exactly once
    per cell.

    ``scheduler`` (a :class:`~repro.campaign.scheduler.Scheduler`)
    reorders *dispatch* only: it picks which pending cell each free
    worker takes next and is told what every cell actually cost.
    Results, journal keys, and resume behaviour are identical under
    every schedule; a non-lane-major schedule with ``max_workers=1``
    executes cells in predicted-cost order, so ``on_result`` fires in
    dispatch order rather than task order (resumed cells still resolve
    first, in task order).

    ``tracer`` (a :class:`~repro.observe.TraceRecorder`) records the
    dispatch/resume/cell lifecycle as JSONL trace events — pure
    telemetry, never touching results or the journal.

    ``cache`` (a :class:`~repro.cache.CompileCache`) replays
    fingerprinted cells read-through and publishes clean first-attempt
    successes; replayed cells journal exactly what a cold execution
    would have. Whatever path the drain takes, a scheduler's run
    ledger is flushed once on the way out (batched persistence — see
    :meth:`~repro.observe.RunLedger.flush`).
    """
    journaled: dict[str, JournalEntry] = {}
    if resume and journal is not None:
        journaled = journal.load()

    results: list[CellResult | None] = [None] * len(tasks)
    pending: list[tuple[int, CellTask]] = []
    for index, task in enumerate(tasks):
        entry = journaled.get(task.key)
        if (entry is not None and entry.finished
                and not (retry_failed and entry.failed)):
            results[index] = CellResult(index=index, key=task.key,
                                        outcome=None, entry=entry,
                                        resumed=True)
            if tracer is not None:
                tracer.emit("resume", key=task.key, status=entry.status)
        else:
            pending.append((index, task))

    fallback = ResilientExecutor()

    try:
        if max_workers <= 1 or len(pending) <= 1:
            if scheduler is None or scheduler.is_lane_major:
                # The pre-scheduler sequential path: strict task order,
                # resumed callbacks interleaved at their positions. A
                # lane-major scheduler observes each cell but never
                # reorders (its pick is always the queue head).
                queue = list(pending)
                for index, task in enumerate(tasks):
                    result = results[index]
                    if result is None:
                        if scheduler is not None:
                            queue.pop(scheduler.pick(queue))
                        if tracer is not None:
                            tracer.emit("dispatch", key=task.key)
                        result = _execute(task, index, journal, fallback,
                                          tracer, cache)
                        results[index] = result
                        if scheduler is not None:
                            scheduler.observe(task, result.elapsed)
                    if on_result is not None:
                        on_result(result)
                return [r for r in results if r is not None]
            # Cost-ordered sequential run: resumed cells resolve first
            # (in task order), then cells execute in scheduler order.
            if on_result is not None:
                for result in results:
                    if result is not None:
                        on_result(result)
            queue = list(pending)
            while queue:
                index, task = queue.pop(scheduler.pick(queue))
                if tracer is not None:
                    tracer.emit("dispatch", key=task.key)
                result = _execute(task, index, journal, fallback, tracer,
                                  cache)
                results[index] = result
                scheduler.observe(task, result.elapsed)
                if on_result is not None:
                    on_result(result)
            return [r for r in results if r is not None]

        # Resumed cells resolve first, in order; executed cells as
        # completed.
        if on_result is not None:
            for result in results:
                if result is not None:
                    on_result(result)

        if scheduler is None:
            return _run_pooled(pending, results, max_workers, journal,
                               fallback, on_result, tracer=tracer,
                               cache=cache)
        return _run_pooled_scheduled(pending, results, max_workers,
                                     journal, fallback, on_result,
                                     scheduler, tracer=tracer, cache=cache)
    finally:
        if scheduler is not None:
            scheduler.flush()


def _thread_pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="campaign")


def _run_pooled(
    pending: list[tuple[int, CellTask]],
    results: list[CellResult | None],
    max_workers: int,
    journal: SweepJournal | ShardedJournal | None,
    fallback: ResilientExecutor | None,
    on_result: Callable[[CellResult], None] | None,
    pool_factory: Callable[[int], Any] = _thread_pool,
    submit_fn: Callable[..., Any] | None = None,
    tracer: "TraceRecorder | None" = None,
    cache: "CompileCache | None" = None,
) -> list[CellResult]:
    """The unscheduled pool: submit everything, collect as completed.

    ``pool_factory`` / ``submit_fn`` let
    :mod:`repro.campaign.process` reuse this drain (identical
    error/cancel/callback semantics) over a process pool executing
    picklable cell specs instead of in-process tasks.
    """
    if submit_fn is None:
        def submit_fn(pool: Any, index: int, task: CellTask) -> Any:
            return pool.submit(_execute, task, index, journal, fallback,
                               tracer, cache)

    def dispatch(pool: Any, index: int, task: CellTask) -> Any:
        if tracer is not None:
            tracer.emit("dispatch", key=task.key)
        return submit_fn(pool, index, task)
    first_error: BaseException | None = None
    with pool_factory(min(max_workers, len(pending))) as pool:
        futures = {dispatch(pool, index, task)
                   for index, task in pending}
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue
                try:
                    result = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    if first_error is None:
                        first_error = exc
                        for other in futures:
                            other.cancel()
                    continue
                results[result.index] = result
                if on_result is not None and first_error is None:
                    on_result(result)
    if first_error is not None:
        raise first_error
    return [r for r in results if r is not None]


def _run_pooled_scheduled(
    pending: list[tuple[int, CellTask]],
    results: list[CellResult | None],
    max_workers: int,
    journal: SweepJournal | ShardedJournal | None,
    fallback: ResilientExecutor | None,
    on_result: Callable[[CellResult], None] | None,
    scheduler: "Scheduler",
    pool_factory: Callable[[int], Any] = _thread_pool,
    submit_fn: Callable[..., Any] | None = None,
    tracer: "TraceRecorder | None" = None,
    cache: "CompileCache | None" = None,
) -> list[CellResult]:
    """The scheduled pool: incremental dispatch, one pick per free slot.

    Cells are submitted one at a time as workers free up, so an online
    predictor's observations from finished cells inform which pending
    cell is picked next. Lane-major picks are always the queue head —
    FIFO, exactly the dispatch order of the submit-everything pool. A
    harness error (non-:class:`~repro.common.errors.ReproError`) stops
    further dispatch, drains the in-flight cells, and re-raises, same
    as the unscheduled pool. ``pool_factory`` / ``submit_fn`` swap the
    pool exactly as in :func:`_run_pooled`.
    """
    if submit_fn is None:
        def submit_fn(pool: Any, index: int, task: CellTask) -> Any:
            return pool.submit(_execute, task, index, journal, fallback,
                               tracer, cache)
    first_error: BaseException | None = None
    queue = list(pending)
    workers = min(max_workers, len(pending))
    with pool_factory(workers) as pool:
        inflight: dict[Any, CellTask] = {}

        def submit_next() -> None:
            index, task = queue.pop(scheduler.pick(queue))
            if tracer is not None:
                tracer.emit("dispatch", key=task.key)
            inflight[submit_fn(pool, index, task)] = task
        while queue and len(inflight) < workers:
            submit_next()
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                task = inflight.pop(future)
                try:
                    result = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    if first_error is None:
                        first_error = exc
                        queue.clear()
                    continue
                results[result.index] = result
                if first_error is None:
                    scheduler.observe(task, result.elapsed)
                    if on_result is not None:
                        on_result(result)
                    while queue and len(inflight) < workers:
                        submit_next()
    if first_error is not None:
        raise first_error
    return [r for r in results if r is not None]
