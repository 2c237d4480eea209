"""The thread-dispatch drain, and the cell body both dispatch modes share.

A sweep is a list of independent cells. :func:`run_cell_tasks`
executes a list of :class:`CellTask` closures — inline or across a
thread pool — with journaling, resume, and deterministic result
ordering. :func:`~repro.workloads.sweeps.run_grid` and
:class:`~repro.campaign.Campaign` build their cells in one place
(:mod:`repro.campaign.dispatch`) and reach this drain under thread
dispatch; the Tier-2 analyzers build their own task lists and call it
directly. The process drain (:func:`~repro.campaign.process.run_cell_specs`)
reuses this module's resume step (:func:`_split_resumed`) and cell body
(:func:`_run_cell`: cache read-through, executor, journal record,
``cell`` trace event, cache publish), so the retry/journal/resume/cache
semantics cannot drift between dispatch modes.

Guarantees:

* **Deterministic ordering** — results come back in task-list order,
  whatever order cells completed in.
* **Sequential fidelity** — with ``max_workers=1`` cells run inline in
  order, exactly like the pre-campaign harness (including progress
  callback ordering on a resumed run).
* **Crash tolerance** — each finished cell is journaled (fsynced)
  before its result is surfaced; a non-:class:`ReproError` escaping a
  cell (a harness bug, or an injected "kill") stops dispatch, drains
  the running cells, and re-raises — journaled outcomes survive for
  the resume.
* **Backend serialization** — tasks carrying a ``serializer`` lock
  (backends audited ``thread_safe = False``) never overlap their
  backend calls, while their retries/backoffs still interleave freely.
"""

from __future__ import annotations

import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

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




def _split_resumed(cells: Sequence[Any],
                   journal: SweepJournal | ShardedJournal | None, *,
                   resume: bool, retry_failed: bool,
                   tracer: "TraceRecorder | None",
                   ) -> tuple[list[CellResult | None],
                              list[tuple[int, Any]]]:
    """The resume step both dispatch modes share.

    Returns the result slots (filled for cells the journal already
    finished) and the ``(index, cell)`` pairs still to execute.
    ``cells`` are :class:`CellTask` or
    :class:`~repro.campaign.process.CellSpec` items; only ``key`` is
    read.
    """
    journaled: dict[str, JournalEntry] = {}
    if resume and journal is not None:
        journaled = journal.load()
    results: list[CellResult | None] = [None] * len(cells)
    pending: list[tuple[int, Any]] = []
    for index, cell in enumerate(cells):
        entry = journaled.get(cell.key)
        if (entry is not None and entry.finished
                and not (retry_failed and entry.failed)):
            results[index] = CellResult(index=index, key=cell.key,
                                        outcome=None, entry=entry,
                                        resumed=True)
            if tracer is not None:
                tracer.emit("resume", key=cell.key, status=entry.status)
        else:
            pending.append((index, cell))
    return results, pending


def _run_cell(index: int, cell: Any,
              execute: Callable[[], CellOutcome], *,
              journal: SweepJournal | ShardedJournal | None,
              tracer: "TraceRecorder | None",
              cache: "CompileCache | None",
              summary_extra: Callable[[CellOutcome],
                                      dict[str, Any] | None] | None = None,
              ) -> CellResult:
    """The cell body both dispatch modes share.

    Cache read-through, then ``execute()`` on a miss, then the journal
    record, the ``cell`` trace event and the cache publish. ``cell``
    is a :class:`CellTask` or a
    :class:`~repro.campaign.process.CellSpec`; only ``key`` and
    ``fingerprint`` are read.
    """
    outcome = None
    if cache is not None:
        from repro.cache import cached_outcome
        outcome = cached_outcome(cache, cell.key, cell.fingerprint,
                                 tracer)
    replayed = outcome is not None
    if outcome is None:
        outcome = execute()
    entry = None
    if journal is not None:
        extra = summary_extra(outcome) if summary_extra is not None else None
        entry = outcome.journal_entry(extra)
        journal.record(entry)
    if tracer is not None:
        tracer.emit("cell", key=cell.key, status=outcome.status,
                    attempt=outcome.attempts, duration=outcome.elapsed)
    if cache is not None and not replayed:
        from repro.cache import store_outcome
        store_outcome(cache, cell.fingerprint, outcome)
    return CellResult(index=index, key=cell.key, outcome=outcome,
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

    ``scheduler`` (a :class:`~repro.campaign.scheduler.Scheduler`;
    ``None`` means a lane-major one) reorders *dispatch* only: it picks
    which pending cell each free worker takes next and is told what
    every cell actually cost. Results, journal keys, and resume
    behaviour are identical under every schedule; a non-lane-major
    schedule with ``max_workers=1`` executes cells in predicted-cost
    order, so ``on_result`` fires in dispatch order rather than task
    order (resumed cells still resolve first, in task order).

    ``tracer`` (a :class:`~repro.observe.TraceRecorder`) records the
    dispatch/resume/cell lifecycle as JSONL trace events — pure
    telemetry, never touching results or the journal.

    ``cache`` (a :class:`~repro.cache.CompileCache`) replays
    fingerprinted cells read-through and publishes clean first-attempt
    successes; replayed cells journal exactly what a cold execution
    would have. Whatever path the drain takes, the scheduler's run
    ledger is flushed once on the way out (batched persistence — see
    :meth:`~repro.observe.RunLedger.flush`).
    """
    if scheduler is None:
        from repro.campaign.scheduler import Scheduler
        scheduler = Scheduler()
    results, pending = _split_resumed(tasks, journal, resume=resume,
                                      retry_failed=retry_failed,
                                      tracer=tracer)
    fallback = ResilientExecutor()

    def execute(index: int, task: CellTask) -> CellResult:
        executor = task.executor if task.executor is not None else fallback
        run_fn = task.run_fn
        return _run_cell(
            index, task,
            lambda: executor.execute(
                task.key,
                _locked(task.compile_fn, task.serializer),
                (_locked(run_fn, task.serializer)
                 if run_fn is not None else None),
                is_transient=task.is_transient),
            journal=journal, tracer=tracer, cache=cache,
            summary_extra=task.summary_extra)

    def run_next(queue: list[tuple[int, CellTask]]) -> CellResult:
        index, task = queue.pop(scheduler.pick(queue))
        if tracer is not None:
            tracer.emit("dispatch", key=task.key)
        result = results[index] = execute(index, task)
        scheduler.observe(task, result.elapsed)
        return result

    try:
        queue = list(pending)
        if ((max_workers <= 1 or len(pending) <= 1)
                and scheduler.is_lane_major):
            # Strict task order, resumed callbacks interleaved at their
            # positions: a lane-major pick is always the queue head,
            # which is the next unresolved task.
            for result in list(results):
                if result is None:
                    result = run_next(queue)
                if on_result is not None:
                    on_result(result)
            return [r for r in results if r is not None]

        # Resumed cells resolve first, in task order; executed cells in
        # dispatch order (inline) or completion order (pooled).
        if on_result is not None:
            for result in results:
                if result is not None:
                    on_result(result)
        if max_workers <= 1 or len(pending) <= 1:
            while queue:
                result = run_next(queue)
                if on_result is not None:
                    on_result(result)
            return [r for r in results if r is not None]
        return _run_thread_pool(queue, results, max_workers, execute,
                                on_result, scheduler, tracer)
    finally:
        scheduler.flush()


def _run_thread_pool(
    queue: list[tuple[int, CellTask]],
    results: list[CellResult | None],
    max_workers: int,
    execute: Callable[[int, CellTask], CellResult],
    on_result: Callable[[CellResult], None] | None,
    scheduler: "Scheduler",
    tracer: "TraceRecorder | None",
) -> list[CellResult]:
    """The pooled drain: incremental dispatch, one pick per free slot.

    Cells are submitted one at a time as workers free up, so an online
    predictor's observations from finished cells inform which pending
    cell is picked next; lane-major picks are always the queue head
    (FIFO). A harness error (non-:class:`~repro.common.errors.ReproError`)
    stops further dispatch, drains the in-flight cells, and re-raises.
    """
    first_error: BaseException | None = None
    workers = min(max_workers, len(queue))
    with ThreadPoolExecutor(max_workers=workers,
                            thread_name_prefix="campaign") as pool:
        inflight: dict[Future[CellResult], CellTask] = {}

        def submit_next() -> None:
            index, task = queue.pop(scheduler.pick(queue))
            if tracer is not None:
                tracer.emit("dispatch", key=task.key)
            inflight[pool.submit(execute, index, task)] = task
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
