"""Supervised process dispatch: heartbeats, hard kills, quarantine.

Process dispatch (PR 4) made campaigns parallel; this module makes
them *self-healing*. A worker that is SIGKILL'd, OOM-killed, or truly
wedged used to surface as ``BrokenProcessPool`` and abort the whole
campaign, and per-cell deadlines were only cooperative — a hung
backend call could stall a lane forever. The :class:`Supervisor` wraps
the process-pool drain with four mechanisms:

* **Heartbeats** — each worker process stamps a monotonic beat (plus
  its in-flight cell key) into an ``hb-<pid>.json`` file in the
  journal directory on every ``heartbeat_interval``; the dispatcher
  polls them between future waits. Heartbeat files carry a per-pool
  token, so stale files from a previous pool era are ignored.
* **Hard deadline enforcement** — a worker whose in-flight cell has
  been running longer than ``deadline * grace_factor`` wall-clock
  seconds, or whose heartbeat is older than
  ``heartbeat_interval * grace_factor`` (never less than
  :data:`MIN_STALE_SECONDS`), is SIGKILL'd. The worker's
  own watchdog normally cuts a hang at ``deadline`` — the supervisor
  is the backstop for workers too wedged to self-report (a stopped
  process freezes its watchdog and heartbeat threads too).
* **Poison-cell quarantine** — crash attribution is conservative:
  when the pool breaks, every in-flight cell that did not reach the
  journal becomes a *suspect* and is re-run one at a time in
  isolation; completing clears suspicion, crashing alone is
  unambiguous. A cell that kills its worker ``quarantine_after``
  times is journaled as a final ``QuarantinedError`` failure instead
  of being retried forever.
* **Pool rebuild with exactly-once resume** — after a break the pool
  is rebuilt (up to ``max_pool_rebuilds`` times) and work resumes
  from the :class:`~repro.resilience.ShardedJournal`: cells whose
  results were lost in the broken pipe but whose journal entries
  reached disk are restored (as resumed cells), never re-executed.

The PR 2/3/4 invariants survive: results stay spec-ordered,
``on_result`` fires exactly once per cell, the scheduler keeps its
cost feedback, a harness error (non-pool-related) still cancels and
re-raises, and the canonical ``merged_text()`` of a crash-recovered
run is byte-identical to an unfaulted one's for the surviving cells.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.campaign.engine import CellResult
from repro.common.errors import (
    DeadlineExceededError,
    ErrorRecord,
    QuarantinedError,
)
from repro.resilience.executor import CellOutcome
from repro.resilience.journal import (
    STATUS_FAILED,
    JournalEntry,
    ShardedJournal,
)

if TYPE_CHECKING:
    from repro.campaign.process import CellSpec, WorkerSpec
    from repro.campaign.scheduler import Scheduler
    from repro.observe import TraceRecorder

__all__ = [
    "HEARTBEAT_PREFIX",
    "MIN_STALE_SECONDS",
    "Heartbeat",
    "write_heartbeat",
    "read_heartbeats",
    "SupervisionStats",
    "Supervisor",
]

#: Heartbeat files live next to the journal shards; the prefix keeps
#: them out of the shard filter (shards start with the journal prefix).
HEARTBEAT_PREFIX = "hb-"
#: Floor on the staleness budget. A healthy worker's beat is already
#: one interval plus a patrol tick old when read, and on a busy host
#: the OS can deschedule the stamper for a further 0.1 s or more; a
#: budget below this would SIGKILL such workers and rebuild the pool.
MIN_STALE_SECONDS = 1.0


@dataclass(frozen=True)
class Heartbeat:
    """One worker's most recent heartbeat stamp.

    ``beat`` and ``cell_started`` are ``time.monotonic()`` values; on
    Linux that clock is system-wide, so the supervising process can
    compare them against its own monotonic reads directly.
    """

    pid: int
    token: str
    beat: float
    cell: str | None
    cell_started: float | None
    seq: int
    path: Path


def write_heartbeat(directory: str | os.PathLike[str], *, pid: int,
                    token: str, beat: float, cell: str | None,
                    cell_started: float | None, seq: int) -> Path:
    """Atomically write one worker's heartbeat file.

    Written to a temp file and ``os.replace``'d into place, so a
    reader never sees a torn stamp.
    """
    path = Path(directory) / f"{HEARTBEAT_PREFIX}{pid}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({
        "pid": pid, "token": token, "beat": beat, "cell": cell,
        "cell_started": cell_started, "seq": seq,
    }), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_heartbeats(directory: str | os.PathLike[str],
                    token: str | None = None) -> list[Heartbeat]:
    """All parseable heartbeats in ``directory``.

    Torn or malformed files are skipped (a worker may be mid-replace
    or freshly killed). With ``token``, stamps from other pool eras
    are filtered out — the defense against heartbeat files surviving
    a pool rebuild or an earlier campaign on the same journal dir.
    """
    root = Path(directory)
    if not root.exists():
        return []
    beats: list[Heartbeat] = []
    for path in sorted(root.iterdir()):
        name = path.name
        if not (name.startswith(HEARTBEAT_PREFIX)
                and name.endswith(".json")):
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            beat = Heartbeat(
                pid=int(payload["pid"]),
                token=str(payload["token"]),
                beat=float(payload["beat"]),
                cell=payload.get("cell"),
                cell_started=(float(payload["cell_started"])
                              if payload.get("cell_started") is not None
                              else None),
                seq=int(payload.get("seq", 0)),
                path=path,
            )
        except (OSError, ValueError, TypeError, KeyError):
            continue
        if token is not None and beat.token != token:
            continue
        beats.append(beat)
    return beats


@dataclass(frozen=True)
class SupervisionStats:
    """What the supervisor did during one campaign run.

    ``quarantined`` lists the journal keys finalized as
    ``QuarantinedError``; ``corrupt_lines`` is the highest
    malformed-line count any journal load observed (crash-truncated
    shards made visible — see
    :attr:`~repro.resilience.ShardedJournal.corrupt_lines`).
    """

    deadline_kills: int = 0
    stale_kills: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    quarantined: tuple[str, ...] = ()
    corrupt_lines: int = 0
    heartbeat_interval: float = 5.0
    grace_factor: float = 2.0
    quarantine_after: int = 2
    max_pool_rebuilds: int = 5

    @property
    def kills(self) -> int:
        return self.deadline_kills + self.stale_kills


class Supervisor:
    """Drives a process pool with heartbeats, kills, and recovery.

    One instance supervises one campaign run; :meth:`stats` reports
    the accumulated telemetry afterwards. Built from an
    :class:`~repro.resilience.ExecutionPolicy` by
    :meth:`~repro.resilience.ExecutionPolicy.make_supervisor`.
    """

    def __init__(self, *, deadline: float | None = None,
                 heartbeat_interval: float = 5.0,
                 grace_factor: float = 2.0,
                 quarantine_after: int = 2,
                 max_pool_rebuilds: int = 5,
                 tracer: "TraceRecorder | None" = None) -> None:
        self.deadline = deadline
        self.heartbeat_interval = heartbeat_interval
        self.grace_factor = grace_factor
        self.quarantine_after = quarantine_after
        self.max_pool_rebuilds = max_pool_rebuilds
        self.tracer = tracer
        self._deadline_kills = 0
        self._stale_kills = 0
        self._worker_crashes = 0
        self._pool_rebuilds = 0
        self._quarantined: list[str] = []
        self._corrupt_lines = 0

    def stats(self) -> SupervisionStats:
        return SupervisionStats(
            deadline_kills=self._deadline_kills,
            stale_kills=self._stale_kills,
            worker_crashes=self._worker_crashes,
            pool_rebuilds=self._pool_rebuilds,
            quarantined=tuple(self._quarantined),
            corrupt_lines=self._corrupt_lines,
            heartbeat_interval=self.heartbeat_interval,
            grace_factor=self.grace_factor,
            quarantine_after=self.quarantine_after,
            max_pool_rebuilds=self.max_pool_rebuilds,
        )

    # ------------------------------------------------------------------
    def run(self, pending: "list[tuple[int, CellSpec]]",
            results: list[CellResult | None], *,
            worker: "WorkerSpec",
            payload: bytes,
            max_workers: int,
            journal: ShardedJournal | None,
            on_result: Callable[[CellResult], None] | None,
            scheduler: "Scheduler") -> list[CellResult]:
        """The process drain: same contract as the thread engine's pool.

        ``results`` already holds resume-skipped cells (their
        callbacks have fired); ``pending`` is what is left to execute.
        """
        from repro.campaign.process import _execute_cell, _init_worker

        own_dir: str | None = None
        if journal is not None:
            hb_dir = Path(journal.directory)
            hb_dir.mkdir(parents=True, exist_ok=True)
        else:
            own_dir = tempfile.mkdtemp(prefix="repro-hb-")
            hb_dir = Path(own_dir)

        baseline: dict[str, JournalEntry] = {}
        if journal is not None:
            baseline = journal.load()
            self._note_corrupt(journal)

        queue = list(pending)
        crash_counts: dict[str, int] = {}
        workers = min(max_workers, len(pending))
        first_error: BaseException | None = None
        broke: BrokenProcessPool | None = None
        tick = min(0.25, max(0.02, self.heartbeat_interval / 2.0))

        try:
            while queue and first_error is None:
                if broke is not None:  # a previous era broke the pool
                    self._pool_rebuilds += 1
                    if self.tracer is not None:
                        self.tracer.emit("pool-rebuild",
                                         attempt=self._pool_rebuilds)
                    if self._pool_rebuilds > self.max_pool_rebuilds:
                        raise broke
                    broke = None
                token = uuid.uuid4().hex
                self._clear_heartbeats(hb_dir)
                # (index, cell, wall-clock submit time) per live future.
                inflight: dict[Any, tuple[int, "CellSpec", float]] = {}
                # cell key -> (reason, elapsed) for supervisor kills.
                killed: dict[str, tuple[str, float]] = {}
                suspect_inflight = False
                lost: list[tuple[int, "CellSpec"]] = []

                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(payload, str(hb_dir),
                              self.heartbeat_interval, token))
                try:
                    def submit_at(positions: list[int]) -> None:
                        nonlocal broke, suspect_inflight
                        cand = [queue[p] for p in positions]
                        index, cell = queue.pop(
                            positions[scheduler.pick(cand)])
                        if crash_counts.get(cell.key, 0) > 0:
                            suspect_inflight = True
                            if self.tracer is not None:
                                self.tracer.emit(
                                    "isolate", key=cell.key,
                                    attempt=crash_counts[cell.key])
                        if self.tracer is not None:
                            self.tracer.emit("dispatch", key=cell.key)
                        try:
                            future = pool.submit(_execute_cell, index,
                                                 cell)
                        except BrokenProcessPool as exc:
                            broke = exc
                            queue.append((index, cell))
                            queue.sort(key=lambda item: item[0])
                            return
                        inflight[future] = (index, cell,
                                            time.monotonic())

                    def fill() -> None:
                        # Innocent cells fan out freely; a suspect
                        # (survived a pool break unjournaled) flies
                        # alone so a second crash attributes to it
                        # unambiguously.
                        while (queue and broke is None
                               and not suspect_inflight
                               and len(inflight) < workers):
                            innocents = [
                                p for p, (_, cell) in enumerate(queue)
                                if not crash_counts.get(cell.key, 0)]
                            if innocents:
                                submit_at(innocents)
                                continue
                            if not inflight:
                                submit_at(list(range(len(queue))))
                            break

                    fill()
                    while inflight and broke is None:
                        done, _ = wait(set(inflight), timeout=tick,
                                       return_when=FIRST_COMPLETED)
                        for future in done:
                            index, cell, _started = inflight.pop(future)
                            try:
                                result = future.result()
                            except BrokenProcessPool as exc:
                                if broke is None:
                                    broke = exc
                                lost.append((index, cell))
                                continue
                            except BaseException as exc:  # noqa: BLE001
                                # A harness error: cancel + re-raise,
                                # exactly like the thread pool.
                                if first_error is None:
                                    first_error = exc
                                    queue.clear()
                                continue
                            crash_counts.pop(cell.key, None)
                            suspect_inflight = False
                            results[index] = result
                            if first_error is None:
                                scheduler.observe(cell, result.elapsed)
                                if on_result is not None:
                                    on_result(result)
                        if broke is None and first_error is None:
                            self._patrol(hb_dir, token, inflight,
                                         killed)
                            fill()
                    if broke is not None:
                        lost.extend(
                            (index, cell)
                            for index, cell, _started in
                            inflight.values())
                        inflight.clear()
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)

                if broke is not None and first_error is None:
                    self._worker_crashes += 1
                    requeued = self._recover(
                        lost, killed, baseline, crash_counts,
                        journal=journal, results=results,
                        on_result=on_result, scheduler=scheduler)
                    queue.extend(requeued)
                    queue.sort(key=lambda item: item[0])
        finally:
            self._clear_heartbeats(hb_dir)
            if own_dir is not None:
                try:
                    os.rmdir(own_dir)
                except OSError:
                    pass

        if first_error is not None:
            raise first_error
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _patrol(self, hb_dir: Path, token: str,
                inflight: dict[Any, tuple[int, "CellSpec", float]],
                killed: dict[str, tuple[str, float]]) -> None:
        """One monitoring pass: kill workers past their budgets."""
        running = {cell.key for _, cell, _ in inflight.values()}
        now = time.monotonic()
        stale_after = max(self.heartbeat_interval * self.grace_factor,
                          MIN_STALE_SECONDS)
        hard_deadline = (self.deadline * self.grace_factor
                         if self.deadline is not None else None)
        for beat in read_heartbeats(hb_dir, token):
            reason = None
            elapsed = 0.0
            if (hard_deadline is not None and beat.cell in running
                    and beat.cell_started is not None
                    and now - beat.cell_started > hard_deadline):
                reason = "deadline"
                elapsed = now - beat.cell_started
            elif now - beat.beat > stale_after:
                reason = "stale"
                if beat.cell_started is not None:
                    elapsed = now - beat.cell_started
            if reason is None:
                continue
            self._kill(beat.pid)
            if self.tracer is not None:
                self.tracer.emit("sigkill", key=beat.cell or "",
                                 status=reason, pid=beat.pid,
                                 elapsed=elapsed)
            if reason == "deadline":
                self._deadline_kills += 1
            else:
                self._stale_kills += 1
            if beat.cell is not None:
                killed[beat.cell] = (reason, elapsed)
            try:
                beat.path.unlink()
            except OSError:
                pass

    @staticmethod
    def _kill(pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    @staticmethod
    def _clear_heartbeats(hb_dir: Path) -> None:
        """Best-effort removal of heartbeat files from previous eras."""
        if not hb_dir.exists():
            return
        for path in hb_dir.iterdir():
            name = path.name
            if name.startswith(HEARTBEAT_PREFIX) and (
                    name.endswith(".json") or name.endswith(".tmp")):
                try:
                    path.unlink()
                except OSError:
                    pass

    def _note_corrupt(self, journal: ShardedJournal | None) -> None:
        if journal is not None:
            self._corrupt_lines = max(self._corrupt_lines,
                                      journal.corrupt_lines)

    # ------------------------------------------------------------------
    def _recover(self, lost: list[tuple[int, "CellSpec"]],
                 killed: dict[str, tuple[str, float]],
                 baseline: dict[str, JournalEntry],
                 crash_counts: dict[str, int], *,
                 journal: ShardedJournal | None,
                 results: list[CellResult | None],
                 on_result: Callable[[CellResult], None] | None,
                 scheduler: "Scheduler",
                 ) -> list[tuple[int, "CellSpec"]]:
        """Resolve every cell lost to a pool break.

        Journal-finished cells are restored (exactly-once: only
        entries *newer than the pre-run baseline* count as this run's
        work); deadline-killed cells finalize as
        ``DeadlineExceededError``; the rest accumulate crash counts
        and are requeued — or quarantined at ``quarantine_after``.
        """
        fresh: dict[str, JournalEntry] = {}
        if journal is not None:
            fresh = journal.load()
            self._note_corrupt(journal)

        requeued: list[tuple[int, "CellSpec"]] = []
        for index, cell in sorted(lost, key=lambda item: item[0]):
            key = cell.key
            entry = fresh.get(key)
            if (entry is not None and entry.finished
                    and entry != baseline.get(key)):
                # Finished in the worker; only the result pipe died.
                baseline[key] = entry
                crash_counts.pop(key, None)
                if self.tracer is not None:
                    self.tracer.emit("recovered", key=key,
                                     status=entry.status)
                result = CellResult(index=index, key=key, outcome=None,
                                    entry=entry, resumed=True)
                results[index] = result
                if on_result is not None:
                    on_result(result)
                continue
            reason, elapsed = killed.get(key, (None, 0.0))
            if reason == "deadline":
                assert self.deadline is not None
                record = ErrorRecord.from_exception(
                    DeadlineExceededError(
                        f"worker SIGKILL'd: cell exceeded the hard "
                        f"{self.deadline * self.grace_factor:g}s "
                        f"wall-clock deadline "
                        f"(deadline={self.deadline:g}s x "
                        f"grace_factor={self.grace_factor:g})",
                        elapsed=elapsed,
                        deadline=self.deadline * self.grace_factor),
                    phase="supervise", transient=False)
                results[index] = self._finalize(
                    index, cell, record, attempts=1, elapsed=elapsed,
                    journal=journal, baseline=baseline,
                    on_result=on_result, scheduler=scheduler)
                crash_counts.pop(key, None)
                continue
            crashes = crash_counts.get(key, 0) + 1
            crash_counts[key] = crashes
            if self.tracer is not None:
                self.tracer.emit("worker-crash", key=key,
                                 attempt=crashes,
                                 reason=reason or "crash")
            if crashes >= self.quarantine_after:
                record = ErrorRecord.from_exception(
                    QuarantinedError(
                        f"cell killed its worker process {crashes} "
                        f"time(s); quarantined to protect the grid",
                        crashes=crashes),
                    phase="supervise", transient=False)
                if self.tracer is not None:
                    self.tracer.emit("quarantine", key=key,
                                     attempt=crashes)
                results[index] = self._finalize(
                    index, cell, record, attempts=crashes,
                    elapsed=elapsed, journal=journal,
                    baseline=baseline, on_result=on_result,
                    scheduler=scheduler)
                self._quarantined.append(key)
                crash_counts.pop(key, None)
            else:
                requeued.append((index, cell))
        return requeued

    def _finalize(self, index: int, cell: "CellSpec",
                  record: ErrorRecord, *, attempts: int,
                  elapsed: float, journal: ShardedJournal | None,
                  baseline: dict[str, JournalEntry],
                  on_result: Callable[[CellResult], None] | None,
                  scheduler: "Scheduler") -> CellResult:
        """Journal and surface a supervisor-issued final failure."""
        entry = JournalEntry(key=cell.key, status=STATUS_FAILED,
                             attempts=attempts, error=record)
        if journal is not None:
            journal.record(entry)
            baseline[cell.key] = entry
        outcome = CellOutcome(key=cell.key, status=STATUS_FAILED,
                              error=record, attempts=attempts,
                              elapsed=elapsed)
        if self.tracer is not None:
            self.tracer.emit("cell", key=cell.key, status=STATUS_FAILED,
                             attempt=attempts, duration=elapsed,
                             error=record.type)
        result = CellResult(index=index, key=cell.key, outcome=outcome,
                            entry=entry, resumed=False)
        scheduler.observe(cell, elapsed)
        if on_result is not None:
            on_result(result)
        return result
