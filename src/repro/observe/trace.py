"""Structured trace spans for the campaign runtime.

Every layer of the campaign stack — the scheduler, the engine/process
dispatchers, the :class:`~repro.resilience.ResilientExecutor`, and the
:class:`~repro.campaign.supervisor.Supervisor` — can emit one-line
JSONL *trace events* through a :class:`TraceRecorder`. The records
reconstruct a cell's full lifecycle::

    schedule -> dispatch -> compile -> run -> cell
                         \\-> cache (hit / miss / bypass)
                         \\-> retry / gate (breaker open)
    worker-crash -> isolate -> worker-crash -> quarantine
    sigkill (supervisor patrol), pool-rebuild, resume, recovered

Shards are written one file per writer thread per process (the same
no-shared-writer discipline as :class:`~repro.resilience.ShardedJournal`)
into the journal directory, named ``trace-<run>-<pid>-<inst>-<n>.jsonl``
— the journal's shard filter only accepts its own prefix, so tracing is
**side-effect-free on the journal**: ``merged_text()`` stays
byte-identical with tracing on or off.

Determinism: every event has a *canonical* projection —
``(key, name, phase, status, attempt)`` — that excludes wall-clock
timestamps, durations, writer ids, and metadata. :func:`merged_trace_text`
sorts canonical events into a stable order, so a faultless grid produces
the **same merged trace under thread and process dispatch** and across
repeated runs. The full events (with monotonic timestamps) feed the
Chrome trace-event export (:func:`to_chrome_events`), which follows the
conventions of :mod:`repro.sim.export`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

TRACE_VERSION = 1

#: Trace shards live beside the journal shards; this prefix keeps them
#: out of the journal's shard filter (which matches its own prefix).
TRACE_PREFIX = "trace"

#: Event fields that survive into the canonical (deterministic) merge.
CANONICAL_FIELDS = ("key", "name", "phase", "status", "attempt")

#: Deterministic within-(key, attempt) ordering of event names. Names
#: not listed sort after the known lifecycle, alphabetically.
_NAME_RANK = {
    "resume": 0,
    "recovered": 1,
    "schedule": 2,
    "dispatch": 3,
    "cache": 4,
    "gate": 5,
    "compile": 6,
    "run": 7,
    "retry": 8,
    "sigkill": 9,
    "worker-crash": 10,
    "isolate": 11,
    "quarantine": 12,
    "cell": 13,
    "pool-rebuild": 14,
}

# Chrome traces use microseconds; trace timestamps are seconds.
_SECONDS_TO_US = 1e6

_EPOCH_OFFSET: float | None = None


def _epoch_offset() -> float:
    """This process's wall-minus-monotonic offset, computed once.

    ``time.monotonic()`` epochs are per-process on every platform CPython
    supports (POSIX allows ``CLOCK_MONOTONIC`` to start anywhere, and
    Windows' ``QueryPerformanceCounter`` counts from boot of the *QPC*
    unit) — raw stamps from two worker processes are NOT comparable.
    Each shard therefore records its writer's offset in a header line so
    :func:`load_events` can translate every stamp onto one timeline.
    Computed once per process rather than per shard: two threads sampling
    the pair microseconds apart would otherwise disagree by the sampling
    jitter and reorder same-process events.
    """
    global _EPOCH_OFFSET
    if _EPOCH_OFFSET is None:
        _EPOCH_OFFSET = time.time() - time.monotonic()
    return _EPOCH_OFFSET


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``ts`` is a ``time.monotonic()`` stamp, meaningful only relative to
    other stamps from the same process — :func:`load_events` uses the
    per-shard epoch header to normalize stamps from different worker
    processes onto one timeline; ``duration`` is nonzero for span
    events (compile / run / cell). ``writer`` identifies the shard the
    event came from and
    ``seq`` its position within that shard — together they give a total
    causal order per writer. ``meta`` holds free-form details (error
    types, kill reasons, predicted costs) excluded from the canonical
    projection.
    """

    name: str
    key: str = ""
    phase: str = ""
    status: str = ""
    attempt: int = 0
    ts: float = 0.0
    duration: float = 0.0
    writer: str = ""
    seq: int = 0
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": TRACE_VERSION,
            "name": self.name,
            "key": self.key,
            "phase": self.phase,
            "status": self.status,
            "attempt": self.attempt,
            "ts": self.ts,
            "duration": self.duration,
            "seq": self.seq,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any],
                  writer: str = "") -> "TraceEvent":
        meta = payload.get("meta")
        return cls(
            name=str(payload["name"]),
            key=str(payload.get("key", "")),
            phase=str(payload.get("phase", "")),
            status=str(payload.get("status", "")),
            attempt=int(payload.get("attempt", 0)),
            ts=float(payload.get("ts", 0.0)),
            duration=float(payload.get("duration", 0.0)),
            writer=writer,
            seq=int(payload.get("seq", 0)),
            meta=dict(meta) if isinstance(meta, dict) else {},
        )

    def canonical(self) -> dict[str, Any]:
        """The deterministic projection of this event."""
        return {"key": self.key, "name": self.name, "phase": self.phase,
                "status": self.status, "attempt": self.attempt}


def _canonical_order(event: TraceEvent) -> tuple:
    rank = _NAME_RANK.get(event.name)
    return (event.key, event.attempt,
            0 if rank is not None else 1,
            rank if rank is not None else 0,
            event.name, event.phase, event.status)


class TraceRecorder:
    """Appends trace events to per-thread JSONL shards in a directory.

    One recorder serves one process of one campaign run; every writer
    thread lazily claims its own shard file (pid + a random instance
    token + a per-thread counter make the name unique without any
    cross-process claim protocol). ``run`` groups the shards of one
    campaign run — the parent generates it and ships it to worker
    processes, so :func:`load_events` can read exactly one run back out
    of a directory that accumulates shards across runs.

    Emitting never raises for IO problems: a trace is telemetry, and
    losing a shard must not take real work down with it. The writer
    that made a recorder calls :meth:`close` when its run ends; an
    emit after that opens a fresh shard.
    """

    def __init__(self, directory: str | os.PathLike[str],
                 run: str | None = None,
                 prefix: str = TRACE_PREFIX) -> None:
        self.directory = Path(directory)
        self.run = run if run is not None else new_run_token()
        self.prefix = prefix
        self._instance = uuid.uuid4().hex[:4]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_writer = 0
        self._handles: list[Any] = []

    def emit(self, name: str, *, key: str = "", phase: str = "",
             status: str = "", attempt: int = 0, duration: float = 0.0,
             **meta: Any) -> None:
        """Append one event to this thread's shard (best-effort)."""
        event = TraceEvent(name=name, key=key, phase=phase, status=status,
                           attempt=attempt, ts=time.monotonic(),
                           duration=duration, seq=self._next_seq(),
                           meta=meta)
        try:
            handle = self._handle()
            handle.write(json.dumps(event.to_dict(), sort_keys=True)
                         + "\n")
            handle.flush()
        except (OSError, ValueError):  # ValueError: closed mid-write
            pass

    def _next_seq(self) -> int:
        seq = getattr(self._local, "seq", 0) + 1
        self._local.seq = seq
        return seq

    def close(self) -> None:
        """Close every shard this recorder opened, from any thread."""
        with self._lock:
            handles, self._handles = self._handles, []
        for handle in handles:
            handle.close()

    def _handle(self) -> Any:
        handle = getattr(self._local, "handle", None)
        if handle is None or handle.closed:
            with self._lock:
                writer = self._next_writer
                self._next_writer += 1
            name = (f"{self.prefix}-{self.run}-{os.getpid()}"
                    f"-{self._instance}-{writer:03d}.jsonl")
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = (self.directory / name).open("a", encoding="utf-8")
            with self._lock:
                self._handles.append(handle)
            # First line of every shard: the writer's wall-minus-
            # monotonic offset, so the loader can put shards from
            # different processes on one timeline (see _epoch_offset).
            handle.write(json.dumps(
                {"v": TRACE_VERSION, "header": True,
                 "epoch": _epoch_offset()}, sort_keys=True) + "\n")
            handle.flush()
            self._local.handle = handle
        return handle


def new_run_token() -> str:
    """A fresh run token grouping the trace shards of one campaign."""
    return uuid.uuid4().hex[:8]


def trace_shard_paths(directory: str | os.PathLike[str],
                      run: str | None = None,
                      prefix: str = TRACE_PREFIX) -> list[Path]:
    """Trace shard files in ``directory``, sorted by name.

    With ``run``, only the shards of that campaign run are returned.
    """
    root = Path(directory)
    if not root.exists():
        return []
    marker = (f"{prefix}-{run}-" if run is not None else f"{prefix}-")
    return sorted(path for path in root.iterdir()
                  if path.name.startswith(marker)
                  and path.name.endswith(".jsonl"))


def load_events(directory: str | os.PathLike[str],
                run: str | None = None,
                prefix: str = TRACE_PREFIX) -> list[TraceEvent]:
    """Read every trace event under ``directory``, in causal time order.

    Torn or malformed lines (a crash mid-write) are skipped, like the
    journal's loader. Each shard's epoch header (its writer's
    wall-minus-monotonic offset) translates that shard's monotonic
    stamps onto one shared timeline before sorting — raw
    ``time.monotonic()`` values from different processes are not
    comparable, their epochs are arbitrary per process. Stamps are
    shifted by ``offset - min(offsets)``, so a single-process trace
    (every shard sharing one offset) is returned bit-for-bit unshifted,
    and a shard with no header (an old or truncated file) is left
    unshifted too. Events are then ordered by ``(ts, writer, seq)``.
    """
    events: list[TraceEvent] = []
    shard_events: dict[str, list[int]] = {}
    offsets: dict[str, float] = {}
    for path in trace_shard_paths(directory, run, prefix):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        indices = shard_events.setdefault(path.stem, [])
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if payload.get("header"):
                    epoch = payload.get("epoch")
                    if isinstance(epoch, (int, float)):
                        offsets[path.stem] = float(epoch)
                    continue
                indices.append(len(events))
                events.append(TraceEvent.from_dict(payload,
                                                   writer=path.stem))
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                continue
    if offsets:
        base = min(offsets.values())
        for stem, indices in shard_events.items():
            delta = offsets.get(stem, base) - base
            if delta == 0.0:
                continue
            for i in indices:
                events[i] = replace(events[i], ts=events[i].ts + delta)
    events.sort(key=lambda e: (e.ts, e.writer, e.seq))
    return events


def merge_events(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """Deterministic merge order: sorted by canonical fields only.

    The result is identical for the same set of canonical events,
    whatever shards, threads, or processes produced them.
    """
    return sorted(events, key=_canonical_order)


def merged_trace_text(events: Iterable[TraceEvent]) -> str:
    """The canonical merged trace: one JSON line per event.

    Only the deterministic fields survive (no timestamps, durations,
    writer ids, or meta), so two faultless runs of the same grid —
    thread- or process-dispatched — produce byte-identical text.
    """
    lines = [json.dumps(event.canonical(), sort_keys=True)
             for event in merge_events(events)]
    return "".join(line + "\n" for line in lines)


def events_for_key(events: Iterable[TraceEvent],
                   key: str) -> list[TraceEvent]:
    """The events of one cell, in causal ``(ts, writer, seq)`` order."""
    return sorted((e for e in events if e.key == key),
                  key=lambda e: (e.ts, e.writer, e.seq))


def summarize_events(events: Iterable[TraceEvent]) -> dict[str, int]:
    """Event-name histogram of a trace (for the CLI summary)."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event.name] = counts.get(event.name, 0) + 1
    return dict(sorted(counts.items()))


def to_chrome_events(events: Sequence[TraceEvent],
                     process_name: str = "campaign") -> dict[str, Any]:
    """Convert trace events to a Chrome-tracing JSON object.

    Follows the :mod:`repro.sim.export` conventions: ``M`` metadata
    events name the process and one thread row per trace writer, span
    events become ``X`` complete events (microsecond ``ts``/``dur``,
    normalized to the earliest stamp), and point events become ``i``
    instants. Open the result in ``chrome://tracing`` / Perfetto.
    """
    tids: dict[str, int] = {}
    out: list[dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": process_name},
    }]
    origin = min((e.ts for e in events), default=0.0)
    for event in events:
        writer = event.writer or "main"
        if writer not in tids:
            tid = len(tids)
            tids[writer] = tid
            out.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": writer},
            })
        args = {
            "key": event.key,
            "status": event.status,
            "attempt": event.attempt,
            **{k: v for k, v in event.meta.items()
               if isinstance(v, (str, int, float, bool))},
        }
        name = (f"{event.key}:{event.name}" if event.key
                else event.name)
        record: dict[str, Any] = {
            "name": name,
            "cat": event.phase or event.name,
            "pid": 0,
            "tid": tids[writer],
            "ts": max(0.0, event.ts - origin) * _SECONDS_TO_US,
            "args": args,
        }
        if event.duration > 0.0:
            record["ph"] = "X"
            # X events span [ts - dur, ts]: the stamp is taken when the
            # span *ends*, so shift the start back by the duration.
            record["ts"] = max(
                0.0, event.ts - origin - event.duration) * _SECONDS_TO_US
            record["dur"] = event.duration * _SECONDS_TO_US
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TraceEvent],
                       path: str | os.PathLike[str],
                       process_name: str = "campaign") -> Path:
    """Write the Chrome-tracing JSON to ``path``; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_chrome_events(events, process_name)),
                      encoding="utf-8")
    return target
