"""Execution traces: what ran where, and for how long.

Platform runtimes append rows as work completes — one
:class:`TraceRecord` at a time with :meth:`Trace.add`, or a task's whole
run of intervals with :meth:`Trace.extend` — and the framework's Tier-1
profiler then derives busy time, per-task throughput, and utilization
from the trace — the "runtime information" category of paper
Sec. IV-D(b).

A trace keeps per-task and per-category aggregates up to date as rows
arrive, so the aggregate queries cost O(tasks), never a rescan of the
records. Rows given to :meth:`Trace.extend` are stored as two float
columns; their :class:`TraceRecord` objects are built only when someone
iterates the trace.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import add, lt, sub
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One completed unit of work.

    Attributes:
        start / end: simulation timestamps (seconds).
        task: logical task name (kernel, section, or pipeline stage).
        category: coarse grouping (``compute``, ``transfer``, ``host``).
        item: which work item (micro-batch index, section invocation).
        meta: free-form annotations (flops, bytes, device).
    """

    start: float
    end: float
    task: str
    category: str = "compute"
    item: int = 0
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(task, category, starts, ends)``: the columns one
#: :meth:`Trace.extend` call stored; row ``i`` is item ``i``.
_Block = tuple[str, str, array, array]

# Per-task aggregate slots: [count, first start, last end, busy time].
_COUNT, _FIRST, _LAST, _BUSY = range(4)


class Trace:
    """An append-only sequence of trace records with aggregate queries."""

    def __init__(self) -> None:
        self._parts: list[TraceRecord | _Block] = []
        self._tasks: dict[str, list[Any]] = {}
        self._categories: dict[str, float] = {}

    def add(self, record: TraceRecord) -> None:
        start, end = record.start, record.end
        if end < start:
            raise ValueError(
                f"trace record for {record.task!r} ends before it starts")
        self._parts.append(record)
        self._tally(record.task, record.category, 1, start, end,
                    (end - start,))

    def record(self, start: float, end: float, task: str,
               category: str = "compute", item: int = 0,
               **meta: Any) -> TraceRecord:
        """Convenience constructor + append."""
        rec = TraceRecord(start=start, end=end, task=task,
                          category=category, item=item, meta=meta)
        self.add(rec)
        return rec

    def extend(self, task: str, starts: Iterable[float],
               ends: Iterable[float], category: str = "compute") -> None:
        """Append one record per ``(start, end)`` pair, all for ``task``.

        The ``i``-th pair becomes item ``i``. Equivalent to calling
        :meth:`record` once per pair, in order, but stored as two float
        columns: no :class:`TraceRecord` is built until the trace is
        iterated.
        """
        starts = array("d", starts)
        ends = array("d", ends)
        if len(starts) != len(ends):
            raise ValueError(
                f"trace extend for {task!r}: {len(starts)} starts but "
                f"{len(ends)} ends")
        if any(map(lt, ends, starts)):
            raise ValueError(
                f"trace record for {task!r} ends before it starts")
        if starts:
            self._add_block((task, category, starts, ends))

    def _add_block(self, block: _Block) -> None:
        task, category, starts, ends = block
        self._parts.append(block)
        self._tally(task, category, len(starts), min(starts), max(ends),
                    array("d", map(sub, ends, starts)))

    def _tally(self, task: str, category: str, count: int, first: float,
               last: float, durations: Iterable[float]) -> None:
        """Fold ``count`` new rows of ``task`` into the aggregates."""
        stats = self._tasks.get(task)
        if stats is None:
            stats = self._tasks[task] = [0, first, last, 0.0]
        else:
            if first < stats[_FIRST]:
                stats[_FIRST] = first
            if last > stats[_LAST]:
                stats[_LAST] = last
        stats[_COUNT] += count
        # Left-to-right sums, so a block's totals equal record-by-record
        # adds of the same rows.
        stats[_BUSY] = reduce(add, durations, stats[_BUSY])
        self._categories[category] = reduce(
            add, durations, self._categories.get(category, 0.0))

    def __len__(self) -> int:
        return sum(s[_COUNT] for s in self._tasks.values())

    def __iter__(self) -> Iterator[TraceRecord]:
        for part in self._parts:
            if isinstance(part, TraceRecord):
                yield part
                continue
            task, category, starts, ends = part
            for item, (start, end) in enumerate(zip(starts, ends)):
                yield TraceRecord(start, end, task, category, item)

    @property
    def records(self) -> list[TraceRecord]:
        return list(self)

    @property
    def makespan(self) -> float:
        """End of the last record minus start of the first."""
        if not self._tasks:
            return 0.0
        stats = self._tasks.values()
        return (max(s[_LAST] for s in stats)
                - min(s[_FIRST] for s in stats))

    def busy_time_by_task(self) -> dict[str, float]:
        """Summed record durations per task (overlap not collapsed)."""
        return {task: s[_BUSY] for task, s in self._tasks.items()}

    def busy_time_by_category(self) -> dict[str, float]:
        """Summed record durations per category."""
        return dict(self._categories)

    def items_by_task(self) -> dict[str, int]:
        """Completed item count per task."""
        return {task: s[_COUNT] for task, s in self._tasks.items()}

    def task_throughput(self, task: str) -> float:
        """Items per second completed by ``task`` over its active span."""
        stats = self._tasks.get(task)
        if stats is None:
            return 0.0
        span = stats[_LAST] - stats[_FIRST]
        if span <= 0:
            return float("inf")
        return stats[_COUNT] / span

    def filter(self, category: str | None = None,
               task: str | None = None) -> "Trace":
        """A new trace containing only matching records."""
        out = Trace()
        for part in self._parts:
            single = isinstance(part, TraceRecord)
            part_task, part_category = (
                (part.task, part.category) if single else part[:2])
            if category is not None and part_category != category:
                continue
            if task is not None and part_task != task:
                continue
            if single:
                out.add(part)
            else:
                out._add_block(part)
        return out
