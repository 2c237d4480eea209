"""Event queue, simulator core, and capacity-limited resources.

Deterministic by construction: events at equal timestamps fire in
scheduling order (a monotone sequence number breaks ties), so repeated
runs of the same workload produce identical traces.

The event loop is the hot path of the IPU and RDU runtimes (the WSE
pipeline is computed in closed form, see :mod:`repro.cerebras.runtime`),
so :meth:`Simulator.run` dispatches from locals (the heap,
``heappop``, the sequence counter) instead of going through
:meth:`Simulator.step` and per-event attribute lookups, and
:class:`Resource` wakeups re-use the stored argument tuple rather than
re-packing it through ``schedule``'s ``*args``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable

from repro.common.errors import SimulationError

Callback = Callable[..., None]


class Simulator:
    """A heap-based discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(0.0, start_stage, 0)
        sim.run()
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callback, tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self._events_processed = 0

    def schedule(self, delay: float, callback: Callback,
                 *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), callback, args))

    def schedule_at(self, when: float, callback: Callback,
                    *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self.now}")
        heapq.heappush(
            self._heap, (when, next(self._seq), callback, args))

    def _wake(self, callback: Callback, args: tuple[Any, ...]) -> None:
        """Schedule a stored ``(callback, args)`` pair at the current time.

        Equivalent to ``schedule(0.0, callback, *args)`` but without
        unpacking and re-packing the argument tuple — the
        :class:`Resource` grant path calls this for every wakeup.
        """
        heapq.heappush(self._heap, (self.now, next(self._seq), callback,
                                    args))

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def step(self) -> bool:
        """Execute the next event; returns ``False`` when the queue is empty."""
        if not self._heap:
            return False
        when, _seq, callback, args = heapq.heappop(self._heap)
        self.now = when
        self._events_processed += 1
        callback(*args)
        return True

    def run(self, until: float | None = None,
            max_events: int = 10_000_000) -> float:
        """Run until the queue drains (or ``until``); returns final time.

        ``max_events`` guards against runaway event loops; exceeding it is
        a :class:`SimulationError` because a well-formed workload always
        terminates.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                when, _seq, callback, args = pop(heap)
                self.now = when
                executed += 1
                callback(*args)
                if executed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; "
                        "likely a scheduling loop"
                    )
        finally:
            # An event counts even when its callback (or the cap) raised.
            self._events_processed += executed
        return self.now


class Resource:
    """A capacity-limited resource with FIFO waiters.

    Models contention: a pipeline stage, a DMA engine, or a memory port.
    ``request`` either grants immediately or enqueues the continuation;
    ``release`` hands capacity to the next waiter.
    """

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity <= 0:
            raise SimulationError(f"resource capacity must be > 0: {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[tuple[Callback, tuple[Any, ...]]] = deque()
        self.busy_time = 0.0
        self._busy_since: float | None = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self, callback: Callback, *args: Any) -> None:
        """Acquire one capacity unit; fires ``callback`` when granted."""
        if self._in_use < self.capacity:
            self._grant()
            self._sim._wake(callback, args)
        else:
            self._waiters.append((callback, args))

    def release(self) -> None:
        """Return one capacity unit, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(
                f"release of {self.name!r} without matching request")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self._sim.now - self._busy_since
            self._busy_since = None
        if self._waiters:
            callback, args = self._waiters.popleft()
            self._grant()
            self._sim._wake(callback, args)

    def _grant(self) -> None:
        if self._in_use == 0:
            self._busy_since = self._sim.now
        self._in_use += 1

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` during which the resource was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self._sim.now - self._busy_since
        return busy / horizon if horizon > 0 else 0.0
