"""Deterministic metrics registry and per-lane trace aggregation.

:class:`MetricsRegistry` is a tiny in-process metrics store — counters,
gauges, and histograms keyed by series name. Histograms keep exact
count/sum/min/max plus a bounded *reservoir sample* whose eviction is
driven by a seeded RNG derived from the series name (CRC32, not the
per-process-salted ``hash()``), so the same observation stream always
produces the same sample: reports stay reproducible run to run.

:func:`aggregate_observability` rolls a campaign's trace events up into
one :class:`ObservabilityStats` row per lane — the "Observability"
report table and the ``"observability"`` block of ``campaign_to_dict``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:
    from .trace import TraceEvent

#: Default reservoir size for histogram samples.
RESERVOIR_SIZE = 32


@dataclass
class HistogramSummary:
    """Exact aggregates plus a deterministic sample of observations."""

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    sample: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "sample": list(self.sample),
        }


class MetricsRegistry:
    """Counters, gauges, and histograms with deterministic state.

    ``seed`` feeds the per-series reservoir RNGs; two registries with
    the same seed observing the same streams hold identical state.
    """

    def __init__(self, seed: int = 0,
                 reservoir_size: int = RESERVOIR_SIZE) -> None:
        if reservoir_size <= 0:
            raise ValueError(
                f"reservoir_size must be positive, got {reservoir_size}")
        self.seed = seed
        self.reservoir_size = reservoir_size
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}
        self._rngs: dict[str, random.Random] = {}
        self._seen: dict[str, int] = {}

    def _rng(self, name: str) -> random.Random:
        rng = self._rngs.get(name)
        if rng is None:
            rng = random.Random(
                self.seed ^ zlib.crc32(name.encode("utf-8")))
            self._rngs[name] = rng
        return rng

    def count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = HistogramSummary(minimum=value, maximum=value)
            self._histograms[name] = hist
        hist.count += 1
        hist.total += value
        hist.minimum = min(hist.minimum, value)
        hist.maximum = max(hist.maximum, value)
        seen = self._seen.get(name, 0) + 1
        self._seen[name] = seen
        if len(hist.sample) < self.reservoir_size:
            hist.sample.append(value)
        else:
            slot = self._rng(name).randrange(seen)
            if slot < self.reservoir_size:
                hist.sample[slot] = value

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> HistogramSummary | None:
        return self._histograms.get(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }


@dataclass(frozen=True)
class ObservabilityStats:
    """Per-lane rollup of a campaign's trace, for the report table.

    The field names are the stable serialized keys — they appear
    verbatim in ``campaign_to_dict(...)["observability"]``.
    """

    lane: str
    events: int = 0
    cells: int = 0
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    retries: int = 0
    gated: int = 0
    sigkills: int = 0
    worker_crashes: int = 0
    isolations: int = 0
    quarantines: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    # Always 0 (compile stages are not memoized), neither shown nor
    # serialized: kept because the perfbench harness still reads them.
    stage_hits: int = 0
    stage_misses: int = 0


def aggregate_observability(
        events: Iterable["TraceEvent"],
        labels: Sequence[str],
        registry: MetricsRegistry | None = None,
) -> list[ObservabilityStats]:
    """Roll trace events up into one stats row per campaign lane.

    Events attribute to a lane when their cell key starts with
    ``"<label>::"`` (the campaign's key convention); lane-less events
    (pool rebuilds, resume markers without a lane prefix) are dropped
    from the per-lane view. When a ``registry`` is given, the same
    rollup is also folded into it (``<lane>.<metric>`` counters and
    per-phase duration histograms) so downstream tooling sees one
    consistent store.
    """
    rows: dict[str, dict[str, float]] = {
        label: {"events": 0, "cells": 0, "compile_seconds": 0.0,
                "run_seconds": 0.0, "retries": 0, "gated": 0,
                "sigkills": 0, "worker_crashes": 0, "isolations": 0,
                "quarantines": 0, "cache_hits": 0, "cache_misses": 0,
                "cache_bypasses": 0}
        for label in labels
    }
    prefixes = {label: f"{label}::" for label in labels}
    for event in events:
        lane = None
        for label, prefix in prefixes.items():
            if event.key.startswith(prefix):
                lane = label
                break
        if lane is None:
            continue
        row = rows[lane]
        row["events"] += 1
        if event.name == "cell":
            row["cells"] += 1
        elif event.name == "compile":
            row["compile_seconds"] += event.duration
            if registry is not None:
                registry.observe(f"{lane}.compile_seconds",
                                 event.duration)
        elif event.name == "run":
            row["run_seconds"] += event.duration
            if registry is not None:
                registry.observe(f"{lane}.run_seconds", event.duration)
        elif event.name == "retry":
            row["retries"] += 1
        elif event.name == "gate":
            row["gated"] += 1
        elif event.name == "sigkill":
            row["sigkills"] += 1
        elif event.name == "worker-crash":
            row["worker_crashes"] += 1
        elif event.name == "isolate":
            row["isolations"] += 1
        elif event.name == "quarantine":
            row["quarantines"] += 1
        elif event.name == "cache":
            # status carries the cache verdict: hit / miss / bypass.
            if event.status == "hit":
                row["cache_hits"] += 1
            elif event.status == "miss":
                row["cache_misses"] += 1
            elif event.status == "bypass":
                row["cache_bypasses"] += 1
    out: list[ObservabilityStats] = []
    for label in labels:
        row = rows[label]
        stats = ObservabilityStats(
            lane=label,
            events=int(row["events"]),
            cells=int(row["cells"]),
            compile_seconds=row["compile_seconds"],
            run_seconds=row["run_seconds"],
            retries=int(row["retries"]),
            gated=int(row["gated"]),
            sigkills=int(row["sigkills"]),
            worker_crashes=int(row["worker_crashes"]),
            isolations=int(row["isolations"]),
            quarantines=int(row["quarantines"]),
            cache_hits=int(row["cache_hits"]),
            cache_misses=int(row["cache_misses"]),
            cache_bypasses=int(row["cache_bypasses"]),
        )
        if registry is not None:
            registry.count(f"{label}.events", stats.events)
            registry.count(f"{label}.cells", stats.cells)
            registry.count(f"{label}.retries", stats.retries)
            registry.count(f"{label}.sigkills", stats.sigkills)
            registry.count(f"{label}.cache_hits", stats.cache_hits)
            registry.count(f"{label}.cache_misses", stats.cache_misses)
        out.append(stats)
    return out
