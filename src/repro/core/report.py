"""Textual benchmark reports: tables and insight summaries.

The benchmark harness and examples use these helpers to print results in
the same layout as the paper's tables, plus generated "Insight" lines
mirroring the paper's per-platform guidance boxes.

The campaign telemetry tables (infrastructure health, scheduling,
supervision, observability) are all defined once as :class:`Table`
entries in :data:`REPORT_TABLES`: each :class:`Column` carries both the
rendered heading and the stable serialized key, so the ASCII report and
``campaign_to_dict`` can never drift apart; callers read a table's
``headers`` and ``row`` from the registry. The grid and Tier-1 tables
(``GRID_HEADERS``/``sweep_cell_row``, ``TIER1_HEADERS``/
``tier1_summary_row``) render result cells, not telemetry, and sit
outside it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.units import fmt_flops, fmt_rate
from repro.core.tier1 import Tier1Result


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an ASCII table with right-padded columns."""
    cells = [[str(h) for h in headers]]
    cells.extend([str(value) for value in row] for row in rows)
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return " | ".join(value.ljust(width)
                          for value, width in zip(row, widths))

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append("-+-".join("-" * width for width in widths))
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out)


@dataclass(frozen=True)
class Column:
    """One stats-table column.

    ``key`` is the stable serialized name (``None`` for display-only
    columns derived from another serialized field, such as the breaker
    state pulled out of the breaker metrics dict); ``header`` is the
    rendered heading (``None`` for serialize-only fields that never
    appear in the ASCII table). ``value`` extracts the raw
    JSON-friendly value from a duck-typed stats object; ``display``
    formats it for rendering and defaults to ``value``.
    """

    key: str | None
    header: str | None
    value: Callable[[Any], Any]
    display: Callable[[Any], object] | None = None


@dataclass(frozen=True)
class Table:
    """A registered stats table: one definition for render + serialize."""

    name: str
    title: str
    columns: tuple[Column, ...]

    @property
    def headers(self) -> list[str]:
        """Rendered headings, in column order."""
        return [c.header for c in self.columns if c.header is not None]

    def row(self, stats: Any) -> list[object]:
        """One display row from a duck-typed stats object."""
        return [(c.display or c.value)(stats)
                for c in self.columns if c.header is not None]

    def to_dict(self, stats: Any) -> dict[str, Any]:
        """The stats object flattened under the stable serialized keys."""
        return {c.key: c.value(stats)
                for c in self.columns if c.key is not None}


def _col(key: str | None, header: str | None,
         value: Callable[[Any], Any] | None = None,
         display: Callable[[Any], object] | None = None) -> Column:
    if value is None:
        if key is None:
            raise ValueError("display-only columns need an explicit value")
        value = operator.attrgetter(key)
    return Column(key=key, header=header, value=value, display=display)


def _breaker(stats: Any) -> dict[str, Any]:
    return stats.breaker or {}


REPORT_TABLES: dict[str, Table] = {
    table.name: table
    for table in (
        Table("infrastructure", "Infrastructure health", (
            _col("backend", "backend"),
            _col("cells", "cells"),
            _col("ok", "ok"),
            _col("failed", "failed"),
            _col("gated", "gated"),
            _col("resumed", "resumed"),
            _col("executed", None),
            _col("attempts", "attempts"),
            _col("retries", "retries"),
            _col("elapsed_seconds", None),
            _col("breaker", None, value=lambda s: dict(s.breaker)),
            _col(None, "breaker",
                 value=lambda s: _breaker(s).get("state", "-")),
            _col(None, "trips",
                 value=lambda s: _breaker(s).get("trip_count", 0)),
            _col(None, "open (s)", value=lambda s:
                 f"{_breaker(s).get('open_seconds', 0.0):.1f}"),
            _col("abandoned_watchdogs", "abandoned wd",
                 value=lambda s: getattr(s, "abandoned_watchdogs", 0)),
        )),
        Table("scheduling", "Scheduling", (
            _col("schedule", "schedule"),
            _col("predictor", "predictor"),
            _col("cells", "cells"),
            _col("predicted_seconds", "predicted (s)",
                 display=lambda s: f"{s.predicted_seconds:.1f}"),
            _col("actual_seconds", "actual (s)",
                 display=lambda s: f"{s.actual_seconds:.1f}"),
            _col("mean_abs_error", "MAE (s)",
                 display=lambda s: f"{s.mean_abs_error:.2f}"),
            _col("mape", "MAPE", display=lambda s:
                 f"{s.mape * 100:.1f}%" if s.mape is not None else "-"),
            _col("makespan_seconds", "makespan (s)",
                 display=lambda s: f"{s.makespan_seconds:.1f}"),
            _col("max_workers", "workers"),
            _col("dispatch", "dispatch",
                 value=lambda s: getattr(s, "dispatch", "thread")),
        )),
        Table("supervision", "Supervision", (
            _col("deadline_kills", "deadline kills"),
            _col("stale_kills", "stale kills"),
            _col("worker_crashes", "worker crashes"),
            _col("pool_rebuilds", "pool rebuilds"),
            _col("quarantined", "quarantined",
                 value=lambda s: list(s.quarantined),
                 display=lambda s: ", ".join(s.quarantined) or "-"),
            _col("corrupt_lines", "corrupt lines"),
            _col("heartbeat_interval", "heartbeat (s)",
                 display=lambda s: f"{s.heartbeat_interval:g}"),
            _col("grace_factor", "grace",
                 display=lambda s: f"{s.grace_factor:g}"),
            _col("quarantine_after", None),
            _col("max_pool_rebuilds", None),
        )),
        Table("observability", "Observability", (
            _col("lane", "lane"),
            _col("events", "events"),
            _col("cells", "cells"),
            _col("compile_seconds", "compile (s)",
                 display=lambda s: f"{s.compile_seconds:.2f}"),
            _col("run_seconds", "run (s)",
                 display=lambda s: f"{s.run_seconds:.2f}"),
            _col("retries", "retries"),
            _col("gated", "gated"),
            _col("sigkills", "sigkills"),
            _col("worker_crashes", "crashes"),
            _col("isolations", "isolated"),
            _col("quarantines", "quarantined"),
            _col("cache_hits", "cache hits",
                 value=lambda s: getattr(s, "cache_hits", 0)),
            _col("cache_misses", "cache misses",
                 value=lambda s: getattr(s, "cache_misses", 0)),
            _col("cache_bypasses", "cache bypassed",
                 value=lambda s: getattr(s, "cache_bypasses", 0)),
        )),
    )
}


@dataclass
class BenchmarkReport:
    """Accumulates titled tables and insight lines, renders as text."""

    title: str
    sections: list[str] = field(default_factory=list)

    def add_table(self, title: str, headers: Sequence[str],
                  rows: Sequence[Sequence[object]]) -> None:
        self.sections.append(render_table(headers, rows, title=title))

    def add_insight(self, text: str) -> None:
        self.sections.append(f"Insight: {text}")

    def add_text(self, text: str) -> None:
        self.sections.append(text)

    def add_stats_table(self, name: str, stats: Sequence[object],
                        title: str | None = None) -> None:
        """One row per stats object, from the :data:`REPORT_TABLES`
        definition registered under ``name``."""
        table = REPORT_TABLES[name]
        self.add_table(title or table.title, table.headers,
                       [table.row(s) for s in stats])

    def add_infrastructure_health(self, stats: Sequence[object],
                                  title: str = "Infrastructure health",
                                  ) -> None:
        """One row per backend lane: outcome counts plus the lane's
        circuit-breaker trip count and accumulated open time (each
        ``stats`` item is duck-typed like
        :class:`~repro.campaign.BackendStats`)."""
        self.add_stats_table("infrastructure", stats, title=title)

    def add_scheduling(self, stats: Sequence[object],
                       title: str = "Scheduling") -> None:
        """One row per schedule run: dispatch policy, predictor, and
        predicted-vs-actual cost accuracy plus simulated makespan (each
        ``stats`` item is duck-typed like
        :class:`~repro.campaign.SchedulerStats`)."""
        self.add_stats_table("scheduling", stats, title=title)

    def add_supervision(self, stats: object,
                        title: str = "Supervision") -> None:
        """Worker-supervision telemetry for a process-dispatched run:
        kills, pool rebuilds, and quarantined cells (``stats`` is
        duck-typed like :class:`~repro.campaign.SupervisionStats`)."""
        self.add_stats_table("supervision", [stats], title=title)

    def add_observability(self, stats: Sequence[object],
                          title: str = "Observability") -> None:
        """One row per lane rolled up from the campaign's trace (each
        ``stats`` item is duck-typed like
        :class:`~repro.observe.ObservabilityStats`)."""
        self.add_stats_table("observability", stats, title=title)

    def render(self) -> str:
        banner = "=" * max(len(self.title), 8)
        return "\n\n".join([f"{banner}\n{self.title}\n{banner}",
                            *self.sections])

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def tier1_summary_row(result: Tier1Result) -> list[str]:
    """A standard summary row for one Tier-1 result."""
    return [
        result.platform,
        result.model.name,
        f"{result.compute_allocation * 100:.1f}%",
        f"{result.load_imbalance:.3f}",
        fmt_flops(result.achieved_flops),
        f"{result.compute_efficiency * 100:.1f}%",
        f"{result.intensity:.1f}",
        result.roofline.bound,
        fmt_rate(result.tokens_per_second),
    ]


TIER1_HEADERS = [
    "platform", "model", "alloc", "LI", "achieved", "efficiency",
    "AI (F/B)", "bound", "throughput",
]

GRID_HEADERS = ["cell", "status", "attempts", "resumed", "tokens/s"]


def sweep_cell_row(cell: object) -> list[object]:
    """A standard grid-table row for one sweep cell.

    Duck-typed over :class:`~repro.workloads.sweeps.SweepCell` so the
    campaign package can render rows without importing the sweeps
    module (which imports the campaign engine).
    """
    if cell.failed:
        status = (f"Fail ({cell.failure.type})"
                  if cell.failure is not None else "Fail")
        rate = "-"
    else:
        status = "ok"
        if cell.run is not None:
            rate = f"{cell.run.tokens_per_second:,.0f}"
        elif cell.summary:
            rate = f"{cell.summary.get('tokens_per_second', 0):,.0f}"
        else:
            rate = "-"
    return [cell.spec.label, status, cell.attempts,
            "yes" if cell.resumed else "no", rate]


def describe_tier1(result: Tier1Result) -> str:
    """An English summary mirroring the paper's Insight style."""
    lines = [
        f"{result.platform} on {result.model.name}: "
        f"{result.compute_allocation * 100:.1f}% of compute units "
        f"allocated, load imbalance {result.load_imbalance:.2f}.",
        f"Achieved {fmt_flops(result.achieved_flops)} "
        f"({result.compute_efficiency * 100:.1f}% of peak); the workload "
        f"is {result.roofline.bound}-bound at "
        f"{result.intensity:.1f} FLOPs/byte.",
    ]
    shared = result.shared_memory
    lines.append(
        f"Shared-memory tier: {shared.utilization * 100:.1f}% used "
        f"({shared.configuration_bytes / 1e9:.2f} GB configuration, "
        f"{shared.training_bytes / 1e9:.2f} GB training)."
    )
    return "\n".join(lines)
