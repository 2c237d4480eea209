"""Metric definitions and how each is computed from pass results.

``BENCHMARK.json`` lists the same metrics; ``tests/test_perfbench.py``
checks that the two agree. Each per-layer metric names the end-to-end
metric it should move and the workloads it should and should not move
it on, so a change to one layer can be checked against its prediction.
Pure Python: the orchestrator imports this without importing ``repro``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

PAPER_SUITE = "paper-suite"
CACHE_RERUN = "cache-rerun"
WORKLOADS = (PAPER_SUITE, CACHE_RERUN)

#: Campaign workers on every workload: the benchmark host has two cores.
MAX_WORKERS = 2


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    better: str = "lower"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    on: str
    not_on: str


END_TO_END = (
    # Fresh-interpreter import, backend construction, grid generation.
    EndToEnd("setup_s", "s", 0.25),
    # Wall seconds of the first campaign (the cold pass on cache-rerun).
    EndToEnd("campaign_s", "s", 0.25),
    # Wall seconds of a second campaign of the same grid in the same
    # process: the warm pass reading the first one's cache on
    # cache-rerun, a plain repeat on paper-suite.
    EndToEnd("rerun_s", "s", 0.25),
    # Peak RSS of the pass process or its largest worker, the larger.
    EndToEnd("peak_rss_mb", "MB", 0.15),
    # What the first campaign persisted: cache entries, journal shards.
    EndToEnd("cache_mb", "MB", 0.1),
)

# Platforms and the stages compile_pipeline() returns for each.
STAGES = {
    "cerebras": ("graph", "partition", "placement", "report"),
    "sambanova": ("graph", "partition", "report"),
    "graphcore": ("partition", "placement", "report"),
    "gpu": ("partition", "report"),
}

# Where each layer shows: the cold campaigns compile and run every
# cell; the warm pass of cache-rerun only reads the cache back, and
# the second campaign of paper-suite repeats the first.
_COLD = f"{PAPER_SUITE}, {CACHE_RERUN} (cold)"
_WARM = f"{CACHE_RERUN} rerun_s"
PER_LAYER = (
    *(PerLayer(f"compile.{p}.{s}_s", "s", "lower", "campaign_s", _COLD,
               _WARM)
      for p, stages in STAGES.items() for s in stages),
    *(PerLayer(f"run.{p}_s", "s", "lower", "campaign_s, peak_rss_mb",
               _COLD, _WARM) for p in STAGES),
    *(PerLayer(f"run.{p}.trace_records", "count", "lower",
               "campaign_s, peak_rss_mb", _COLD, _WARM)
      for p in STAGES),
    PerLayer("trace.analytics_s", "s", "lower", "campaign_s", _COLD, _WARM),
    PerLayer("pickle.cell_kib", "KiB", "lower",
             "campaign_s, rerun_s, cache_mb, peak_rss_mb", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("pickle.dumps_s", "s", "lower", "campaign_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("pickle.loads_s", "s", "lower", "rerun_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("cache.store_s", "s", "lower", "campaign_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("cache.lookup_s", "s", "lower", "rerun_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("cache.hit_ratio", "ratio", "higher", "rerun_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("cache.lookups", "count", "lower", "rerun_s", CACHE_RERUN,
             PAPER_SUITE),
    PerLayer("stage_memo.hit_ratio", "ratio", "higher", "campaign_s",
             _COLD, _WARM),
    PerLayer("stage_memo.lookups", "count", "lower", "campaign_s", _COLD,
             _WARM),
    PerLayer("harness.overhead_s", "s", "lower", "campaign_s", PAPER_SUITE,
             "-"),
    PerLayer("reconcile.unexplained_s", "s", "lower", "campaign_s",
             PAPER_SUITE, "-"),
    PerLayer("trace.overhead_s", "s", "lower", "-", "-", "-"),
    PerLayer("supervisor.kills", "count", "lower",
             "failed_cells_share, rerun_s", CACHE_RERUN,
             f"{PAPER_SUITE} (always 0)"),
)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, as
    ``(percentile, value)``; ``None`` with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10  # samples at or below the reported value
    return int(100 * rank / n), sorted(values)[rank - 1]


def end_to_end(passes: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric, one per campaign pass."""
    return {
        "setup_s": [p["setup_s"] for p in passes],
        "campaign_s": [p["first"]["seconds"] for p in passes],
        "rerun_s": [p["again"]["seconds"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "cache_mb": [p["stored_bytes"] / 2 ** 20 for p in passes],
    }


def _share(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(plain: dict[str, Any], traced: dict[str, Any],
              layers: dict[str, Any]) -> dict[str, float]:
    """Every per-layer metric from one round of a ``campaign``, a
    ``traced`` and a ``layers`` pass, each in a fresh interpreter.

    Times are self times summed over cells: the run layer excludes the
    trace queries the runtime makes inside ``run()`` (timed apart as
    ``trace.analytics_s``), and the cache layer excludes the pickling
    it does (timed apart as ``pickle.*``). Layers a workload's campaign
    does not reach read 0.
    """
    t = layers["timers"]
    get = t.get
    out: dict[str, float] = {}
    for platform, stages in STAGES.items():
        for stage in stages:
            name = f"compile.{platform}.{stage}_s"
            out[name] = get(name, 0.0)
    for name in t:  # a stage this list does not know yet still shows
        if name.startswith("compile.") and name not in out:
            out[name] = t[name]
    analytics = 0.0
    for platform in STAGES:
        spent = get(f"trace.analytics.{platform}_s", 0.0)
        analytics += spent
        out[f"run.{platform}_s"] = get(f"run.{platform}_s", 0.0) - spent
        out[f"run.{platform}.trace_records"] = get(
            f"run.{platform}.trace_records", 0.0)
    out["trace.analytics_s"] = analytics

    cells = get("pickle.cells", 0.0)
    dumps, loads = get("pickle.dumps_s", 0.0), get("pickle.loads_s", 0.0)
    store, lookup = get("cache.store_s", 0.0), get("cache.lookup_s", 0.0)
    out["pickle.cell_kib"] = (get("pickle.bytes", 0.0) / cells / 1024
                              if cells else 0.0)
    out["pickle.dumps_s"], out["pickle.loads_s"] = dumps, loads
    # Each cache call does exactly one dumps (store) or loads (lookup).
    out["cache.store_s"] = store - dumps
    out["cache.lookup_s"] = lookup - loads

    campaigns = traced["campaigns"]
    warm = campaigns.get("traced warm", {}).get("observability", {})
    hits, misses = warm.get("cache_hits", 0), warm.get("cache_misses", 0)
    out["cache.lookups"] = float(hits + misses)
    out["cache.hit_ratio"] = _share(hits, misses)
    cold = campaigns["traced"].get("observability", {})
    hits, misses = cold.get("stage_hits", 0), cold.get("stage_misses", 0)
    out["stage_memo.lookups"] = float(hits + misses)
    out["stage_memo.hit_ratio"] = _share(hits, misses)

    # Accounting against the untraced campaign. Under process
    # dispatch the layers run in MAX_WORKERS processes at once. The
    # direct compiles run without a StageMemo, so the harness overhead
    # is net of what the memo saves.
    width = MAX_WORKERS if layers["dispatch"] == "process" else 1
    campaign_s = plain["first"]["seconds"]
    direct = sum(v for k, v in t.items()
                 if k.startswith("compile.")
                 or (k.startswith("run.") and k.endswith("_s")))
    out["harness.overhead_s"] = campaign_s - direct / width
    # On a cached first pass each result is also stored in the cache
    # (one dumps, inside cache.store_s) and pickled across the worker
    # pipe (one more dumps and a loads); those are timed layers too.
    timed_in_harness = store + dumps + loads
    out["reconcile.unexplained_s"] = (out["harness.overhead_s"]
                                      - timed_in_harness / width)
    out["trace.overhead_s"] = campaigns["traced"]["seconds"] - campaign_s
    out["supervisor.kills"] = float(sum(
        c["kills"] for c in (plain["first"], plain["again"],
                             *campaigns.values())))
    return out
