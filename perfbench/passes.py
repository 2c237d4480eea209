"""One benchmark pass, run in a fresh interpreter.

``run.py`` starts this script once per repetition, so each pass pays
its own import and set-up and no pass inherits the heap of an earlier
one: in one long-lived interpreter, repeated campaign passes slow down
as the allocator's resident set grows, while fresh interpreters spread
only by host noise. Usage::

    PYTHONPATH=src python3 perfbench/passes.py MODE WORKLOAD SEED WORKDIR [LIMIT]

``MODE`` is ``setup`` (set-up only), ``campaign`` (the untraced
end-to-end pass), ``direct`` (every cell compiled and run straight
through the backends: the oracle campaign cells are checked against),
``traced`` (the campaign with tracing on) or ``layers`` (the direct
pass with every layer timed). The pass prints one JSON object on its
last line of output.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402 — set-up time starts before the imports
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402
from unittest import mock  # noqa: E402

import workloads as W  # noqa: E402
from metrics import MAX_WORKERS  # noqa: E402
from repro import (  # noqa: E402
    Campaign,
    CampaignLane,
    CompileCache,
    ExecutionPolicy,
    ShardedJournal,
    allocation_ratio,
    cell_fingerprint,
)
import repro.cache  # noqa: E402
from repro.common.errors import ReproError  # noqa: E402


def platform_of(backend: Any) -> str:
    """``repro.cerebras.backend`` → ``cerebras``."""
    return type(backend).__module__.split(".")[1]


def cell_row(cell: Any) -> list[Any]:
    """The checked outcome of one campaign cell: ``[status, error type,
    tokens/s, achieved FLOPs, compute allocation, memory allocation,
    memory utilization]``."""
    if cell.failed:
        return ["failed", cell.failure.type if cell.failure else None]
    return report_row(cell.compiled, cell.run)


def report_row(compiled: Any, run: Any) -> list[Any]:
    return ["ok", None,
            run.tokens_per_second, run.achieved_flops,
            allocation_ratio(compiled),
            allocation_ratio(compiled, kind="memory"),
            compiled.shared_memory.utilization]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped
    child's (a process-dispatch worker; zero under thread dispatch).

    Not their sum: which worker the largest cells land on varies from
    pass to pass, so the largest worker's peak swings between about 45
    and 140 MB on cache-rerun, and a sum would flip the median with
    it; the parent, which holds every result, stays near 142 MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


# ----------------------------------------------------------------------
# Campaign passes
# ----------------------------------------------------------------------
def campaign(workload: W.Workload, journal: Path, *,
             cache: Path | None = None,
             trace: bool = False) -> dict[str, Any]:
    """Run the workload's grid once through the public Campaign API.

    A campaign that raises does not abort the pass: the cells it
    returned through ``on_cell`` before raising are kept and the rest
    count as lost.
    """
    policy = ExecutionPolicy(
        max_workers=MAX_WORKERS, dispatch=workload.dispatch,
        journal=ShardedJournal(journal), trace=trace,
        cache=str(cache) if cache is not None else None)
    lanes = [CampaignLane(lane.backend, lane.specs, label=lane.label)
             for lane in workload.lanes]
    seen: dict[str, list[Any]] = {}

    def on_cell(label: str, cell: Any) -> None:
        seen[f"{label}::{cell.spec.label}"] = cell_row(cell)

    raised = None
    result = None
    start = time.perf_counter()
    try:
        result = Campaign(lanes, policy).run(on_cell=on_cell)
    except Exception as exc:  # noqa: BLE001 — recorded, cells count lost
        raised = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    out: dict[str, Any] = {"seconds": seconds, "raised": raised,
                           "kills": 0, "rows": seen}
    if result is not None:
        out["rows"] = {f"{label}::{cell.spec.label}": cell_row(cell)
                       for label in result.labels
                       for cell in result.cells[label]}
        sup = result.supervision
        if sup is not None:
            out["kills"] = (sup.stale_kills + sup.deadline_kills
                            + sup.worker_crashes + sup.pool_rebuilds)
        if result.observability is not None:
            obs = result.observability
            out["observability"] = {
                name: sum(getattr(row, name) for row in obs)
                for name in ("cache_hits", "cache_misses", "stage_hits",
                             "stage_misses")}
    elif workload.dispatch == "process":
        # The supervisor raises only once its pool rebuilds are spent.
        out["kills"] = policy.max_pool_rebuilds + 1
    return out


def campaign_pass(workload: W.Workload, make: Callable[[], W.Workload],
                  work: Path, trace: bool = False) -> dict[str, Any]:
    """The end-to-end pass: a first campaign of ``workload``, then a
    second campaign of the same grid in the same process — the warm
    pass reading the first one's cache on cached workloads, a plain
    repeat elsewhere.

    ``make`` regenerates the grid for the second campaign, as a new
    command would: configs memoize their digests, so reusing one grid's
    objects would hand the second campaign work the first one did.
    """
    cache = work / "cache" if workload.cached else None
    first = campaign(workload, work / "journal", cache=cache, trace=trace)
    stored = dir_bytes(work)
    again = campaign(make(), work / "journal-again", cache=cache,
                     trace=trace)
    return {"first": first, "again": again, "stored_bytes": stored}


# ----------------------------------------------------------------------
# Direct pass: every layer called straight, and timed
# ----------------------------------------------------------------------
class Timers:
    """Summed seconds and counts per metric name."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value

    def timed(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(name, time.perf_counter() - start)


def replay_analytics(platform: str, compiled: Any, run: Any) -> None:
    """The per-task ``Trace.task_throughput`` queries the runtimes make
    on their own traces, replayed on the returned trace."""
    trace = run.trace
    if trace is None:
        return
    if platform == "cerebras":
        for task in compiled.phases[0].tasks:
            trace.task_throughput(task.name.split("/", 1)[-1])
    elif platform == "graphcore":
        for stage in compiled.meta["stages"]:
            trace.task_throughput(stage.name)


def direct_pass(workload: W.Workload, timers: Timers,
                cache: CompileCache | None = None) -> dict[str, list[Any]]:
    """Compile and run every cell without the campaign harness.

    Compiles fold the stages ``compile_pipeline()`` returns, each
    stage timed on its own; no memo is involved. With ``cache``, each
    result is also stored in the cache and read back
    (:func:`store_and_reload`).
    """
    rows: dict[str, list[Any]] = {}
    for lane in workload.lanes:
        backend = lane.backend
        platform = platform_of(backend)
        for spec in lane.specs:
            key = f"{lane.label}::{spec.label}"
            artifact = None
            try:
                for stage in backend.compile_pipeline(
                        spec.model, spec.train, **spec.options):
                    artifact = timers.timed(
                        f"compile.{platform}.{stage.name}_s",
                        stage.compute, artifact)
                compiled = artifact
                run = timers.timed(f"run.{platform}_s", backend.run,
                                   compiled)
            except ReproError as exc:
                rows[key] = ["failed", type(exc).__name__]
                continue
            # The runtime made these queries inside run(); their
            # replayed time is later moved from run to trace.
            timers.timed(f"trace.analytics.{platform}_s",
                         replay_analytics, platform, compiled, run)
            timers.add(f"run.{platform}.trace_records",
                       len(run.trace) if run.trace is not None else 0)
            rows[key] = report_row(compiled, run)
            if cache is not None:
                store_and_reload(cache, timers, backend, spec, compiled,
                                 run)
    return rows


class TimedPickle:
    """Stands in for the ``pickle`` module inside ``repro.cache`` so the
    pickling a cache call does is timed as its own layer."""

    def __init__(self, timers: Timers) -> None:
        self.timers = timers

    def __getattr__(self, name: str) -> Any:
        return getattr(pickle, name)

    def dumps(self, obj: Any) -> bytes:
        blob = self.timers.timed("pickle.dumps_s", pickle.dumps, obj)
        self.timers.add("pickle.bytes", len(blob))
        self.timers.add("pickle.cells", 1)
        return blob

    def loads(self, blob: bytes) -> Any:
        return self.timers.timed("pickle.loads_s", pickle.loads, blob)


def store_and_reload(cache: CompileCache, timers: Timers, backend: Any,
                     spec: Any, compiled: Any, run: Any) -> None:
    """Time one result through the compile cache, its pickling apart;
    the copy read back must equal the original."""
    fingerprint = cell_fingerprint(backend, spec.model, spec.train,
                                   spec.options)
    with mock.patch.object(repro.cache, "pickle", TimedPickle(timers)):
        timers.timed("cache.store_s", cache.store, fingerprint, compiled,
                     run)
        entry = timers.timed("cache.lookup_s", cache.lookup, fingerprint)
    if entry is None or report_row(entry.compiled, entry.run) != \
            report_row(compiled, run):
        raise RuntimeError(f"cache round trip changed {spec.label}")


def traced_pass(workload: W.Workload, make: Callable[[], W.Workload],
                work: Path) -> dict[str, Any]:
    """The campaign with tracing on — and on cached workloads a traced
    warm campaign reading its cache — for the counters the trace
    rolls up (stage memo and cache hits)."""
    cache = work / "cache" if workload.cached else None
    campaigns = {"traced": campaign(workload, work / "traced", cache=cache,
                                    trace=True)}
    if workload.cached:
        campaigns["traced warm"] = campaign(make(), work / "traced-warm",
                                            cache=cache, trace=True)
    return {"campaigns": campaigns}


def layers_pass(workload: W.Workload, work: Path) -> dict[str, Any]:
    """Every layer timed directly; on cached workloads each result also
    goes through a cache of its own."""
    timers = Timers()
    probe = CompileCache(work / "probe-cache") if workload.cached else None
    rows = direct_pass(workload, timers, probe)
    return {"direct": rows, "timers": timers.values,
            "dispatch": workload.dispatch}


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    limit = int(argv[4]) if len(argv) > 4 else None

    def make() -> W.Workload:
        workload = W.generate(name, seed)
        return workload.limited(limit) if limit is not None else workload

    workload = make()
    setup_s = time.perf_counter() - START
    work.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "setup":
            out = {}
        elif mode == "campaign":
            out = campaign_pass(workload, make, work)
            out["peak_rss_mb"] = peak_rss_mb()
        elif mode == "direct":
            out = {"direct": direct_pass(workload, Timers())}
        elif mode == "traced":
            out = traced_pass(workload, make, work)
        elif mode == "layers":
            out = layers_pass(workload, work)
        else:
            raise SystemExit(f"unknown pass mode {mode!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out["setup_s"] = setup_s
    out["cells"] = workload.cells
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
