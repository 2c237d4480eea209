"""Content-addressed compile/result cache for warm campaign re-runs.

DABench-LLM's core cost observation is that on dataflow accelerators
*compilation* — placement, section mapping, tile allocation — dominates
end-to-end benchmarking time, and grids get re-swept constantly as
configurations iterate. This module makes a re-run of an unchanged grid
nearly free: every deterministic cell is keyed by a canonical
*fingerprint* of everything its result depends on, and finished compile
and run reports are stored under that fingerprint in a shared cache
directory.

Fingerprints use the same ``sort_keys`` JSON canonicalization as the
journal: the backend's platform class and hardware
:class:`~repro.hardware.specs.SystemSpec`, the full
:class:`~repro.models.config.ModelConfig` and
:class:`~repro.models.config.TrainConfig` (precision policy included),
the cell's backend options, whether the cell measures, and the cache
schema version are serialized canonically and hashed with SHA-256 (the
model and training configurations enter as their memoized content
digests — serialized once per config object, not once per cell).
Anything that could change the cell's result changes the key; a stale
entry can only ever *miss*, never lie.

Concurrency follows the :class:`~repro.resilience.ShardedJournal`
discipline: an entry is written to a private temp file and published
with an atomic exclusive link (the filesystem arbitrates concurrent
writers — the loser of an ``O_EXCL``-style race simply discards its
copy), so thread pools and process pools can share one cache directory
without torn entries. Worker processes open the cache read-through;
the campaign parent owns eviction (:meth:`CompileCache.prune`).

Safety invariants, mirroring the run ledger's corruption contract:

* only clean first-attempt successes are stored — faulted, retried,
  gated, or quarantined cells never enter the cache;
* nondeterministic backends (``deterministic = False``, e.g.
  fault-injecting wrappers) *bypass* the cache entirely;
* a corrupt entry or fingerprint mismatch degrades to a miss with a
  ``RuntimeWarning`` — the bad entry is dropped so the re-executed
  cell can rewrite it — and never takes a campaign down.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import uuid
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.resilience.executor import CellOutcome
from repro.resilience.journal import STATUS_OK

if TYPE_CHECKING:
    from repro.core.backend import AcceleratorBackend
    from repro.models.config import ModelConfig, TrainConfig
    from repro.observe import TraceRecorder

__all__ = [
    "CACHE_VERSION",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_BYPASS",
    "CachedCell",
    "CompileCache",
    "canonical_fingerprint",
    "cell_fingerprint",
    "cached_outcome",
    "store_outcome",
]

#: Cache schema version; part of every fingerprint, so a schema change
#: invalidates the whole cache rather than misreading old entries.
#: v2: model/train configs enter the fingerprint as content digests
#: (see :meth:`~repro.models.config.ModelConfig.content_digest`).
#: v3: a cached run's :class:`~repro.sim.trace.Trace` pickles as
#: columns and per-task aggregates, not a list of records.
CACHE_VERSION = 3

#: Trace-event statuses for the ``"cache"`` event name.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"


def _warn(path: Path, why: str) -> None:
    warnings.warn(
        f"compile cache {path}: {why} — treating as a miss (the entry "
        "will be rewritten when the cell re-executes)",
        RuntimeWarning,
        stacklevel=4,
    )


def canonical_fingerprint(payload: dict[str, Any]) -> str:
    """SHA-256 of the canonical (``sort_keys``) JSON form of ``payload``.

    The same canonicalization the journal uses for its entries: key
    order cannot perturb the digest. Values outside the JSON model are
    serialized through ``str`` — stable for enums and dataclass reprs;
    an unstable ``repr`` merely costs a cache miss, never a wrong hit.
    """
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_fingerprint(backend: "AcceleratorBackend", model: "ModelConfig",
                     train: "TrainConfig",
                     options: dict[str, Any] | None = None, *,
                     measure: bool = True) -> str | None:
    """The content-addressed key of one cell, or ``None`` to bypass.

    Covers everything a deterministic backend's reports depend on: the
    platform adapter class, the hardware :class:`SystemSpec`, any extra
    backend state (:meth:`AcceleratorBackend.fingerprint_extra`), the
    model and training configurations, the cell options, and whether
    the cell measures. Backends declaring ``deterministic = False``
    (fault injectors, live-hardware adapters) return ``None`` — the
    cache must never replay a result that was not a pure function of
    its inputs.
    """
    if not getattr(backend, "deterministic", True):
        return None
    cls = type(backend)
    return canonical_fingerprint({
        "v": CACHE_VERSION,
        "platform": f"{cls.__module__}.{cls.__qualname__}",
        "backend": backend.name,
        "system": asdict(backend.system),
        "extra": backend.fingerprint_extra(),
        "model": model.content_digest(),
        "train": train.content_digest(),
        "options": dict(options) if options else {},
        "measure": bool(measure),
    })


@dataclass(frozen=True)
class CachedCell:
    """One cache entry read back: the artifacts a clean cell produced."""

    fingerprint: str
    compiled: Any
    run: Any = None


class CompileCache:
    """A content-addressed, cross-process-safe cell result cache.

    Entries live at ``<directory>/<fp[:2]>/<fp>.pkl`` (two-level
    fan-out keeps directory listings sane on big grids). The instance
    keeps in-process hit/miss/bypass/store counters (:meth:`stats`);
    cross-process totals travel as ``"cache"`` trace events instead,
    which is how the Observability table aggregates them per lane.

    ``max_entries`` arms :meth:`prune`: the campaign parent calls it
    once per run to evict the oldest entries beyond the cap. Workers
    never evict — they only read through and publish new entries.
    """

    SUFFIX = ".pkl"

    def __init__(self, directory: str | os.PathLike[str],
                 max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries}")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._bypasses = 0
        self._stores = 0

    # -- bookkeeping ---------------------------------------------------
    def stats(self) -> dict[str, int]:
        """In-process counters (worker processes count their own)."""
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "bypasses": self._bypasses, "stores": self._stores}

    def _count(self, name: str) -> None:
        with self._lock:
            setattr(self, f"_{name}", getattr(self, f"_{name}") + 1)

    def note_bypass(self) -> None:
        """Record a cell that skipped the cache (no fingerprint)."""
        self._count("bypasses")

    def entry_path(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives (existing or not)."""
        return (self.directory / fingerprint[:2]
                / f"{fingerprint}{self.SUFFIX}")

    def entries(self) -> list[Path]:
        """Every entry file currently in the cache, sorted by name."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob(f"*/*{self.SUFFIX}"))

    def __len__(self) -> int:
        return len(self.entries())

    # -- read-through --------------------------------------------------
    def lookup(self, fingerprint: str) -> CachedCell | None:
        """The entry under ``fingerprint``, or ``None`` on a miss.

        A torn, corrupt, or foreign entry (schema or fingerprint
        mismatch) warns, is unlinked so the re-executed cell can
        rewrite it, and reads as a miss — never an exception.
        """
        path = self.entry_path(fingerprint)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError as exc:
            _warn(path, f"unreadable ({exc})")
            self._count("misses")
            return None
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 — any corrupt pickle
            _warn(path, f"corrupt entry ({type(exc).__name__}: {exc})")
            self._drop(path)
            self._count("misses")
            return None
        if (not isinstance(payload, dict)
                or payload.get("v") != CACHE_VERSION
                or payload.get("fingerprint") != fingerprint
                or "compiled" not in payload):
            _warn(path, "entry does not match its fingerprint/schema")
            self._drop(path)
            self._count("misses")
            return None
        self._count("hits")
        return CachedCell(fingerprint=fingerprint,
                          compiled=payload["compiled"],
                          run=payload.get("run"))

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- publish -------------------------------------------------------
    def store(self, fingerprint: str, compiled: Any,
              run: Any = None) -> bool:
        """Publish one entry atomically; ``False`` if it did not land.

        The entry is pickled to a private temp file, fsynced, then
        linked into place — link creation is exclusive (the journal's
        ``O_EXCL`` claim discipline), so of any number of concurrent
        writers exactly one publishes and the rest quietly discard
        their identical copies. IO or pickling trouble warns and
        returns ``False``; caching is an optimization, never a crash.
        """
        path = self.entry_path(fingerprint)
        payload = {"v": CACHE_VERSION, "fingerprint": fingerprint,
                   "compiled": compiled, "run": run}
        try:
            blob = pickle.dumps(payload)
        except Exception as exc:  # noqa: BLE001 — unpicklable artifact
            _warn(path, f"artifacts do not pickle ({exc}); not cached")
            return False
        tmp = path.with_name(
            f".{fingerprint[:16]}-{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False  # a concurrent writer won the race
        except OSError as exc:
            _warn(path, f"could not publish entry ({exc})")
            return False
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._count("stores")
        return True

    # -- eviction (parent-side) ----------------------------------------
    def prune(self, max_entries: int | None = None) -> int:
        """Evict the oldest entries beyond the cap; returns evictions.

        ``max_entries`` defaults to the constructor's; ``None`` means
        unbounded (no-op). Only the campaign parent calls this —
        workers read through and publish, they never evict.
        """
        cap = max_entries if max_entries is not None else self.max_entries
        if cap is None:
            return 0
        entries = self.entries()
        if len(entries) <= cap:
            return 0

        def age(path: Path) -> tuple[float, str]:
            try:
                return (path.stat().st_mtime, path.name)
            except OSError:
                return (0.0, path.name)

        removed = 0
        victims = sorted(entries, key=age)[:len(entries) - cap]
        for path in victims:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ----------------------------------------------------------------------
# The engine-facing read-through/store pair, called only from the cell
# body both dispatch modes share (repro.campaign.engine._run_cell), so
# the caching invariants cannot drift between threads and processes.
# ----------------------------------------------------------------------
def cached_outcome(cache: CompileCache, key: str,
                   fingerprint: str | None,
                   tracer: "TraceRecorder | None" = None,
                   ) -> CellOutcome | None:
    """A replayed :class:`CellOutcome` on a hit, else ``None``.

    Emits one ``"cache"`` trace event (status ``hit`` / ``miss`` /
    ``bypass``) per consult so the Observability table can count them
    per lane across threads *and* processes. A replayed outcome is
    byte-identical to a clean first-attempt execution as far as the
    journal is concerned: status ok, one attempt, no retries — only
    ``elapsed`` is zero, which the scheduler and ledger already treat
    as "no cost signal".
    """
    if fingerprint is None:
        cache.note_bypass()
        if tracer is not None:
            tracer.emit("cache", key=key, status=CACHE_BYPASS)
        return None
    entry = cache.lookup(fingerprint)
    if entry is None:
        if tracer is not None:
            tracer.emit("cache", key=key, status=CACHE_MISS)
        return None
    if tracer is not None:
        tracer.emit("cache", key=key, status=CACHE_HIT)
    return CellOutcome(key=key, status=STATUS_OK, compiled=entry.compiled,
                       run=entry.run, attempts=1, elapsed=0.0)


def store_outcome(cache: CompileCache, fingerprint: str | None,
                  outcome: CellOutcome) -> bool:
    """Publish a finished cell's artifacts — clean successes only.

    A cell qualifies only when it succeeded on its first attempt with
    no retries: replaying it later is then indistinguishable from
    executing it. Failures, gated cells, and retried-then-ok cells
    (whose journal entries record ``attempts > 1``) are never cached.
    """
    if fingerprint is None:
        return False
    if not outcome.ok or outcome.attempts != 1 or outcome.retried:
        return False
    return cache.store(fingerprint, outcome.compiled, outcome.run)
