"""ExecutionPolicy: one value describing how a sweep should execute.

PR 1 grew the sweep entry points a sprawl of keywords — ``executor=``,
``journal=``, ``resume=``, ``retry_failed=`` — and the campaign engine
would have added ``max_workers=`` on top. :class:`ExecutionPolicy`
consolidates all of them into a single frozen value that
:func:`~repro.workloads.sweeps.run_grid`,
:meth:`~repro.core.tier2.ScalabilityAnalyzer.sweep`,
:meth:`~repro.core.tier2.DeploymentOptimizer.batch_sweep`, and
:class:`~repro.campaign.Campaign` all accept::

    policy = ExecutionPolicy(retry=RetryPolicy(max_retries=2),
                             deadline=300.0,
                             journal="campaign.jsonl", resume=True,
                             max_workers=8)
    cells = run_grid(backend, specs, policy=policy)

The 0.3 release completed the migration: the old keywords are gone.
Passing any of them raises :class:`TypeError` with a one-line hint
(:func:`reject_removed_kwargs`) — there is exactly one way to configure
execution, and it is this class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from repro.common.errors import ConfigurationError
from repro.observe import RunLedger, TraceRecorder
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.clock import Clock, SystemClock
from repro.resilience.executor import ResilientExecutor
from repro.resilience.journal import ShardedJournal, SweepJournal
from repro.resilience.retry import RetryPolicy

#: The default execution behaviour: one attempt, no jitter — identical
#: to the pre-policy sweep default.
NO_RETRY = RetryPolicy(max_retries=0, jitter=0.0)

#: Cell dispatch orders (see :mod:`repro.campaign.scheduler`). Defined
#: here, not in the scheduler module, so the policy can validate its
#: ``schedule`` field without importing the campaign package (which
#: imports this module).
SCHEDULE_LANE_MAJOR = "lane-major"
SCHEDULE_LONGEST_FIRST = "longest-first"
SCHEDULE_SHORTEST_FIRST = "shortest-first"
SCHEDULE_POLICIES = (SCHEDULE_LANE_MAJOR, SCHEDULE_LONGEST_FIRST,
                     SCHEDULE_SHORTEST_FIRST)

#: Built-in cost predictor names (see :mod:`repro.campaign.scheduler`).
PREDICTOR_ANALYTIC = "analytic"
PREDICTOR_EWMA = "ewma"
PREDICTORS = (PREDICTOR_ANALYTIC, PREDICTOR_EWMA)

#: How worker fan-out is realized (see :mod:`repro.campaign.process`).
DISPATCH_THREAD = "thread"
DISPATCH_PROCESS = "process"
DISPATCH_MODES = (DISPATCH_THREAD, DISPATCH_PROCESS)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a grid of independent sweep cells should be executed.

    Attributes:
        retry: per-cell retry/backoff policy for transient faults.
        deadline: per-cell timeout in seconds (``None`` disables).
        journal: checkpoint store — a :class:`SweepJournal`,
            a :class:`ShardedJournal` (directory, for parallel
            campaigns), or a path to a JSONL file.
        resume: skip cells the journal already holds a final outcome
            for.
        retry_failed: with ``resume``, re-execute journaled *failures*
            while still skipping successes.
        max_workers: workers fanning cells out; ``1`` keeps the exact
            sequential semantics (and callback ordering) of the
            pre-campaign harness.
        dispatch: how workers are realized — ``"thread"`` (the
            default: a :class:`~concurrent.futures.ThreadPoolExecutor`
            sharing the GIL, right for simulator backends that mostly
            wait) or ``"process"`` (a
            :class:`~concurrent.futures.ProcessPoolExecutor` of
            single-threaded workers for CPU-bound cells; requires
            picklable backends, a :class:`ShardedJournal` or no
            journal, and no injected clocks — see
            :mod:`repro.campaign.process`).
        schedule: the order cells are *dispatched* in —
            ``"lane-major"`` (task-list arrival order, the default and
            the pre-scheduler behaviour), ``"longest-first"`` (highest
            predicted cost first — the LPT heuristic that cuts
            makespan on unbalanced grids), or ``"shortest-first"``
            (quick feedback first). Results always come back in spec
            order whatever the schedule; see
            :mod:`repro.campaign.scheduler`.
        predictor: the cost model the scheduler ranks cells with —
            ``"ewma"`` (the default: an online per-(backend, family)
            estimator seeded by the analytic prior), ``"analytic"``
            (the static :mod:`repro.models.costmodel` estimate), or
            any object implementing the
            :class:`~repro.campaign.scheduler.CostPredictor` protocol.
        breaker: circuit breaking for single-backend sweeps — ``False``
            (off, the default), ``True`` (build one from the threshold
            fields below), or a ready :class:`CircuitBreaker` instance.
            :class:`~repro.campaign.Campaign` always builds one breaker
            per backend from the threshold fields, whatever this says.
        breaker_threshold: consecutive infrastructure faults that trip
            a policy-built breaker.
        breaker_reset: seconds a tripped breaker stays open before
            half-opening.
        heartbeat_interval: seconds between worker heartbeat stamps
            under process dispatch (see
            :mod:`repro.campaign.supervisor`). The supervisor polls the
            heartbeat files on this cadence.
        grace_factor: multiplier on ``deadline`` (hard wall-clock kill)
            and on ``heartbeat_interval`` (staleness kill): a worker
            whose in-flight cell exceeds ``deadline * grace_factor``
            wall-clock seconds, or whose heartbeat is older than
            ``heartbeat_interval * grace_factor`` (at least
            :data:`~repro.campaign.supervisor.MIN_STALE_SECONDS`), is
            SIGKILL'd and the pool rebuilt.
        quarantine_after: worker crashes a single cell may cause before
            it is quarantined (journaled as a ``QuarantinedError``
            failure instead of retried forever).
        max_pool_rebuilds: times the supervisor rebuilds a broken
            process pool before giving up and re-raising.
        clock: injected time source (``None`` = wall clock). Fake
            clocks make backoff/deadline/cooldown behaviour
            deterministic in tests.
        trace: structured tracing (see :mod:`repro.observe`) —
            ``False`` (off, the default), ``True`` (write trace shards
            beside the journal shards; requires a
            :class:`ShardedJournal`), or a directory path to write the
            shards into. Tracing is side-effect-free on the journal:
            ``merged_text()`` is byte-identical with it on or off.
        ledger: a cross-run :class:`~repro.observe.RunLedger` — a
            ready instance or a path to its JSON file. Observed cell
            durations are folded into it during the run; the next run
            warm-starts the EWMA cost predictor from it and scales the
            supervisor heartbeat to the typical observed duration
            (see :meth:`effective_heartbeat_interval`).
        cache: a content-addressed compile/result cache (see
            :mod:`repro.cache`) — a ready
            :class:`~repro.cache.CompileCache` or a directory path.
            Deterministic cells whose fingerprint is already stored
            replay without touching the backend; clean first-attempt
            successes are published for the next run. Fault-injecting
            or otherwise nondeterministic backends bypass it entirely.
            When ``cache`` is set and ``ledger`` is not, the run ledger
            is persisted *inside* the cache directory
            (``<cache>/ledger.json``) so warm re-runs also warm-start
            scheduling.
        executor: expert escape hatch — a pre-built
            :class:`ResilientExecutor` used verbatim instead of one
            derived from ``retry``/``deadline``/``clock``.
    """

    retry: RetryPolicy = NO_RETRY
    deadline: float | None = None
    journal: (SweepJournal | ShardedJournal | str
              | os.PathLike[str] | None) = None
    resume: bool = False
    retry_failed: bool = False
    max_workers: int = 1
    dispatch: str = DISPATCH_THREAD
    schedule: str = SCHEDULE_LANE_MAJOR
    predictor: Any = PREDICTOR_EWMA
    breaker: CircuitBreaker | bool = False
    breaker_threshold: int = 5
    breaker_reset: float = 300.0
    heartbeat_interval: float = 5.0
    grace_factor: float = 2.0
    quarantine_after: int = 2
    max_pool_rebuilds: int = 5
    trace: bool | str | os.PathLike[str] = False
    ledger: RunLedger | str | os.PathLike[str] | None = None
    cache: Any = None
    clock: Clock | None = None
    executor: ResilientExecutor | None = None

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1: {self.max_workers}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be positive: {self.deadline}")
        if self.breaker_threshold <= 0:
            raise ConfigurationError(
                f"breaker_threshold must be > 0: {self.breaker_threshold}")
        if self.breaker_reset < 0:
            raise ConfigurationError(
                f"breaker_reset must be >= 0: {self.breaker_reset}")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0: "
                f"{self.heartbeat_interval}")
        if self.grace_factor < 1.0:
            raise ConfigurationError(
                f"grace_factor must be >= 1: {self.grace_factor}")
        if self.quarantine_after <= 0:
            raise ConfigurationError(
                f"quarantine_after must be > 0: {self.quarantine_after}")
        if self.max_pool_rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0: "
                f"{self.max_pool_rebuilds}")
        if self.dispatch not in DISPATCH_MODES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_MODES}: "
                f"{self.dispatch!r}")
        if self.schedule not in SCHEDULE_POLICIES:
            raise ConfigurationError(
                f"schedule must be one of {SCHEDULE_POLICIES}: "
                f"{self.schedule!r}")
        if isinstance(self.predictor, str) and \
                self.predictor not in PREDICTORS:
            raise ConfigurationError(
                f"predictor must be one of {PREDICTORS} or a "
                f"CostPredictor instance: {self.predictor!r}")
        if self.trace is True and not isinstance(self.journal,
                                                 ShardedJournal):
            raise ConfigurationError(
                "trace=True writes shards beside a ShardedJournal's; "
                "without one, pass trace=<directory> instead")

    # -- derived pieces ------------------------------------------------
    def normalized_journal(self) -> SweepJournal | ShardedJournal | None:
        """The journal as a store instance (paths become journals)."""
        if self.journal is None or isinstance(self.journal,
                                              (SweepJournal,
                                               ShardedJournal)):
            return self.journal
        return SweepJournal(self.journal)

    def trace_directory(self) -> Path | None:
        """Where trace shards go, or ``None`` when tracing is off."""
        if self.trace is False or self.trace is None:
            return None
        if self.trace is True:
            journal = self.journal
            if not isinstance(journal, ShardedJournal):
                raise ConfigurationError(
                    "trace=True writes shards beside a ShardedJournal's; "
                    "without one, pass trace=<directory> instead")
            return journal.directory
        return Path(self.trace)

    def make_tracer(self, run: str | None = None) -> TraceRecorder | None:
        """A :class:`~repro.observe.TraceRecorder` per this policy.

        ``None`` when tracing is off. ``run`` pins the run token (the
        parent generates one and ships it to worker processes so one
        campaign's shards group together).
        """
        directory = self.trace_directory()
        if directory is None:
            return None
        return TraceRecorder(directory, run=run)

    def normalized_ledger(self) -> RunLedger | None:
        """The ledger as a :class:`~repro.observe.RunLedger` instance.

        Paths become fresh ledgers (loading the file, warning on
        corruption). With a ``cache`` configured but no explicit
        ledger, the ledger is kept *inside* the cache directory
        (``<cache>/ledger.json``) — a warm cache then also
        warm-starts the scheduler's cost predictor. The ledger lives
        parent-side only — it is never pickled into worker processes.
        """
        if isinstance(self.ledger, RunLedger):
            return self.ledger
        if self.ledger is None:
            if self.cache is None:
                return None
            directory = getattr(self.cache, "directory", None)
            if directory is None:
                directory = Path(self.cache)
            return RunLedger(Path(directory) / "ledger.json")
        return RunLedger(self.ledger)

    def normalized_cache(self) -> Any:
        """The cache as a :class:`~repro.cache.CompileCache` instance.

        Paths become fresh caches rooted at that directory; ``None``
        stays ``None`` (caching off). Imported lazily —
        :mod:`repro.cache` imports the resilience package, so the
        policy cannot import it at module scope.
        """
        if self.cache is None:
            return None
        from repro.cache import CompileCache
        if isinstance(self.cache, CompileCache):
            return self.cache
        return CompileCache(self.cache)

    def effective_heartbeat_interval(
            self, ledger: RunLedger | None = None,
            families: "set[str] | None" = None) -> float:
        """The heartbeat cadence, adapted to observed cell durations.

        With a ledger holding history, the interval tracks twice the
        typical observed cell duration — fast grids get tight patrols,
        slow grids are not pestered — clamped to
        ``[heartbeat_interval / 10, heartbeat_interval]`` so the
        configured value stays an upper bound. Without history the
        configured value is used as-is. ``families`` scopes the typical
        duration to the families the current run will actually execute
        (see :meth:`~repro.observe.RunLedger.typical_seconds`) — a
        ledger shared across differently-sized campaigns would
        otherwise mis-scale the patrol cadence.
        """
        if ledger is None:
            ledger = self.normalized_ledger()
        if ledger is None:
            return self.heartbeat_interval
        typical = ledger.typical_seconds(families)
        if typical is None:
            return self.heartbeat_interval
        return max(self.heartbeat_interval / 10.0,
                   min(self.heartbeat_interval, typical * 2.0))

    def make_breaker(self, name: str,
                     clock: Clock | None = None) -> CircuitBreaker | None:
        """A breaker per this policy (``None`` when breaking is off)."""
        if isinstance(self.breaker, CircuitBreaker):
            return self.breaker
        if not self.breaker:
            return None
        return self.new_breaker(name, clock)

    def new_breaker(self, name: str,
                    clock: Clock | None = None) -> CircuitBreaker:
        """A fresh breaker from the threshold fields (campaign lanes)."""
        return CircuitBreaker(name,
                              failure_threshold=self.breaker_threshold,
                              reset_timeout=self.breaker_reset,
                              clock=clock or self.clock or SystemClock())

    def make_executor(self, name: str = "backend", *,
                      breaker: CircuitBreaker | None = None,
                      clock: Clock | None = None,
                      tracer: TraceRecorder | None = None,
                      ) -> ResilientExecutor:
        """The per-cell executor this policy describes.

        ``breaker``/``clock``/``tracer`` override the policy's own (the
        campaign passes per-lane instances). A pre-built ``executor``
        is reused, re-wrapped only when a breaker or tracer must be
        attached.
        """
        if breaker is None:
            breaker = self.make_breaker(name, clock)
        if self.executor is not None:
            if (breaker is None or breaker is self.executor.breaker) \
                    and tracer is None:
                return self.executor
            return ResilientExecutor(retry=self.executor.retry,
                                     cell_timeout=self.executor.cell_timeout,
                                     clock=self.executor.clock,
                                     breaker=breaker
                                     or self.executor.breaker,
                                     tracer=tracer)
        return ResilientExecutor(retry=self.retry,
                                 cell_timeout=self.deadline,
                                 clock=clock or self.clock or SystemClock(),
                                 breaker=breaker, tracer=tracer)

    def make_scheduler(self, tracer: TraceRecorder | None = None) -> Any:
        """A :class:`~repro.campaign.scheduler.Scheduler` per this policy.

        A configured ledger warm-starts the EWMA predictor from the
        persisted per-family durations, and the scheduler feeds every
        observed duration back into it. Imported lazily: the campaign
        package imports this module, so the policy cannot import it at
        module scope.
        """
        from repro.campaign.scheduler import Scheduler, make_predictor
        ledger = self.normalized_ledger()
        prior = ledger.priors() if ledger is not None else None
        return Scheduler(self.schedule,
                         make_predictor(self.predictor, prior=prior),
                         ledger=ledger, tracer=tracer)

    def make_supervisor(self, tracer: TraceRecorder | None = None,
                        families: "set[str] | None" = None) -> Any:
        """A :class:`~repro.campaign.supervisor.Supervisor` per this
        policy (process dispatch only; imported lazily like the
        scheduler). The heartbeat cadence adapts to ledger history,
        scoped to the ``families`` of the current run — see
        :meth:`effective_heartbeat_interval`."""
        from repro.campaign.supervisor import Supervisor
        return Supervisor(deadline=self.deadline,
                          heartbeat_interval=(
                              self.effective_heartbeat_interval(
                                  families=families)),
                          grace_factor=self.grace_factor,
                          quarantine_after=self.quarantine_after,
                          max_pool_rebuilds=self.max_pool_rebuilds,
                          tracer=tracer)

    def with_options(self, **changes: Any) -> "ExecutionPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The pre-policy keywords removed in 0.3. They were deprecated aliases
#: from 0.2 (``resolve_policy`` translated them with a
#: DeprecationWarning); now they raise :class:`TypeError` with a
#: migration hint.
REMOVED_KEYWORDS = ("executor", "journal", "resume", "retry_failed")


def reject_removed_kwargs(api: str, kwargs: Mapping[str, Any], *,
                          allow_extra: bool = False) -> None:
    """Raise :class:`TypeError` if ``kwargs`` uses a removed keyword.

    The sweep entry points call this with their ``**kwargs`` catch-all
    so the pre-policy keywords fail with a migration hint instead of a
    bare "unexpected keyword argument". With ``allow_extra`` only the
    removed names are rejected — for APIs like ``batch_sweep`` whose
    ``**options`` legitimately forwards other keywords.
    """
    removed = sorted(name for name in kwargs if name in REMOVED_KEYWORDS)
    if removed:
        raise TypeError(
            f"{api}: the {', '.join(removed)} keyword(s) were removed "
            "in 0.3 — pass policy=ExecutionPolicy(...) instead "
            "(see docs/extending.md)")
    if not allow_extra and kwargs:
        raise TypeError(
            f"{api}: unexpected keyword argument(s): "
            f"{', '.join(sorted(kwargs))}")
