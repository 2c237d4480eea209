"""Tier 2 — inter-chip scalability and deployment optimization (Sec. IV-C, VI).

Two analyzers:

* :class:`ScalabilityAnalyzer` sweeps parallelism configurations
  (DP replicas on WSE, TP degree on RDU, PP layouts on IPU — each passed
  through backend-specific compile options) and reports throughput plus
  the communication/utilization detail behind Fig. 11.
* :class:`DeploymentOptimizer` sweeps batch size and precision, the two
  deployment factors the paper singles out (Fig. 12, Table IV), and
  produces recommendations in the spirit of the paper's Insight boxes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.common.errors import ConfigurationError, ErrorRecord
from repro.core.backend import AcceleratorBackend
from repro.core.metrics import allocation_ratio
from repro.models.config import ModelConfig, TrainConfig
from repro.models.precision import PrecisionPolicy
from repro.resilience.executor import CellOutcome, ResilientExecutor
from repro.resilience.journal import JournalEntry
from repro.resilience.policy import (
    DISPATCH_PROCESS,
    ExecutionPolicy,
    reject_removed_kwargs,
)

if TYPE_CHECKING:  # the engine is imported lazily inside the sweeps
    from repro.campaign.engine import CellResult


def _serializer_for(backend: AcceleratorBackend) -> threading.Lock | None:
    return None if backend.thread_safe else threading.Lock()


def _reject_process(policy: ExecutionPolicy, api: str) -> None:
    """Tier-2 cells are closures over the analyzer, so they run on
    threads only; say so rather than ignore ``dispatch``."""
    if policy.dispatch == DISPATCH_PROCESS:
        raise ConfigurationError(
            f"{api}: Tier-2 sweeps run on threads only; "
            "use dispatch='thread'")


@dataclass(frozen=True)
class ScalingPoint:
    """One parallel configuration's measured behaviour.

    ``failure`` keeps the structured error record behind the flattened
    ``error`` string; ``resumed`` points were restored from a journal.
    """

    label: str
    options: dict[str, Any]
    tokens_per_second: float
    achieved_flops: float
    compute_allocation: float
    memory_allocation: float
    compute_time_fraction: float
    error: str | None = None
    failure: ErrorRecord | None = None
    attempts: int = 1
    resumed: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def communication_fraction(self) -> float:
        """Share of step time not spent computing."""
        return max(0.0, 1.0 - self.compute_time_fraction)


class ScalabilityAnalyzer:
    """Runs a parallelism sweep against one backend.

    The constructor ``executor`` (when given) overrides the executor an
    :class:`~repro.resilience.ExecutionPolicy` would build — unless the
    policy itself carries one, which wins.
    """

    def __init__(self, backend: AcceleratorBackend,
                 executor: ResilientExecutor | None = None) -> None:
        self.backend = backend
        self.executor = executor

    def _executor_for(self, policy: ExecutionPolicy) -> ResilientExecutor:
        if policy.executor is None and self.executor is not None:
            return self.executor
        return policy.make_executor(self.backend.name)

    def sweep(self, model: ModelConfig, train: TrainConfig,
              configurations: Iterable[tuple[str, dict[str, Any]]],
              *,
              policy: ExecutionPolicy | None = None,
              **removed: Any) -> list[ScalingPoint]:
        """Measure each labelled option-dict configuration.

        Failures (any :class:`~repro.common.errors.ReproError`, from
        either phase) are recorded as failed points, not raised:
        exceeding a platform's scalability envelope is a result. The
        ``policy`` controls journaling/resume, retry, deadlines, and
        worker fan-out; points always return in configuration order.
        The pre-policy ``journal``/``resume`` keywords were removed in
        0.3 and raise :class:`TypeError`.
        """
        # Lazy: the engine lives under repro.campaign, which resilience
        # (imported above) reaches back into via repro.core at import
        # time — a module-level import here would close that cycle.
        from repro.campaign.engine import CellTask, run_cell_tasks

        reject_removed_kwargs("ScalabilityAnalyzer.sweep", removed)
        if policy is None:
            policy = ExecutionPolicy()
        _reject_process(policy, "ScalabilityAnalyzer.sweep")
        executor = self._executor_for(policy)
        serializer = _serializer_for(self.backend)
        configs = [(label, dict(options))
                   for label, options in configurations]
        tasks = [
            CellTask(
                key=label,
                compile_fn=lambda options=options: self.backend.compile(
                    model, train, **options),
                run_fn=lambda compiled: self.backend.run(compiled),
                is_transient=self.backend.is_transient,
                executor=executor,
                summary_extra=self._summary_extra,
                serializer=serializer,
            )
            for label, options in configs
        ]
        results = run_cell_tasks(
            tasks,
            max_workers=policy.max_workers,
            journal=policy.normalized_journal(),
            resume=policy.resume,
            retry_failed=policy.retry_failed,
            scheduler=policy.make_scheduler(),
        )
        return [self._point_from_result(label, options, result)
                for (label, options), result in zip(configs, results)]

    @staticmethod
    def _summary_extra(outcome: CellOutcome) -> dict[str, Any] | None:
        if not outcome.ok:
            return None
        return {
            "compute_allocation": allocation_ratio(outcome.compiled,
                                                   kind="compute"),
            "memory_allocation": allocation_ratio(outcome.compiled,
                                                  kind="memory"),
            "compute_time_fraction": float(
                outcome.run.meta.get("compute_fraction", 1.0)),
        }

    @classmethod
    def _point_from_result(cls, label: str, options: dict[str, Any],
                           result: CellResult) -> ScalingPoint:
        if result.resumed:
            assert result.entry is not None
            return cls._point_from_journal(label, options, result.entry)
        return cls._point_from_outcome(label, options, result.outcome)

    @staticmethod
    def _point_from_outcome(label: str, options: dict[str, Any],
                            outcome: CellOutcome) -> ScalingPoint:
        if not outcome.ok:
            return ScalingPoint(
                label=label, options=dict(options),
                tokens_per_second=0.0, achieved_flops=0.0,
                compute_allocation=0.0, memory_allocation=0.0,
                compute_time_fraction=0.0, error=str(outcome.error),
                failure=outcome.error, attempts=max(1, outcome.attempts))
        compiled, run = outcome.compiled, outcome.run
        return ScalingPoint(
            label=label,
            options=dict(options),
            tokens_per_second=run.tokens_per_second,
            achieved_flops=run.achieved_flops,
            compute_allocation=allocation_ratio(compiled, kind="compute"),
            memory_allocation=allocation_ratio(compiled, kind="memory"),
            compute_time_fraction=float(
                run.meta.get("compute_fraction", 1.0)),
            attempts=outcome.attempts,
        )

    @staticmethod
    def _point_from_journal(label: str, options: dict[str, Any],
                            entry: JournalEntry) -> ScalingPoint:
        summary = entry.summary or {}
        return ScalingPoint(
            label=label, options=dict(options),
            tokens_per_second=float(summary.get("tokens_per_second", 0.0)),
            achieved_flops=float(summary.get("achieved_flops", 0.0)),
            compute_allocation=float(
                summary.get("compute_allocation", 0.0)),
            memory_allocation=float(
                summary.get("memory_allocation", 0.0)),
            compute_time_fraction=float(
                summary.get("compute_time_fraction", 0.0)),
            error=str(entry.error) if entry.error else None,
            failure=entry.error, attempts=entry.attempts, resumed=True)

    @staticmethod
    def scaling_efficiency(points: list[ScalingPoint],
                           parallelism_of: dict[str, int]) -> dict[str, float]:
        """Throughput per unit of parallelism, normalized to the smallest.

        ``parallelism_of`` maps point labels to their degree (replicas,
        chips, pipeline stages). 1.0 means perfect linear scaling.
        """
        ok = [p for p in points if not p.failed and p.label in parallelism_of]
        if not ok:
            raise ConfigurationError("no successful points to normalize")
        base = min(ok, key=lambda p: parallelism_of[p.label])
        base_degree = parallelism_of[base.label]
        base_rate = base.tokens_per_second / base_degree
        return {
            p.label: (p.tokens_per_second / parallelism_of[p.label])
            / base_rate
            for p in ok
        }


@dataclass(frozen=True)
class BatchSweepResult:
    """Throughput as a function of batch size (Fig. 12)."""

    platform: str
    batch_sizes: tuple[int, ...]
    tokens_per_second: tuple[float, ...]
    errors: dict[int, str] = field(default_factory=dict)
    failures: dict[int, ErrorRecord] = field(default_factory=dict)

    @property
    def saturation_batch(self) -> int | None:
        """First batch size whose marginal gain per doubling drops
        below 15% — the "recommend > 200 on WSE" knee. ``None`` when the
        curve keeps scaling through the sweep (IPU/RDU behaviour)."""
        series = [(b, t) for b, t in zip(self.batch_sizes,
                                         self.tokens_per_second) if t > 0]
        for (b0, t0), (_b1, t1) in zip(series, series[1:]):
            if t0 <= 0:
                continue
            if (t1 - t0) / t0 < 0.15:
                return b0
        return None

    @property
    def scaling_exponent(self) -> float:
        """Log-log slope of throughput vs batch over the sweep.

        1.0 is perfectly linear scaling; 0.0 is fully saturated.
        """
        series = [(b, t) for b, t in zip(self.batch_sizes,
                                         self.tokens_per_second) if t > 0]
        if len(series) < 2:
            return 0.0
        import math
        b0, t0 = series[0]
        bn, tn = series[-1]
        if bn == b0:
            return 0.0
        return math.log(tn / t0) / math.log(bn / b0)

    @property
    def near_linear(self) -> bool:
        """Whether the scaling exponent stays above 0.6 (IPU/RDU in
        Fig. 12), versus the saturating WSE curve (~0.2)."""
        return self.scaling_exponent >= 0.6


@dataclass(frozen=True)
class PrecisionComparison:
    """Throughput under two precision policies (Table IV)."""

    platform: str
    baseline_label: str
    optimized_label: str
    baseline_tokens_per_second: float
    optimized_tokens_per_second: float

    @property
    def gain(self) -> float:
        """Fractional throughput improvement of the optimized policy."""
        if self.baseline_tokens_per_second <= 0:
            return 0.0
        return (self.optimized_tokens_per_second
                / self.baseline_tokens_per_second - 1.0)


class DeploymentOptimizer:
    """Batch-size and precision deployment studies for one backend.

    As with :class:`ScalabilityAnalyzer`, a constructor ``executor``
    overrides the policy-derived one unless the policy carries its own.
    """

    def __init__(self, backend: AcceleratorBackend,
                 executor: ResilientExecutor | None = None) -> None:
        self.backend = backend
        self.executor = executor

    def _executor_for(self, policy: ExecutionPolicy) -> ResilientExecutor:
        if policy.executor is None and self.executor is not None:
            return self.executor
        return policy.make_executor(self.backend.name)

    def batch_sweep(self, model: ModelConfig, train: TrainConfig,
                    batch_sizes: Iterable[int],
                    policy: ExecutionPolicy | None = None,
                    **options: Any) -> BatchSweepResult:
        """Measure throughput across batch sizes (other knobs fixed).

        Any :class:`~repro.common.errors.ReproError` becomes a failed
        point with a structured record in ``failures``. The ``policy``
        controls journaling (keyed ``batch=<n>``), resume, retry,
        deadlines, and worker fan-out. The pre-policy
        ``journal``/``resume`` keywords were removed in 0.3 and raise
        :class:`TypeError`; remaining keywords are forwarded to
        ``backend.compile``.
        """
        from repro.campaign.engine import CellTask, run_cell_tasks

        reject_removed_kwargs("DeploymentOptimizer.batch_sweep", options,
                              allow_extra=True)
        if policy is None:
            policy = ExecutionPolicy()
        _reject_process(policy, "DeploymentOptimizer.batch_sweep")
        executor = self._executor_for(policy)
        serializer = _serializer_for(self.backend)
        sizes = list(batch_sizes)
        tasks = [
            CellTask(
                key=f"batch={batch}",
                compile_fn=lambda batch=batch: self.backend.compile(
                    model, train.with_batch_size(batch), **options),
                run_fn=lambda compiled: self.backend.run(compiled),
                is_transient=self.backend.is_transient,
                executor=executor,
                serializer=serializer,
            )
            for batch in sizes
        ]
        results = run_cell_tasks(
            tasks,
            max_workers=policy.max_workers,
            journal=policy.normalized_journal(),
            resume=policy.resume,
            retry_failed=policy.retry_failed,
            scheduler=policy.make_scheduler(),
        )
        rates: list[float] = []
        errors: dict[int, str] = {}
        failures: dict[int, ErrorRecord] = {}
        for batch, result in zip(sizes, results):
            if result.resumed:
                entry = result.entry
                assert entry is not None
                summary = entry.summary or {}
                rates.append(float(summary.get("tokens_per_second", 0.0)))
                if entry.error is not None:
                    errors[batch] = str(entry.error)
                    failures[batch] = entry.error
                continue
            outcome = result.outcome
            assert outcome is not None
            if outcome.ok:
                rates.append(outcome.run.tokens_per_second)
            else:
                rates.append(0.0)
                errors[batch] = str(outcome.error)
                failures[batch] = outcome.error
        return BatchSweepResult(
            platform=self.backend.name,
            batch_sizes=tuple(sizes),
            tokens_per_second=tuple(rates),
            errors=errors,
            failures=failures,
        )

    def compare_precision(self, model: ModelConfig, train: TrainConfig,
                          baseline: PrecisionPolicy,
                          optimized: PrecisionPolicy,
                          **options: Any) -> PrecisionComparison:
        """Run the same workload under two precision policies."""
        rates = []
        for policy in (baseline, optimized):
            compiled = self.backend.compile(
                model, train.with_precision(policy), **options)
            rates.append(self.backend.run(compiled).tokens_per_second)
        return PrecisionComparison(
            platform=self.backend.name,
            baseline_label=baseline.label,
            optimized_label=optimized.label,
            baseline_tokens_per_second=rates[0],
            optimized_tokens_per_second=rates[1],
        )
