"""The uniform accelerator interface DABench-LLM benchmarks against.

The framework needs three categories of information (paper Sec. IV-D(b)):
hardware specifications, runtime information, and training configuration.
Backends deliver the first via :class:`~repro.hardware.specs.SystemSpec`,
the second via :class:`CompileReport` / :class:`RunReport`, and consume the
third as (:class:`~repro.models.config.ModelConfig`,
:class:`~repro.models.config.TrainConfig`) pairs.

The report structure mirrors how the platforms expose work:

* a *phase* is a unit the device runs to completion before the next
  (an RDU *section*; the single whole-graph phase on WSE-2; a pipeline
  round on the IPU),
* a *task* is a concurrently resident unit inside a phase (a WSE-2
  kernel, an RDU operator within a section, an IPU stage) with its
  resource grant and achievable throughput — exactly the R_i and T_i of
  the paper's Eq. 1-4.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import ConfigurationError, TransientError
from repro.hardware.specs import SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.sim.trace import Trace

if TYPE_CHECKING:
    from repro.core.stages import CompileStage


@dataclass(frozen=True)
class TaskProfile:
    """One schedulable task and its resource grant.

    Attributes:
        name: task identifier (kernel/operator/stage name).
        compute_units: compute units granted (PEs, PCUs, tiles).
        memory_units: memory units granted (PMUs; equals compute units on
            fused-unit architectures).
        role: ``"compute"`` or ``"transmission"`` — WSE-2 distinguishes
            PEs doing math from PEs routing data (Fig. 6).
        throughput: achievable items/second for this task in isolation
            (the T_i of Eq. 3); ``0`` when unknown.
        flops: FLOPs per item this task performs.
        meta: free-form annotations.
    """

    name: str
    compute_units: float
    memory_units: float = 0.0
    role: str = "compute"
    throughput: float = 0.0
    flops: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.compute_units < 0 or self.memory_units < 0:
            raise ConfigurationError(
                f"task {self.name!r}: unit grants must be >= 0")
        if self.role not in ("compute", "transmission"):
            raise ConfigurationError(
                f"task {self.name!r}: unknown role {self.role!r}")


@dataclass(frozen=True)
class PhaseProfile:
    """One sequential execution phase and the tasks resident during it.

    Attributes:
        name: phase identifier (e.g. ``section-3`` or ``graph``).
        runtime: seconds this phase contributes to one training step
            (the L_i weight of Eq. 2 and Eq. 4).
        tasks: concurrently resident tasks.
        invocations: how many times the phase runs per step (RDU sections
            are re-invoked once per decoder layer under O0/O1).
    """

    name: str
    runtime: float
    tasks: tuple[TaskProfile, ...]
    invocations: int = 1

    def __post_init__(self) -> None:
        if self.runtime < 0:
            raise ConfigurationError(
                f"phase {self.name!r}: runtime must be >= 0")
        if self.invocations <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: invocations must be > 0")

    @property
    def compute_units(self) -> float:
        """Total compute units resident during the phase."""
        return sum(t.compute_units for t in self.tasks)

    @property
    def memory_units(self) -> float:
        """Total memory units resident during the phase."""
        return sum(t.memory_units for t in self.tasks)

    def units(self, kind: str) -> float:
        """Resident units of ``kind`` (``"compute"`` or ``"memory"``)."""
        if kind == "compute":
            return self.compute_units
        if kind == "memory":
            return self.memory_units
        raise ConfigurationError(f"unknown unit kind {kind!r}")


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes by purpose at one memory tier (Fig. 9a's categories).

    ``configuration`` is compiler/program/routing state — the component
    whose sharp growth kills large WSE-2 models; ``training`` covers
    weights, gradients, optimizer state, and stashed activations.
    """

    capacity_bytes: float
    configuration_bytes: float = 0.0
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    optimizer_bytes: float = 0.0

    @property
    def training_bytes(self) -> float:
        """Weights + activations + optimizer state."""
        return self.weight_bytes + self.activation_bytes + self.optimizer_bytes

    @property
    def total_bytes(self) -> float:
        """Everything resident at this tier."""
        return self.configuration_bytes + self.training_bytes

    @property
    def utilization(self) -> float:
        """Fraction of capacity in use."""
        return self.total_bytes / self.capacity_bytes

    @property
    def headroom_bytes(self) -> float:
        """Unused capacity (negative means over-subscribed)."""
        return self.capacity_bytes - self.total_bytes


@dataclass(frozen=True)
class CompileReport:
    """Everything the (simulated) compiler reports about a mapping.

    Most DABench metrics are compile-time quantities on WSE-2/IPU/RDU-O1
    (paper Sec. IV-D(c)); this report carries them.
    """

    platform: str
    model: ModelConfig
    train: TrainConfig
    phases: tuple[PhaseProfile, ...]
    total_compute_units: float
    total_memory_units: float
    shared_memory: MemoryBreakdown
    global_memory: MemoryBreakdown | None = None
    n_chips: int = 1
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    def phase(self, name: str) -> PhaseProfile:
        """Look up a phase by name."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(name)

    @property
    def tasks(self) -> list[TaskProfile]:
        """All tasks across all phases."""
        return [t for phase in self.phases for t in phase.tasks]


@dataclass(frozen=True)
class RunReport:
    """Measured execution results for one training configuration."""

    platform: str
    tokens_per_second: float
    samples_per_second: float
    step_time: float
    achieved_flops: float
    phases: tuple[PhaseProfile, ...]
    global_traffic_bytes_per_step: float = 0.0
    trace: Trace | None = None
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def effective_intensity(self) -> float:
        """Achieved FLOPs per byte of *actual* global-memory traffic.

        Differs from the paper's Eq. 5 footprint-based estimate when
        on-chip reuse (PMU scratchpads, tile memory) filters traffic.
        """
        if self.global_traffic_bytes_per_step <= 0:
            return float("inf")
        return (self.achieved_flops * self.step_time
                / self.global_traffic_bytes_per_step)


class AcceleratorBackend(abc.ABC):
    """Platform adapter: compile a workload, then run it.

    Subclasses wrap one simulated platform. ``compile`` raises
    :class:`~repro.common.errors.CompilationError` (or its
    ``OutOfMemoryError`` subclass) when the workload cannot be mapped —
    real failures the paper records (Table I "Fail", Fig. 9d).

    ``transient_errors`` is each platform's declaration of which of its
    failures are worth retrying (fabric glitches, section stalls, queue
    flakes); the resilience layer consults it through
    :meth:`is_transient`. Capability failures must never appear here.

    ``thread_safe`` declares whether concurrent ``compile``/``run``
    calls from campaign worker threads are safe. The contract is that a
    backend holds no per-call mutable state — every bundled simulator
    computes its reports purely from its constructor-time specs — so
    the default is ``True``; a stateful adapter (e.g. one caching
    compile artifacts) must set it ``False``, and the campaign engine
    then serializes its calls behind a per-backend lock.

    ``deterministic`` declares whether reports are a pure function of
    ``(system, model, train, options)`` plus whatever
    :meth:`fingerprint_extra` exposes. The bundled simulators are; a
    fault-injecting wrapper or a live-hardware adapter is not and must
    set it ``False`` — the :mod:`repro.cache` compile cache bypasses
    such backends entirely rather than replaying a result that could
    have differed.
    """

    #: Exception types this platform considers retryable.
    transient_errors: tuple[type[BaseException], ...] = (TransientError,)

    #: Whether concurrent compile/run calls are safe (no per-call state).
    thread_safe: bool = True

    #: Whether compile/run results are replayable from a content cache.
    deterministic: bool = True

    def __init__(self, system: SystemSpec) -> None:
        self.system = system

    @property
    def name(self) -> str:
        """Backend display name."""
        return self.system.name

    def is_transient(self, exc: BaseException) -> bool:
        """Whether ``exc`` is a retryable fault on this platform."""
        return isinstance(exc, self.transient_errors)

    def fingerprint_extra(self) -> dict[str, Any]:
        """Backend state beyond the system spec that results depend on.

        The :mod:`repro.cache` fingerprint covers the platform class,
        the hardware spec, and the workload; a backend whose results
        also depend on constructor knobs (a burn factor, a tuning
        profile) must surface them here or stale cache hits become
        possible. The default — no extra state — is correct for every
        bundled simulator.
        """
        return {}

    @abc.abstractmethod
    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        """Map the workload onto the device; returns the compiler report."""

    # -- staged compilation (repro.core.stages) ------------------------
    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> "list[CompileStage]":
        """The compile as a staged pipeline (graph → partition →
        placement → report); the final stage's artifact is exactly what
        :meth:`compile` returns.

        The default wraps :meth:`compile` in a single report stage —
        correct for any backend, wrappers like the fault injector
        included. The bundled platforms override it with real stage
        splits, so each stage can be timed on its own; such overrides must also route :meth:`compile` through
        :func:`~repro.core.stages.run_stages` so the two paths cannot
        drift.
        """
        from repro.core.stages import STAGE_REPORT, CompileStage
        return [CompileStage(
            STAGE_REPORT,
            lambda _prev: self.compile(model, train, **options))]

    def _staged_compile_intact(self, owner: type) -> bool:
        """Whether ``self`` still compiles via ``owner``'s staged split.

        A subclass overriding :meth:`compile` (a fault-injecting test
        double, say) changes what compiling *means*; an inherited
        staged pipeline would silently bypass that override. The
        staged backends call this with their own class and fall back
        to the base single-stage :meth:`compile` wrapper when it
        returns ``False``.
        """
        return type(self).compile is owner.compile

    @abc.abstractmethod
    def run(self, compiled: CompileReport) -> RunReport:
        """Execute one (simulated) training step sequence."""

    def compile_and_run(self, model: ModelConfig, train: TrainConfig,
                        **options: Any) -> tuple[CompileReport, RunReport]:
        """Convenience: compile then run."""
        compiled = self.compile(model, train, **options)
        return compiled, self.run(compiled)
