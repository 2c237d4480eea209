"""The Cerebras backend: DABench's view of the CS-2 system."""

from __future__ import annotations

from typing import Any

from repro.common.errors import TransientError
from repro.core.backend import AcceleratorBackend, CompileReport, RunReport
from repro.core.stages import CompileStage, run_stages
from repro.cerebras.compiler import WSECompiler
from repro.cerebras.runtime import WSERuntime
from repro.hardware.specs import CS2_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig


class FabricFaultError(TransientError):
    """A wafer fabric/PE fault: a link or PE misbehaved mid-execution.

    The WSE carries spare PE rows precisely because single-PE faults are
    expected and recoverable; a re-run after remapping succeeds.
    """


class PlacementFlakeError(TransientError):
    """The placement service failed non-deterministically during compile."""


class CerebrasBackend(AcceleratorBackend):
    """CS-2 adapter for the DABench framework.

    ``compile`` options:

    * ``n_replicas`` — intra-chip data-parallel replica count (DP mode).
    * ``mode`` — ``"pipeline"`` (default) or ``"weight_streaming"``.
    """

    transient_errors = (TransientError, FabricFaultError,
                        PlacementFlakeError)
    # Audited for campaign concurrency: WSECompiler/WSERuntime hold only
    # constructor-time spec state, so concurrent compile/run is safe.
    thread_safe = True

    def __init__(self, system: SystemSpec = CS2_SYSTEM) -> None:
        super().__init__(system)
        self.compiler = WSECompiler(system)
        self.runtime = WSERuntime(system)

    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        return run_stages(self.compile_pipeline(model, train, **options))

    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> list[CompileStage]:
        if not self._staged_compile_intact(CerebrasBackend):
            return super().compile_pipeline(model, train, **options)
        return self.compiler.compile_stages(model, train, **options)

    def run(self, compiled: CompileReport) -> RunReport:
        return self.runtime.run(compiled)
