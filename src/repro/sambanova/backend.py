"""The SambaNova backend: DABench's view of the SN30 system."""

from __future__ import annotations

from typing import Any

from repro.common.errors import TransientError
from repro.core.backend import AcceleratorBackend, CompileReport, RunReport
from repro.core.stages import CompileStage, run_stages
from repro.hardware.specs import SN30_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.sambanova.compiler import RDUCompiler
from repro.sambanova.runtime import RDURuntime


class SectionStallError(TransientError):
    """A section failed to make progress loading onto the RDU.

    Section swaps stage weights through DDR; a stalled DMA or a slow
    host queue shows up as a section that never starts. Re-running the
    step reloads the section and usually succeeds.
    """

    def __init__(self, message: str, *, section: str = "") -> None:
        super().__init__(message)
        self.section = section


class SambaNovaBackend(AcceleratorBackend):
    """SN30 adapter for the DABench framework.

    ``compile`` options:

    * ``mode`` — compilation mode: ``"O0"``, ``"O1"`` (default), ``"O3"``.
    * ``tp`` — tensor-parallel degree across RDUs (2 per machine).
    """

    transient_errors = (TransientError, SectionStallError)
    # Audited for campaign concurrency: RDUCompiler/RDURuntime hold only
    # constructor-time spec state, so concurrent compile/run is safe.
    thread_safe = True

    def __init__(self, system: SystemSpec = SN30_SYSTEM) -> None:
        super().__init__(system)
        self.compiler = RDUCompiler(system)
        self.runtime = RDURuntime(system)

    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        return run_stages(self.compile_pipeline(model, train, **options))

    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> list[CompileStage]:
        if not self._staged_compile_intact(SambaNovaBackend):
            return super().compile_pipeline(model, train, **options)
        return self.compiler.compile_stages(model, train, **options)

    def run(self, compiled: CompileReport) -> RunReport:
        return self.runtime.run(compiled)
