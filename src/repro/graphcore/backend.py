"""The Graphcore backend: DABench's view of Bow-2000 / Bow-Pod systems."""

from __future__ import annotations

from typing import Any

from repro.common.errors import OutOfMemoryError, TransientError
from repro.core.backend import AcceleratorBackend, CompileReport, RunReport
from repro.core.stages import CompileStage, run_stages
from repro.graphcore.compiler import IPUCompiler
from repro.graphcore.pipeline import PipelineExecutor
from repro.hardware.specs import BOW2000_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig


class TileOutOfMemoryError(OutOfMemoryError):
    """A pipeline stage outgrew its IPU's tile SRAM (Fig. 9d's wall).

    Permanent for the configuration: retrying cannot shrink the stage.
    The structured ``required_bytes`` / ``available_bytes`` show how far
    over budget the mapping was.
    """


class HostLinkError(TransientError):
    """The host/IPU link dropped mid-transfer; re-attaching recovers."""


class GraphcoreBackend(AcceleratorBackend):
    """Bow-2000 adapter for the DABench framework.

    ``compile`` options:

    * ``n_ipus`` — pipeline size (>= 2; embedding gets its own IPU).
    * ``layers_per_ipu`` — explicit decoder distribution (Fig. 11c).
    * ``micro_batches`` — in-flight micro-batches.
    """

    transient_errors = (TransientError, HostLinkError)
    # Audited for campaign concurrency: IPUCompiler/PipelineExecutor hold
    # only constructor-time spec state, so concurrent compile/run is safe.
    thread_safe = True

    def __init__(self, system: SystemSpec = BOW2000_SYSTEM) -> None:
        super().__init__(system)
        self.compiler = IPUCompiler(system)
        self.executor = PipelineExecutor(system)

    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        return run_stages(self.compile_pipeline(model, train, **options))

    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> list[CompileStage]:
        if not self._staged_compile_intact(GraphcoreBackend):
            return super().compile_pipeline(model, train, **options)
        return self.compiler.compile_stages(model, train, **options)

    def run(self, compiled: CompileReport) -> RunReport:
        return self.executor.run(compiled)
