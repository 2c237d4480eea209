"""The GPU backend: DABench's view of the A100 reference cluster."""

from __future__ import annotations

from typing import Any

from repro.common.errors import TransientError
from repro.core.backend import (
    AcceleratorBackend,
    CompileReport,
    MemoryBreakdown,
    PhaseProfile,
    RunReport,
    TaskProfile,
)
from repro.core.stages import (
    STAGE_PARTITION,
    STAGE_REPORT,
    CompileStage,
    run_stages,
)
from repro.gpu.simulator import GPUClusterModel
from repro.hardware.specs import GPU_CLUSTER, SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.models.costmodel import TransformerCostModel


class NcclTimeoutError(TransientError):
    """A collective timed out (straggler or flaky NIC); re-runs recover."""


class EccRetryError(TransientError):
    """A corrected ECC memory event forced a step replay."""


class GPUBackend(AcceleratorBackend):
    """A100-cluster adapter for the DABench framework.

    ``compile`` options: ``tp``, ``pp``, ``dp`` (parallel degrees) and
    ``micro_batches``. GPUs are BSP devices, so "compile" here is just
    configuration validation plus the analytic plan — there is no
    dataflow mapping step.
    """

    transient_errors = (TransientError, NcclTimeoutError, EccRetryError)
    # Audited for campaign concurrency: GPUClusterModel holds only
    # constructor-time spec state, so concurrent compile/run is safe.
    thread_safe = True

    def __init__(self, system: SystemSpec = GPU_CLUSTER) -> None:
        super().__init__(system)
        self.model_ = GPUClusterModel(system)

    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        return run_stages(self.compile_stages(model, train, **options))

    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> list[CompileStage]:
        if not self._staged_compile_intact(GPUBackend):
            return super().compile_pipeline(model, train, **options)
        return self.compile_stages(model, train, **options)

    def compile_stages(self, model: ModelConfig, train: TrainConfig,
                       tp: int = 1, pp: int = 1, dp: int = 1,
                       micro_batches: int | None = None) -> list[CompileStage]:
        """Two-stage pipeline: analytic plan, then report assembly.

        GPUs are BSP devices with no dataflow mapping, so the whole
        "compile" is the cost-model breakdown; there is no model-only
        graph stage.
        """
        n_gpus = self.model_.validate(tp, pp, dp)

        def partition(_prev: Any) -> Any:
            return self.model_.step_breakdown(model, train, tp, pp, dp,
                                              micro_batches)

        def report(breakdown: Any) -> CompileReport:
            cost = TransformerCostModel(model)
            per_gpu_state = (cost.weight_bytes(train)
                             + cost.gradient_bytes(train)
                             + cost.optimizer_state_bytes(train)) / (tp * pp)
            chip = self.system.chip
            tasks = tuple(
                TaskProfile(
                    name=f"gpu{i}",
                    compute_units=float(chip.compute_units),
                    memory_units=float(chip.compute_units),
                    role="compute",
                    throughput=1.0 / breakdown.total_seconds,
                    flops=cost.step_flops(train) / n_gpus,
                )
                for i in range(min(n_gpus, 8))  # representative node
            )
            memory = MemoryBreakdown(
                capacity_bytes=chip.global_memory.capacity_bytes,
                weight_bytes=per_gpu_state,
                activation_bytes=cost.activation_bytes(train) / n_gpus,
            )
            phase = PhaseProfile(name="step",
                                 runtime=breakdown.total_seconds,
                                 tasks=tasks)
            return CompileReport(
                platform=self.system.name,
                model=model,
                train=train,
                phases=(phase,),
                total_compute_units=float(chip.compute_units * n_gpus),
                total_memory_units=float(chip.compute_units * n_gpus),
                shared_memory=memory,
                global_memory=memory,
                n_chips=n_gpus,
                meta={
                    "tp": tp, "pp": pp, "dp": dp,
                    "breakdown": breakdown,
                    "step_flops": cost.step_flops(train),
                },
            )

        return [
            CompileStage(STAGE_PARTITION, partition),
            CompileStage(STAGE_REPORT, report),
        ]

    def run(self, compiled: CompileReport) -> RunReport:
        breakdown = compiled.meta["breakdown"]
        train = compiled.train
        step_flops = compiled.meta["step_flops"]
        step_time = breakdown.total_seconds
        return RunReport(
            platform=compiled.platform,
            tokens_per_second=train.tokens_per_step / step_time,
            samples_per_second=train.batch_size / step_time,
            step_time=step_time,
            achieved_flops=step_flops / step_time,
            phases=compiled.phases,
            meta={
                "compute_fraction": breakdown.compute_fraction,
                "per_gpu_flops": step_flops / step_time / compiled.n_chips,
                "tp": compiled.meta["tp"],
                "pp": compiled.meta["pp"],
                "dp": compiled.meta["dp"],
            },
        )
