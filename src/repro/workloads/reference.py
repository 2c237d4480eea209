"""A CPU-bound reference backend for dispatch benchmarking.

The bundled platform simulators are analytic — a cell costs
microseconds of Python, so thread and process dispatch are
indistinguishable on wall-clock and a speedup benchmark over them
measures nothing. :class:`CpuBoundBackend` closes that gap: it is a
real :class:`~repro.core.backend.AcceleratorBackend` whose compile and
run phases *burn actual CPU* in pure Python, proportional to the
model's layer count. Under the GIL a thread pool cannot overlap such
cells; a process pool can — exactly the contrast
``benchmarks/test_process_dispatch.py`` pins.

Everything about it is deterministic and picklable: the burn is a
fixed-point iteration whose checksum lands in the report ``meta``, so
two runs of the same grid produce identical reports whatever the
dispatch mode.
"""

from __future__ import annotations

from typing import Any

from repro.core.backend import (
    AcceleratorBackend,
    CompileReport,
    MemoryBreakdown,
    PhaseProfile,
    RunReport,
    TaskProfile,
)
from repro.core.stages import (
    STAGE_GRAPH,
    STAGE_REPORT,
    CompileStage,
    run_stages,
)
from repro.hardware.specs import ChipSpec, MemoryLevel, SystemSpec
from repro.models.config import ModelConfig, TrainConfig

GiB = float(2 ** 30)

#: A nominal single-core "chip": the numbers only have to be positive
#: and stable — the backend's cost is the Python burn, not the model.
CPU_REF_CHIP = ChipSpec(
    name="cpu-ref",
    vendor="reference",
    compute_units=1,
    compute_unit_name="core",
    memory_units=1,
    memory_unit_name="core",
    peak_flops=1.0e12,
    shared_memory=MemoryLevel(name="cache", capacity_bytes=32 * 2 ** 20,
                              bandwidth=100.0 * GiB),
    global_memory=MemoryLevel(name="DRAM", capacity_bytes=16 * GiB,
                              bandwidth=50.0 * GiB),
    fabric_bandwidth=10.0 * GiB,
)

CPU_REF_SYSTEM = SystemSpec(name="cpu-ref", chip=CPU_REF_CHIP)


def _burn(iterations: int, seed: int) -> int:
    """A pure-Python CPU burn with a deterministic checksum.

    A multiply-xor chain the interpreter cannot elide; the result
    depends on every iteration, so the work provably happened.
    """
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF
    for _ in range(iterations):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        state ^= state >> 13
    return state


class CpuBoundBackend(AcceleratorBackend):
    """Burns real CPU per cell; deterministic, picklable, GIL-bound.

    ``spins_per_layer`` scales the burn: each compile spins
    ``n_layers * spins_per_layer`` iterations and each run half that,
    so grids over layer counts are genuinely unbalanced — the shape
    scheduler benchmarks want.
    """

    def __init__(self, spins_per_layer: int = 20_000) -> None:
        super().__init__(CPU_REF_SYSTEM)
        self.spins_per_layer = spins_per_layer

    def fingerprint_extra(self) -> dict[str, Any]:
        # The burn length lands in the report checksums, so two burn
        # factors must never share a cache entry.
        return {"spins_per_layer": self.spins_per_layer}

    def compile(self, model: ModelConfig, train: TrainConfig,
                **options: Any) -> CompileReport:
        return run_stages(self.compile_stages(model, train, **options))

    def compile_pipeline(self, model: ModelConfig, train: TrainConfig,
                         **options: Any) -> list[CompileStage]:
        if not self._staged_compile_intact(CpuBoundBackend):
            return super().compile_pipeline(model, train, **options)
        return self.compile_stages(model, train, **options)

    def compile_stages(self, model: ModelConfig,
                       train: TrainConfig) -> list[CompileStage]:
        """Two stages: the layer-proportional burn, then assembly."""
        def build_graph(_prev: Any) -> int:
            return _burn(model.n_layers * self.spins_per_layer,
                         seed=model.n_layers)

        def report(checksum: int) -> CompileReport:
            task = TaskProfile(name="burn", compute_units=1.0,
                               memory_units=1.0, throughput=1.0,
                               flops=float(model.n_layers))
            phase = PhaseProfile(name="graph", runtime=1.0,
                                 tasks=(task,))
            return CompileReport(
                platform=self.name, model=model, train=train,
                phases=(phase,), total_compute_units=1.0,
                total_memory_units=1.0,
                shared_memory=MemoryBreakdown(
                    capacity_bytes=(
                        CPU_REF_CHIP.shared_memory.capacity_bytes),
                    weight_bytes=float(model.n_layers)),
                meta={"checksum": checksum})

        return [
            CompileStage(STAGE_GRAPH, build_graph),
            CompileStage(STAGE_REPORT, report),
        ]

    def run(self, compiled: CompileReport) -> RunReport:
        model = compiled.model
        checksum = _burn(model.n_layers * self.spins_per_layer // 2,
                         seed=model.n_layers + 1)
        step_time = float(model.n_layers)
        tokens = compiled.train.tokens_per_step / step_time
        return RunReport(
            platform=self.name,
            tokens_per_second=tokens,
            samples_per_second=compiled.train.batch_size / step_time,
            step_time=step_time,
            achieved_flops=1.0e9 * model.n_layers,
            phases=compiled.phases,
            meta={"checksum": checksum})
