"""IPU pipeline compiler: layer grouping, tile allocation, memory checks.

Pipeline layout (paper Sec. III-C):

* IPU 0 hosts the embedding; with eight or more IPUs the LM head moves to
  dedicated IPUs (sharded across several at 16), otherwise it shares the
  embedding IPU.
* Decoder layers are grouped contiguously over the remaining IPUs —
  either balanced (default) or via an explicit ``layers_per_ipu``
  distribution (the nine configurations of Fig. 11c).

Tile allocation follows the same area law as the other dataflow chips:
useful parallelism grows as work^(2/3), so a single hidden-768 decoder
layer engages only ~a quarter of an IPU's 1,472 tiles — which is why
TFLOPs climb until about four layers per IPU before plateauing
(Fig. 9d).

Memory per IPU = code reserve + weights/grads/optimizer state of its
layers + stashed boundary activations for in-flight micro-batches.
Exceeding the ~900 MB In-Processor Memory raises
:class:`~repro.common.errors.OutOfMemoryError` — the paper's execution
failure at 10 layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.common.units import KB
from repro.core.backend import (
    CompileReport,
    MemoryBreakdown,
    PhaseProfile,
    TaskProfile,
)
from repro.core.stages import (
    STAGE_PARTITION,
    STAGE_PLACEMENT,
    STAGE_REPORT,
    CompileStage,
    run_stages,
)
from repro.graph.partition import balanced_groups
from repro.hardware.specs import BOW2000_SYSTEM, SystemSpec
from repro.models.config import ModelConfig, TrainConfig
from repro.models.costmodel import TransformerCostModel

# --- calibration constants -------------------------------------------------
# tiles = TILE_SCALE * (per-sample fwd+bwd FLOPs)^(2/3); ~720 tiles for one
# hidden-768 decoder layer, saturating an IPU's 1,472 tiles at three to
# four layers (Fig. 9d's TFLOPs plateau).
TILE_SCALE = 5.4e-5
# Skinny micro-batches underfill the AMP pipelines; utilization follows
# micro/(micro + half) normalized to 1.0 at the reference micro size.
# This is what makes IPU batch scaling near-linear at small batches
# (Fig. 12).
MICRO_UTIL_HALF = 6.0
MICRO_UTIL_REFERENCE = 4.0
# Sustained fraction of per-tile peak for the AMP (matmul) phase.
TILE_EFFICIENCY = 1.0
# Vector/scalar work, exchange phases, and BSP syncs take this multiple of
# the FP16 matmul time and are precision-insensitive — which is why mixed
# precision buys the IPU only ~20-30% (Table IV) and why sustained
# efficiency tops out near 30-40% of peak (Fig. 10c).
AUX_TIME_RATIO = 2.5
# Poplar code + vertex state reserved per tile.
CODE_BYTES_PER_TILE = 130 * KB
# Vocabulary matmuls (embedding gather, LM-head projection) are
# serialized: weight slices stream from Gateway DDR, so only a fraction
# of the table is tile-resident at once (PopART "serialized matmul").
VOCAB_SERIALIZATION = 4.0
# BSP superstep overhead per stage per micro-batch (sync + exchange setup).
STAGE_SYNC_SECONDS = 2.0e-4
# Default gradient-accumulation depth per pipeline stage (PopART's usual
# guidance: several micro-batches per stage to amortize fill/drain).
MICRO_BATCHES_PER_STAGE = 4
# 1F1B scheduling bounds the stashed micro-batches per stage to roughly
# the pipeline depth, not the full accumulation count.
STASH_EXTRA_MICROS = 2
# LM-head sharding by total pipeline size.
HEAD_IPUS_BY_SIZE = {1: 0, 2: 0, 4: 0, 8: 2, 16: 4}


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage (one IPU, or one shard of the LM head).

    Attributes:
        name: stage label.
        ipu_index: device index.
        n_layers: decoder layers assigned (0 for embedding/head stages).
        compute_seconds: service time per micro-batch.
        tiles_used: tiles engaged by the stage's kernels.
        weight_bytes: resident weights + grads + optimizer state.
        stash_bytes: activation stash at the configured micro count.
        flops_per_micro: FLOPs the stage performs per micro-batch.
    """

    name: str
    ipu_index: int
    n_layers: int
    compute_seconds: float
    tiles_used: float
    weight_bytes: float
    stash_bytes: float
    flops_per_micro: float


class IPUCompiler:
    """Maps an LLM training workload onto a Bow IPU pipeline."""

    def __init__(self, system: SystemSpec = BOW2000_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip

    # ------------------------------------------------------------------
    def compile(self, model: ModelConfig, train: TrainConfig,
                n_ipus: int = 2,
                layers_per_ipu: list[int] | None = None,
                micro_batches: int | None = None) -> CompileReport:
        """Compile a pipeline-parallel mapping.

        Args:
            n_ipus: total IPUs (>= 2: one for the embedding, the rest for
                decoders and, at >= 8, the LM head).
            layers_per_ipu: explicit decoder distribution over the
                decoder IPUs; balanced when omitted.
            micro_batches: in-flight micro-batches (gradient accumulation
                depth); defaults to ``train.grad_accumulation`` when > 1,
                else :data:`DEFAULT_MICRO_BATCHES`.
        """
        return run_stages(self.compile_stages(
            model, train, n_ipus=n_ipus, layers_per_ipu=layers_per_ipu,
            micro_batches=micro_batches))

    def compile_stages(self, model: ModelConfig, train: TrainConfig,
                       n_ipus: int = 2,
                       layers_per_ipu: list[int] | None = None,
                       micro_batches: int | None = None
                       ) -> list[CompileStage]:
        """:meth:`compile` as a staged pipeline (partition → placement
        → report).

        The IPU has no model-only graph stage: the pipeline layout
        (layer grouping over decoder IPUs, micro-batch schedule) is
        where its compile work starts, and it already depends on the
        IPU count — so the first stage is the partition. Defaults
        (balanced grouping, the micro-batch heuristic) are resolved and
        the layout validated eagerly, before any stage runs.
        """
        if n_ipus < 2:
            raise ConfigurationError(
                "training needs at least two IPUs (embedding + decoders)")
        if n_ipus > self.system.total_chips:
            raise ConfigurationError(
                f"{n_ipus} IPUs requested but {self.system.name} has "
                f"{self.system.total_chips}")
        head_ipus = HEAD_IPUS_BY_SIZE.get(n_ipus, max(0, n_ipus // 4))
        decoder_ipus = n_ipus - 1 - head_ipus
        if decoder_ipus < 1:
            raise ConfigurationError(
                f"{n_ipus} IPUs leave no decoder IPUs after embedding/head "
                "assignment")
        n_stages = (1 + sum(1 for _ in range(decoder_ipus)) + head_ipus
                    if layers_per_ipu is None
                    else 1 + sum(1 for c in layers_per_ipu if c > 0)
                    + head_ipus)
        if micro_batches is None:
            micro_batches = (train.grad_accumulation
                             if train.grad_accumulation > 1
                             else MICRO_BATCHES_PER_STAGE * n_stages)
        # Never schedule more micro-batches than there are samples.
        micro_batches = min(micro_batches, train.batch_size)
        micro_size = max(1, train.batch_size // micro_batches)
        # Training stashes boundary activations for every in-flight
        # micro-batch; inference only double-buffers.
        in_flight = (min(micro_batches, n_stages + STASH_EXTRA_MICROS)
                     if train.training else 2)

        if layers_per_ipu is None:
            groups = balanced_groups(
                list(range(model.n_layers)), decoder_ipus, lambda _i: 1.0)
            layers_per_ipu = [len(group) for group in groups]
        if len(layers_per_ipu) != decoder_ipus:
            raise ConfigurationError(
                f"layers_per_ipu has {len(layers_per_ipu)} entries for "
                f"{decoder_ipus} decoder IPUs")
        if sum(layers_per_ipu) != model.n_layers:
            raise ConfigurationError(
                f"layers_per_ipu sums to {sum(layers_per_ipu)}, model has "
                f"{model.n_layers} layers")
        resolved_layers = list(layers_per_ipu)

        def partition(_prev: None) -> tuple[StagePlan, ...]:
            return tuple(self._plan_stages(
                model, train, resolved_layers, head_ipus, micro_size,
                in_flight))

        def place(stages: tuple[StagePlan, ...]) -> dict[str, Any]:
            memories = tuple(
                self._check_memory(model, train, stage, micro_batches)
                for stage in stages)
            worst = max(memories, key=lambda m: m.utilization)
            return {"stages": stages, "memories": memories,
                    "worst": worst}

        def report(placed: dict[str, Any]) -> CompileReport:
            stages = placed["stages"]
            tasks = tuple(
                TaskProfile(
                    name=stage.name,
                    compute_units=stage.tiles_used,
                    memory_units=stage.tiles_used,
                    role="compute",
                    throughput=1.0 / stage.compute_seconds
                    if stage.compute_seconds > 0 else 0.0,
                    flops=stage.flops_per_micro,
                    meta={"ipu": stage.ipu_index,
                          "layers": stage.n_layers},
                )
                for stage in stages
            )
            bottleneck = max(stage.compute_seconds for stage in stages)
            step_estimate = (micro_batches + len(stages) - 1) * (
                bottleneck + STAGE_SYNC_SECONDS) * 3.0
            phase = PhaseProfile(name="pipeline", runtime=step_estimate,
                                 tasks=tasks)
            return CompileReport(
                platform=self.system.name,
                model=model,
                train=train,
                phases=(phase,),
                total_compute_units=float(
                    self.chip.compute_units * n_ipus),
                total_memory_units=float(
                    self.chip.memory_units * n_ipus),
                shared_memory=placed["worst"],
                global_memory=self._global_memory(model, train),
                n_chips=n_ipus,
                meta={
                    "n_ipus": n_ipus,
                    "layers_per_ipu": list(resolved_layers),
                    "micro_batches": micro_batches,
                    "micro_size": micro_size,
                    "stages": list(stages),
                    "stage_memories": list(placed["memories"]),
                    "step_flops": TransformerCostModel(model).step_flops(
                        train),
                },
            )

        return [
            CompileStage(STAGE_PARTITION, partition),
            CompileStage(STAGE_PLACEMENT, place),
            CompileStage(STAGE_REPORT, report),
        ]

    # ------------------------------------------------------------------
    def _tile_rate(self, train: TrainConfig) -> float:
        return (self.chip.flops_per_compute_unit
                * train.precision.compute.compute_scale / 2.0
                * TILE_EFFICIENCY)

    def _plan_stages(self, model: ModelConfig, train: TrainConfig,
                     layers_per_ipu: list[int], head_ipus: int,
                     micro_size: int,
                     in_flight: int) -> list[StagePlan]:
        cost = TransformerCostModel(model)
        micro = TrainConfig(batch_size=micro_size, seq_len=train.seq_len,
                            precision=train.precision)
        rate = self._tile_rate(train)
        fp16_rate = (self.chip.flops_per_compute_unit * TILE_EFFICIENCY)
        tiles_total = float(self.chip.compute_units)
        hidden_boundary = (micro_size * train.seq_len * model.hidden_size
                           * train.precision.activation_bytes_per_value)
        if train.training:
            state_per_param = (
                train.precision.weight_bytes_per_param * 2.0  # w + grads
                + train.precision.state_bytes_per_param)
        else:
            state_per_param = train.precision.weight_bytes_per_param

        def stage(name: str, ipu: int, n_layers: int, flops_fwd: float,
                  params: float, stash_tensors: float,
                  serialization: float = 1.0) -> StagePlan:
            flops = train.backward_multiplier * flops_fwd
            # Spatial parallelism follows per-sample work (tokens of a
            # micro-batch stream through the same vertices over time).
            per_sample = flops / micro_size
            tiles = min(tiles_total,
                        TILE_SCALE * per_sample ** (2.0 / 3.0))
            util = min(1.0, (micro_size / (micro_size + MICRO_UTIL_HALF))
                       * (MICRO_UTIL_REFERENCE + MICRO_UTIL_HALF)
                       / MICRO_UTIL_REFERENCE)
            matmul = flops / (tiles * rate * util)
            aux = AUX_TIME_RATIO * flops / (tiles * fp16_rate * util)
            compute = (matmul + aux) / train.backward_multiplier
            return StagePlan(
                name=name,
                ipu_index=ipu,
                n_layers=n_layers,
                compute_seconds=compute + STAGE_SYNC_SECONDS,
                tiles_used=tiles,
                weight_bytes=params * state_per_param / serialization,
                stash_bytes=stash_tensors * hidden_boundary * in_flight,
                flops_per_micro=flops,
            )

        stages: list[StagePlan] = []
        embed_fwd = cost.embedding_forward_flops(micro)
        head_fwd = cost.lm_head_forward_flops(micro)
        embed_params = cost.embedding_params()
        head_params = cost.lm_head_params() + cost.final_norm_params()
        if head_ipus == 0:
            stages.append(stage("embed+head", 0, 0, embed_fwd + head_fwd,
                                embed_params + head_params, 2.0,
                                serialization=VOCAB_SERIALIZATION))
        else:
            stages.append(stage("embed", 0, 0, embed_fwd, embed_params, 1.0,
                                serialization=VOCAB_SERIALIZATION))

        layer_fwd = cost.layer_forward_flops(micro)
        layer_params = cost.layer_params().total
        ipu = 1
        for count in layers_per_ipu:
            if count > 0:
                stages.append(stage(
                    f"decoders[{ipu}]", ipu, count, count * layer_fwd,
                    count * layer_params, float(count)))
            ipu += 1
        if head_ipus > 0:
            for shard in range(head_ipus):
                stages.append(stage(
                    f"head.shard{shard}", ipu + shard, 0,
                    head_fwd / head_ipus, head_params / head_ipus, 1.0,
                    serialization=VOCAB_SERIALIZATION))
        return stages

    def _check_memory(self, model: ModelConfig, train: TrainConfig,
                      stage: StagePlan,
                      micro_batches: int) -> MemoryBreakdown:
        capacity = self.chip.shared_memory.capacity_bytes
        code = CODE_BYTES_PER_TILE * self.chip.compute_units
        breakdown = MemoryBreakdown(
            capacity_bytes=capacity,
            configuration_bytes=code,
            weight_bytes=stage.weight_bytes,
            activation_bytes=stage.stash_bytes,
        )
        if breakdown.total_bytes > capacity:
            raise OutOfMemoryError(
                f"{model.name}: stage {stage.name!r} needs "
                f"{breakdown.total_bytes / 1e6:.0f} MB of In-Processor "
                f"Memory, IPU has {capacity / 1e6:.0f} MB "
                f"({stage.n_layers} layers, {micro_batches} micro-batches)",
                required_bytes=breakdown.total_bytes,
                available_bytes=capacity,
            )
        return breakdown

    def _global_memory(self, model: ModelConfig,
                       train: TrainConfig) -> MemoryBreakdown:
        cost = TransformerCostModel(model)
        return MemoryBreakdown(
            capacity_bytes=self.chip.global_memory.capacity_bytes,
            weight_bytes=cost.weight_bytes(train),
            optimizer_bytes=cost.optimizer_state_bytes(train),
        )

    # ------------------------------------------------------------------
    def max_layers(self, model: ModelConfig, train: TrainConfig,
                   n_ipus: int = 2, upper: int = 64) -> int:
        """Largest layer count that fits (binary search) — Fig. 9d's limit."""
        lo, hi = 0, upper
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                self.compile(model.with_layers(mid), train, n_ipus=n_ipus)
            except OutOfMemoryError:
                hi = mid - 1
            else:
                lo = mid
        return lo


def meta_of(report: CompileReport, key: str) -> Any:
    """Typed-ish accessor for IPU compile metadata."""
    return report.meta[key]
