"""The benchmark's workloads: seeded real-backend campaign grids.

Each workload is a set of campaign lanes (one backend and its sweep
specs) plus how the campaign executes them. The grids follow the
paper's evaluation: Table I (WSE layers), Fig. 7/9 (RDU modes along
the layer and hidden axes, IPU layers), Fig. 12 (WSE batch) and
Table III (WSE DP and weight streaming, IPU PP, RDU TP, GPU T/P/D).

Seed 0 gives the paper's exact axes in the paper's order. Any other
seed jitters the interior sweep points by a layer or two or a few
percent of batch, inside the paper's ranges and keeping each axis's
end points (so every seed keeps the capability failures at WSE 78
layers and IPU 10 layers), and shuffles the cell order within each
lane. The jitter is small on purpose: it changes which cells run
without changing how much work a grid holds by more than about 1%,
so timings from different seeds stay comparable. The WSE lanes,
whose runs dominate the grid, move least: a jitter of 10% there
changed a seed's campaign time by up to 7%.

The program under test only ever sees the generated ``SweepSpec``s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro import (
    BOW_POD,
    CerebrasBackend,
    GPUBackend,
    GraphcoreBackend,
    SambaNovaBackend,
    TrainConfig,
    gpt2_model,
    llama2_model,
)
from metrics import CACHE_RERUN, WORKLOADS
from repro.core.backend import AcceleratorBackend
from repro.models.precision import Precision, PrecisionPolicy
from repro.workloads import (
    SweepSpec,
    decoder_block_probe,
    paper_rdu_hidden_sweep_o0_o3,
    paper_rdu_hidden_sweep_o1,
)

BF16 = PrecisionPolicy.pure(Precision.BF16)

# The paper's axes (see benchmarks/paper_data.py and the figure tests).
TABLE1_LAYERS = [1, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72, 78]
FIG7_LAYERS = [4, 8, 12, 16, 24, 32]
FIG9_WSE_LAYERS = [6, 12, 18, 24, 30, 36, 48, 60, 72]
FIG9_IPU_LAYERS = [1, 2, 4, 6, 8, 9, 10]
FIG12_WSE_BATCHES = [32, 64, 128, 200, 256, 400, 512]
TABLE3_IPU = [(4, 6), (4, 12), (8, 18), (8, 24),
              (16, 30), (16, 36), (16, 42), (16, 48)]
TABLE3_RDU_TP = [2, 4, 8]
TABLE3_GPU = [(8, 1, 1), (4, 2, 1), (2, 4, 1), (1, 8, 1),
              (8, 8, 16), (4, 4, 64)]


@dataclass
class Lane:
    """One campaign lane: a label, its backend and its specs."""

    label: str
    backend: AcceleratorBackend
    specs: list[SweepSpec] = field(default_factory=list)


@dataclass
class Workload:
    """A generated grid and how the campaign runs it.

    ``dispatch`` is the policy's dispatch mode; ``cached`` runs a cold
    pass into a fresh cache directory and then a warm pass reading it
    back.
    """

    name: str
    seed: int
    lanes: list[Lane]
    dispatch: str = "thread"
    cached: bool = False

    @property
    def cells(self) -> int:
        return sum(len(lane.specs) for lane in self.lanes)

    def limited(self, per_lane: int) -> "Workload":
        """The same workload keeping the first ``per_lane`` cells of
        each lane (for quick checks of the benchmark itself)."""
        lanes = [Lane(lane.label, lane.backend, lane.specs[:per_lane])
                 for lane in self.lanes]
        return Workload(self.name, self.seed, lanes, self.dispatch,
                        self.cached)


class _Axes:
    """Seeded jitter of sweep axes; seed 0 is the identity."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def ints(self, points: list[int], spread: float = 0.0,
             step: int = 1) -> list[int]:
        """Jitter the interior points of a sorted integer axis.

        Each interior point moves by at most ``spread`` of its value
        (at least ``step``), rounded to a multiple of ``step``, and
        stays strictly between its neighbours; end points never move.
        """
        if self.seed == 0 or len(points) < 3:
            return list(points)
        out = list(points)
        for i in range(1, len(points) - 1):
            reach = max(step, int(points[i] * spread) // step * step)
            lo = max(out[i - 1] + step, points[i] - reach)
            hi = min(points[i + 1] - step, points[i] + reach)
            choices = [v for v in range(lo, hi + 1) if v % step == 0]
            out[i] = self.rng.choice(choices) if choices else points[i]
        return out

    def shuffled(self, specs: list[SweepSpec]) -> list[SweepSpec]:
        if self.seed == 0:
            return specs
        specs = list(specs)
        self.rng.shuffle(specs)
        return specs


def _spec(label: str, model: Any, train: TrainConfig,
          **options: Any) -> SweepSpec:
    return SweepSpec(label, model, train, dict(options))


def _paper_lanes(axes: _Axes) -> list[Lane]:
    wse, rdu = Lane("WSE", CerebrasBackend()), Lane("RDU", SambaNovaBackend())
    ipu, pod = Lane("IPU", GraphcoreBackend()), Lane(
        "IPU-POD", GraphcoreBackend(BOW_POD))
    gpu = Lane("GPU", GPUBackend())
    small = gpt2_model("small")

    # Table I: WSE allocation vs layers; 78 layers must fail.
    train = TrainConfig(batch_size=64, seq_len=1024)
    for n in axes.ints(TABLE1_LAYERS, spread=0.03):
        wse.specs.append(_spec(f"t1/L{n}", small.with_layers(n), train))
    # Fig. 9a: WSE memory and TFLOPs vs layers at batch 256.
    train = TrainConfig(batch_size=256, seq_len=1024)
    for n in axes.ints(FIG9_WSE_LAYERS, spread=0.03):
        wse.specs.append(_spec(f"f9a/L{n}", small.with_layers(n), train))
    # Fig. 12: WSE batch scaling.
    train = TrainConfig(batch_size=8, seq_len=1024)
    for b in axes.ints(FIG12_WSE_BATCHES, spread=0.03, step=8):
        wse.specs.append(_spec(f"f12/b{b}", small,
                               train.with_batch_size(b)))
    # Table III: WSE data parallelism and weight streaming.
    train = TrainConfig(batch_size=256, seq_len=1024)
    for label, size, options in (
            ("dp0", "small", {"n_replicas": 1}),
            ("dp2", "small", {"n_replicas": 2}),
            ("dp4", "mini", {"n_replicas": 4}),
            ("dp8", "tiny", {"n_replicas": 8}),
            ("stream", "small", {"mode": "weight_streaming"})):
        wse.specs.append(_spec(f"t3/{label}", gpt2_model(size), train,
                               **options))

    # Fig. 7a: RDU allocation vs layers, three modes.
    train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    for n in axes.ints(FIG7_LAYERS, spread=0.15):
        for mode in ("O0", "O1", "O3"):
            rdu.specs.append(_spec(f"f7a/L{n}/{mode}",
                                   small.with_layers(n), train, mode=mode))
    # Fig. 7b: RDU allocation vs hidden size.
    for model in paper_rdu_hidden_sweep_o0_o3(n_layers=8):
        for mode in ("O0", "O3"):
            rdu.specs.append(_spec(f"f7b/H{model.hidden_size}/{mode}",
                                   model, train, mode=mode))
    o1_train = TrainConfig(batch_size=8, seq_len=2048, precision=BF16)
    for model in paper_rdu_hidden_sweep_o1(n_layers=4):
        rdu.specs.append(_spec(f"f7b/H{model.hidden_size}/O1", model,
                               o1_train, mode="O1"))
    # Table III: RDU tensor parallelism on LLaMA-2 7B.
    train = TrainConfig(batch_size=8, seq_len=4096, precision=BF16)
    for tp in TABLE3_RDU_TP:
        rdu.specs.append(_spec(f"t3/tp{tp}", llama2_model("7b"), train,
                               mode="O1", tp=tp))

    # Fig. 9d: IPU layers on two IPUs; 10 layers must fail.
    train = TrainConfig(batch_size=32, seq_len=1024)
    for n in axes.ints(FIG9_IPU_LAYERS):
        ipu.specs.append(_spec(f"f9d/L{n}", small.with_layers(n), train,
                               n_ipus=2))
    # Table III: IPU pipeline parallelism on a POD.
    train = TrainConfig(batch_size=128, seq_len=1024)
    for n_ipus, layers in TABLE3_IPU:
        pod.specs.append(_spec(f"t3/{n_ipus}PP/L{layers}",
                               decoder_block_probe(768, layers), train,
                               n_ipus=n_ipus))

    # Table III: GPU reference configurations.
    train = TrainConfig(batch_size=64, seq_len=1024,
                        precision=PrecisionPolicy.mixed(Precision.BF16))
    for tp, pp, dp in TABLE3_GPU:
        gpu.specs.append(_spec(
            f"t3/T{tp}P{pp}D{dp}", gpt2_model("xlarge"),
            train.with_batch_size(64 * dp), tp=tp, pp=pp, dp=dp,
            micro_batches=128 if dp > 1 else None))
    return [wse, rdu, ipu, pod, gpu]


def generate(name: str, seed: int) -> Workload:
    """Build workload ``name`` for ``seed`` (backends included)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    axes = _Axes(seed)
    workload = Workload(name, seed, _paper_lanes(axes))
    if name == CACHE_RERUN:
        workload.dispatch, workload.cached = "process", True
    for lane in workload.lanes:
        lane.specs = axes.shuffled(lane.specs)
    return workload
