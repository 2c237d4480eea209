"""WSE-2 runtime: the kernel pipeline, timed by its max-plus recurrence.

Samples flow through the kernel chain in a data-driven fashion; the
number of in-flight samples is bounded by the pipeline depth the memory
planner granted. That makes the pipeline a tandem queue with
deterministic service times and bounded work in progress, whose every
start and end time follows from a closed recurrence (see
:meth:`WSERuntime._simulate_pipeline`) — no event loop needed.
Steady-state throughput is therefore
``min(1/t_bottleneck, depth / sum(t_k))`` — which is what produces the
paper's batch-size saturation on WSE (Fig. 12: strong gains below ~200,
little beyond) and the TFLOPs collapse when configuration memory starves
the pipeline (Fig. 9a).
"""

from __future__ import annotations

import math

from repro.common.errors import SimulationError
from repro.core.backend import CompileReport, PhaseProfile, RunReport, TaskProfile
from repro.hardware.specs import CS2_SYSTEM, SystemSpec
from repro.sim.trace import Trace

# Relative efficiency of weight-streaming execution (layer-sequential
# scheduling leaves bubbles between layer swaps) — calibrated to the
# paper's ~20% throughput reduction (Sec. VI-A3a).
WEIGHT_STREAMING_EFFICIENCY = 0.8
# Fraction of a PE's fabric links available at a replica boundary.
FABRIC_LINKS_PER_PE = 5


class WSERuntime:
    """Executes a compiled WSE-2 mapping and measures throughput."""

    def __init__(self, system: SystemSpec = CS2_SYSTEM) -> None:
        self.system = system
        self.chip = system.chip

    # ------------------------------------------------------------------
    def run(self, compiled: CompileReport) -> RunReport:
        """Simulate one optimizer step; returns measured results."""
        meta = compiled.meta
        order: list[str] = meta["kernel_order"]
        service: dict[str, float] = meta["service_times"]
        depth = max(1, int(meta["pipeline_depth"]))
        batch = int(meta["per_replica_batch"])
        n_replicas = int(meta["n_replicas"])
        mode = meta["mode"]

        trace = Trace()
        pipeline_time = self._simulate_pipeline(order, service, depth,
                                                batch, trace)
        sync_time = self._replica_sync_time(compiled, n_replicas)
        step_time = pipeline_time + sync_time
        if mode == "weight_streaming":
            step_time = max(step_time / WEIGHT_STREAMING_EFFICIENCY,
                            self._stream_time(compiled))

        samples = batch * n_replicas
        samples_per_s = samples / step_time
        train = compiled.train
        tokens_per_s = samples_per_s * train.seq_len
        flops_per_sample = meta["flops_per_sample"]
        achieved = samples_per_s * flops_per_sample

        tasks = self._measured_tasks(compiled, trace)
        phase = PhaseProfile(name="graph", runtime=step_time, tasks=tasks)
        weight_bytes = sum(meta["kernel_weight_bytes"].values())
        boundary = sum(meta["boundary_bytes"].values())
        traffic = samples * boundary * 2.0 + weight_bytes * 3.0
        return RunReport(
            platform=compiled.platform,
            tokens_per_second=tokens_per_s,
            samples_per_second=samples_per_s,
            step_time=step_time,
            achieved_flops=achieved,
            phases=(phase,),
            global_traffic_bytes_per_step=traffic,
            trace=trace,
            meta={
                "mode": mode,
                "n_replicas": n_replicas,
                "pipeline_time": pipeline_time,
                "sync_time": sync_time,
                "compute_fraction": pipeline_time / step_time,
            },
        )

    # ------------------------------------------------------------------
    def _simulate_pipeline(self, order: list[str],
                           service: dict[str, float], depth: int,
                           batch: int, trace: Trace) -> float:
        """Tandem queue with bounded work in progress; returns makespan.

        Each kernel serves one sample at a time, in arrival order, and
        sample ``k`` enters the first kernel only once sample
        ``k - depth`` has left the last one. With ``s_j`` the service
        time of kernel ``j`` this is the max-plus recurrence::

            begin[k, j] = max(end[k, j-1], end[k-1, j])
            end[k, j]   = begin[k, j] + s_j

        where ``end[k, -1]``, the admission time, is ``end[k-depth,
        last]`` (0 for the first ``depth`` samples). The times are the
        ones an event-driven simulation of the same queue produces, bit
        for bit: each is the same single float addition. Kernel ``j``'s
        intervals go to ``trace`` as one :meth:`Trace.extend` block.
        """
        if not order:
            raise SimulationError("empty kernel pipeline")
        times = [service[name] for name in order]
        n = len(times)
        last = n - 1
        # Row-major: sample k's interval at kernel j sits at k * n + j.
        starts: list[float] = []
        ends: list[float] = []
        add_start, add_end = starts.append, ends.append
        free = [0.0] * n  # end[k-1, j]: when kernel j is next free
        for k in range(batch):
            ready = ends[(k - depth) * n + last] if k >= depth else 0.0
            for j in range(n):
                begin = free[j]
                if ready > begin:
                    begin = ready
                ready = begin + times[j]
                free[j] = ready
                add_start(begin)
                add_end(ready)
        for j, name in enumerate(order):
            trace.extend(name, starts[j::n], ends[j::n])
        return ends[-1] if ends else 0.0

    # ------------------------------------------------------------------
    def _replica_sync_time(self, compiled: CompileReport,
                           n_replicas: int) -> float:
        """Ring all-reduce of gradients across replica boundaries.

        Each boundary is a column of PEs whose fabric links carry the
        reduction; with two replicas the paper notes placement makes the
        communication distance effectively zero, and the cost indeed
        stays negligible here, growing with replica count.
        """
        if n_replicas <= 1:
            return 0.0
        grad_bytes = sum(compiled.meta["kernel_weight_bytes"].values())
        per_link = self.chip.fabric_bandwidth / (
            self.chip.compute_units * FABRIC_LINKS_PER_PE)
        boundary_links = int(math.sqrt(self.chip.compute_units))
        boundary_bw = per_link * boundary_links
        volume = 2.0 * (n_replicas - 1) / n_replicas * grad_bytes
        # Beyond two replicas, optimal adjacency is no longer achievable
        # (Sec. VI-A3a): reductions relay through intermediate regions,
        # serializing across the replica chain.
        relay_hops = max(1, n_replicas - 1)
        return volume * relay_hops / boundary_bw

    def _stream_time(self, compiled: CompileReport) -> float:
        """Time to stream one full weight set from MemoryX per step."""
        weight_bytes = sum(compiled.meta["kernel_weight_bytes"].values())
        return weight_bytes / self.system.host_link_bandwidth

    def _measured_tasks(self, compiled: CompileReport,
                        trace: Trace) -> tuple[TaskProfile, ...]:
        """Compile-time tasks with throughput replaced by measured rates."""
        measured: list[TaskProfile] = []
        for task in compiled.phases[0].tasks:
            bare_name = task.name.split("/", 1)[-1]
            throughput = trace.task_throughput(bare_name)
            measured.append(TaskProfile(
                name=task.name,
                compute_units=task.compute_units,
                memory_units=task.memory_units,
                role=task.role,
                throughput=throughput if task.role == "compute" else 0.0,
                flops=task.flops,
                meta=dict(task.meta),
            ))
        return tuple(measured)
