"""The shared cell builder: what run_grid and Campaign keep different.

Both entry points run through ``repro.campaign.dispatch._run_lanes``;
they differ only in journal keys (bare spec label vs ``<lane>::<label>``)
and breakers (policy's, off by default, vs one per lane). Each
difference is pinned under thread and process dispatch.
"""

import gc
import warnings

import pytest

from repro.campaign import Campaign, CampaignLane
from repro.models.config import TrainConfig, gpt2_model
from repro.resilience import (
    ExecutionPolicy,
    FaultInjectingBackend,
    FaultPlan,
    FaultSpec,
    ShardedJournal,
    device_fault,
)
from repro.workloads.reference import CpuBoundBackend
from repro.workloads.sweeps import SweepSpec, run_grid

N_CELLS = 7
MODES = ("thread", "process")


def specs():
    train = TrainConfig(batch_size=4, seq_len=64)
    return [SweepSpec(label=f"L{n}",
                      model=gpt2_model("mini").with_layers(n),
                      train=train)
            for n in range(2, 2 + N_CELLS)]


def broken_backend():
    """Every compile hits a permanent device (infrastructure) fault."""
    plan = FaultPlan(specs=[FaultSpec(fault=device_fault, attempts=None)])
    return FaultInjectingBackend(CpuBoundBackend(spins_per_layer=10), plan)


@pytest.mark.parametrize("dispatch", MODES)
def test_run_grid_keys_bare_labels_and_runs_every_faulting_cell(
        tmp_path, dispatch):
    cells = run_grid(broken_backend(), specs(), policy=ExecutionPolicy(
        dispatch=dispatch, journal=ShardedJournal(tmp_path)))
    assert set(ShardedJournal(tmp_path).load()) == \
        {spec.label for spec in specs()}
    # No breaker by default: every cell executes and fails on its own.
    assert [cell.failure.type for cell in cells] == \
        ["DeviceFaultError"] * N_CELLS


@pytest.mark.parametrize("dispatch", MODES)
def test_campaign_keys_lane_labels_and_gates_after_threshold(
        tmp_path, dispatch):
    result = Campaign(
        [CampaignLane(broken_backend(), specs(), label="wse")],
        ExecutionPolicy(dispatch=dispatch, breaker_threshold=2,
                        breaker_reset=3600.0,
                        journal=ShardedJournal(tmp_path))).run()
    assert set(ShardedJournal(tmp_path).load()) == \
        {f"wse::{spec.label}" for spec in specs()}
    stats = result.stats["wse"]
    assert (stats.failed, stats.gated) == (2, N_CELLS - 2)
    assert [cell.failure.type for cell in result.cells["wse"]] == \
        ["DeviceFaultError"] * 2 + ["CircuitOpenError"] * (N_CELLS - 2)


def test_dispatch_closes_the_tracer_it_made(tmp_path):
    backend = CpuBoundBackend(spins_per_layer=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = Campaign([(backend, specs())], ExecutionPolicy(
            max_workers=2, trace=tmp_path / "trace")).run()
        gc.collect()
    assert result.observability[0].cells == N_CELLS
    assert [w for w in caught if issubclass(w.category, ResourceWarning)
            and "trace-" in str(w.message)] == []
