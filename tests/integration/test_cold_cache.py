"""A cold campaign on the four real backends, with and without a cache.

The contracts:

* a cold run with ``cache=DIR`` is indistinguishable from an uncached
  run: byte-identical merged journal and identical report (minus the
  wall-clock Scheduling and Supervision blocks), under thread *and*
  process dispatch, expected capability failures included;
* afterwards the cache directory holds exactly one
  ``<fp[:2]>/<fp>.pkl`` entry per clean cell, plus the run ledger
  (``ledger.json``) — no entry for a failed cell, and nothing else.

Timing is deliberately not asserted here: the benchmark under
``perfbench/`` measures it.
"""

from pathlib import Path

import pytest

from repro.cache import cell_fingerprint
from repro.campaign import Campaign, CampaignLane
from repro.cerebras.backend import CerebrasBackend
from repro.gpu.backend import GPUBackend
from repro.graphcore.backend import GraphcoreBackend
from repro.models.config import TrainConfig, gpt2_model
from repro.models.precision import Precision, PrecisionPolicy
from repro.resilience import ExecutionPolicy, ShardedJournal
from repro.sambanova.backend import SambaNovaBackend
from repro.workloads.sweeps import SweepSpec

from .test_cache import stable_report

SMALL = gpt2_model("small")
BF16 = PrecisionPolicy.pure(Precision.BF16)
#: Labels of the cells the paper reports as failing to compile.
EXPECTED_FAILURES = {"WSE::t1/L78", "IPU::f9d/L10"}


def lanes():
    """A small paper grid: Table I, Fig. 7a, Fig. 9d and Table III."""
    wse_train = TrainConfig(batch_size=64, seq_len=1024)
    wse = [SweepSpec(f"t1/L{n}", SMALL.with_layers(n), wse_train)
           for n in (1, 6, 78)]
    wse.append(SweepSpec("t3/dp2", gpt2_model("mini"),
                         TrainConfig(batch_size=16, seq_len=256),
                         {"n_replicas": 2}))
    rdu_train = TrainConfig(batch_size=16, seq_len=1024, precision=BF16)
    rdu = [SweepSpec(f"f7a/L4/{mode}", SMALL.with_layers(4), rdu_train,
                     {"mode": mode}) for mode in ("O0", "O1", "O3")]
    ipu_train = TrainConfig(batch_size=32, seq_len=1024)
    ipu = [SweepSpec(f"f9d/L{n}", SMALL.with_layers(n), ipu_train,
                     {"n_ipus": 2}) for n in (2, 10)]
    gpu_train = TrainConfig(batch_size=64, seq_len=1024,
                            precision=PrecisionPolicy.mixed(
                                Precision.BF16))
    gpu = [SweepSpec(f"t3/T{tp}P{pp}D1", gpt2_model("xlarge"),
                     gpu_train, {"tp": tp, "pp": pp, "dp": 1})
           for tp, pp in ((8, 1), (4, 2))]
    return [CampaignLane(CerebrasBackend(), wse, label="WSE"),
            CampaignLane(SambaNovaBackend(), rdu, label="RDU"),
            CampaignLane(GraphcoreBackend(), ipu, label="IPU"),
            CampaignLane(GPUBackend(), gpu, label="GPU")]


def run(tmp_path, tag, dispatch, cache=None):
    policy = ExecutionPolicy(max_workers=2, dispatch=dispatch,
                             journal=ShardedJournal(tmp_path / tag),
                             cache=cache)
    grid = lanes()
    result = Campaign(grid, policy).run()
    failed = {f"{label}::{cell.spec.label}"
              for label in result.labels
              for cell in result.cells[label] if cell.failed}
    assert failed == EXPECTED_FAILURES
    return grid, result


def tree(root: Path) -> set[str]:
    """Every file and directory under ``root``, relative, as posix."""
    return {path.relative_to(root).as_posix()
            for path in root.rglob("*")}


@pytest.mark.parametrize("dispatch", ["thread", "process"])
def test_cached_cold_campaign_matches_uncached(tmp_path, dispatch):
    _, plain = run(tmp_path, "plain", dispatch)
    grid, cached = run(tmp_path, "cached", dispatch,
                       cache=tmp_path / "cache")
    assert (ShardedJournal(tmp_path / "plain").merged_text()
            == ShardedJournal(tmp_path / "cached").merged_text())
    assert stable_report(plain) == stable_report(cached)

    expected = {"ledger.json"}
    for lane in grid:
        for spec in lane.specs:
            if f"{lane.label}::{spec.label}" in EXPECTED_FAILURES:
                continue
            fp = cell_fingerprint(lane.backend, spec.model, spec.train,
                                  spec.options)
            expected |= {fp[:2], f"{fp[:2]}/{fp}.pkl"}
    assert tree(tmp_path / "cache") == expected
