"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import metrics as M
import passes
import run
import workloads as W
from repro import CerebrasBackend

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_defined_metrics():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(M.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in M.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in M.PER_LAYER]
    setup = spec["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def bench(*args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", M.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_workload_reports_every_metric(workload, trace):
    code, out = bench("--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", str(trace),
                      "--limit", "2")
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    listed = bench_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class PerturbedCerebras(CerebrasBackend):
    """Returns a tokens/s one part in a million off."""

    def run(self, compiled):
        report = super().run(compiled)
        return dataclasses.replace(
            report, tokens_per_second=report.tokens_per_second * 1.000001)


def test_perturbed_results_count_as_failed_cells(tmp_path):
    def make(backend_type):
        workload = W.generate(M.PAPER_SUITE, 0).limited(3)
        wse = workload.lanes[0]
        assert wse.label == "WSE"
        wse.backend = backend_type()
        return workload

    oracle = passes.direct_pass(make(CerebrasBackend), passes.Timers())
    honest = run.Checker()
    honest_make = functools.partial(make, CerebrasBackend)
    run.check_pass(honest, oracle,
                   passes.campaign_pass(honest_make(), honest_make,
                                        tmp_path / "honest"), "honest")
    assert honest.failed == []

    perturbed = run.Checker()
    bad_make = functools.partial(make, PerturbedCerebras)
    run.check_pass(perturbed, oracle,
                   passes.campaign_pass(bad_make(), bad_make,
                                        tmp_path / "perturbed"), "bad")
    wse_ok = sum(1 for key, row in oracle.items()
                 if key.startswith("WSE::") and row[0] == "ok")
    assert wse_ok > 0
    # Both campaigns of the pass disagree with the oracle.
    assert len(perturbed.failed) == 2 * wse_ok
    assert all("WSE::" in failure for failure in perturbed.failed)


def test_a_campaign_that_raises_loses_only_its_unreturned_cells(
        tmp_path, monkeypatch):
    workload = W.generate(M.PAPER_SUITE, 0).limited(2)
    oracle = passes.direct_pass(workload, passes.Timers())
    real = passes.Campaign

    class BreaksAfterTwoCells(real):
        def run(self, on_cell=None):
            def relay(label, cell):
                if relay.count == 2:
                    raise RuntimeError("pool broke")
                relay.count += 1
                on_cell(label, cell)
            relay.count = 0
            return real.run(self, on_cell=relay)

    monkeypatch.setattr(passes, "Campaign", BreaksAfterTwoCells)
    result = passes.campaign(workload, tmp_path / "journal")
    assert result["raised"] == "RuntimeError: pool broke"
    assert len(result["rows"]) == 2
    checker = run.Checker()
    checker.campaign("broken", oracle, result)
    assert checker.attempted == workload.cells
    assert len(checker.failed) == workload.cells - 2


def test_setup_time_includes_grid_generation(tmp_path, monkeypatch):
    delay = 0.5
    generate = W.generate

    def slow_generate(name, seed):
        time.sleep(delay)
        return generate(name, seed)

    monkeypatch.setattr(W, "generate", slow_generate)
    monkeypatch.setattr(passes, "START", time.perf_counter())
    out = io.StringIO()
    with redirect_stdout(out):
        passes.main(["direct", M.PAPER_SUITE, "0", str(tmp_path / "w"),
                     "1"])
    assert json.loads(out.getvalue())["setup_s"] >= delay


def test_seed_zero_is_the_paper_grid_and_others_jitter_inside_it():
    paper = W.generate(M.PAPER_SUITE, 0)
    wse = [spec.label for spec in paper.lanes[0].specs]
    assert wse[:len(W.TABLE1_LAYERS)] == [
        f"t1/L{n}" for n in W.TABLE1_LAYERS]
    for seed in (1, 2, 3):
        jittered = W.generate(M.PAPER_SUITE, seed)
        again = W.generate(M.PAPER_SUITE, seed)
        labels = [[s.label for s in lane.specs] for lane in jittered.lanes]
        assert labels == [[s.label for s in lane.specs]
                          for lane in again.lanes]
        assert jittered.cells == paper.cells
        table1 = sorted(int(s.label.split("/L")[1])
                        for s in jittered.lanes[0].specs
                        if s.label.startswith("t1/"))
        assert table1[0] == 1 and table1[-1] == 78
        assert len(set(table1)) == len(W.TABLE1_LAYERS)


def test_tail_percentile_keeps_ten_samples_above():
    assert M.tail(list(range(10))) is None
    percentile, value = M.tail([float(v) for v in range(1, 31)])
    assert (percentile, value) == (66, 20.0)


def test_rows_compare_exactly_or_within_the_stated_tolerance():
    row = ["ok", None, 100.0, 2.0, 0.5, 0.5, 0.25]
    assert run.same(row, list(row))
    assert not run.same(row, row[:2] + [100.0 * (1 + 1e-12)] + row[3:])
    assert run.same(row, row[:2] + [100.0 * (1 + 1e-12)] + row[3:],
                    run.REFERENCE_REL_TOL)
    assert not run.same(row, ["failed", "OutOfMemoryError"])
    assert not run.same(["failed", "OutOfMemoryError"], row)
