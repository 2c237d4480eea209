"""Command-line interface."""

import json

import pytest

from repro.cli import (
    main,
    make_backend,
    parse_model,
    parse_options,
    parse_precision,
)
from repro.common.errors import ConfigurationError
from repro.models.precision import Precision
from repro.resilience.clock import FakeClock


class TestParsers:
    def test_parse_model_preset(self):
        assert parse_model("gpt2-small").hidden_size == 768
        assert parse_model("llama2-7b").n_layers == 32

    def test_parse_model_layer_override(self):
        assert parse_model("gpt2-small:24").n_layers == 24

    def test_parse_model_probe(self):
        probe = parse_model("probe:512x6")
        assert probe.hidden_size == 512
        assert probe.n_layers == 6
        assert probe.vocab_size == 2048

    def test_parse_model_errors(self):
        with pytest.raises(ConfigurationError):
            parse_model("bert-base")
        with pytest.raises(ConfigurationError):
            parse_model("probe:banana")

    def test_parse_precision(self):
        assert parse_precision("bf16").compute is Precision.BF16
        assert parse_precision("mixed-fp16").is_mixed
        assert parse_precision("matmul-bf16").needs_activation_casts
        assert parse_precision("full").compute is Precision.FP32

    def test_parse_options(self):
        assert parse_options(["mode=O1", "tp=2"]) == {"mode": "O1",
                                                      "tp": 2}
        with pytest.raises(ConfigurationError):
            parse_options(["oops"])

    def test_make_backend_names(self):
        for name in ("cerebras", "sambanova", "graphcore",
                     "graphcore-pod", "gpu"):
            assert make_backend(name).system is not None
        with pytest.raises(ConfigurationError):
            make_backend("tpu")


class TestCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "cerebras" in out and "sambanova" in out

    def test_tier1_text_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "tier1.json"
        code = main(["tier1", "--platform", "cerebras",
                     "--model", "gpt2-small:4", "--batch", "16",
                     "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tier-1 profile" in out
        payload = json.loads(out_file.read_text())
        assert payload["platform"] == "CS-2"

    def test_sweep_layers_records_fail(self, capsys):
        code = main(["sweep-layers", "--platform", "cerebras",
                     "--model", "gpt2-small", "--batch", "32",
                     "--layers", "4", "90"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fail" in out

    def test_batch_sweep(self, capsys):
        code = main(["batch-sweep", "--platform", "sambanova",
                     "--model", "gpt2-small:4", "--precision", "bf16",
                     "--batches", "4", "8", "--option", "mode=O1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scaling exponent" in out

    def test_scaling(self, capsys):
        code = main(["scaling", "--platform", "sambanova",
                     "--model", "gpt2-small:4", "--precision", "bf16",
                     "--option", "mode=O1",
                     "--configs", "tp=1", "tp=2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tp=2" in out

    def test_graphcore_options(self, capsys):
        code = main(["tier1", "--platform", "graphcore",
                     "--model", "probe:768x4", "--batch", "16",
                     "--option", "n_ipus=2"])
        assert code == 0

    def test_config_error_exit_code(self, capsys):
        code = main(["tier1", "--platform", "cerebras",
                     "--model", "nonexistent-model"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestResilienceFlags:
    def test_grid_runs(self, capsys):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "4", "--batches", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Grid sweep" in out
        assert out.count("ok") >= 2

    def test_grid_resume_skips_finished(self, capsys, tmp_path):
        journal = tmp_path / "grid.jsonl"
        args = ["grid", "--platform", "cerebras",
                "--model", "probe:256x2", "--seq-len", "256",
                "--layers", "2", "4", "--batches", "8",
                "--resume", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("yes") >= 2  # both cells replayed from journal

    def test_grid_fault_injection_with_retries(self, capsys):
        clock = FakeClock()
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "4", "6", "--batches", "8",
                     "--inject-faults", "0.4", "--fault-seed", "7",
                     "--max-retries", "3"], clock=clock)
        assert code == 0
        # Retry backoff ran on the fake clock, not the wall clock.
        assert clock.sleeps

    def test_bad_fault_rate_rejected(self, capsys):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2",
                     "--layers", "2", "--batches", "8",
                     "--inject-faults", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--heartbeat-interval", "0"),
        ("--heartbeat-interval", "-2.5"),
        ("--quarantine-after", "0"),
        ("--quarantine-after", "-1"),
        ("--max-pool-rebuilds", "-1"),
    ])
    def test_bad_supervision_flags_rejected(self, capsys, flag, value):
        # Mirrors the --cell-timeout check: fail fast with exit code 2
        # before any cell runs.
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2",
                     "--layers", "2", "--batches", "8",
                     flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_supervision_flags_reach_policy_json(self, capsys, tmp_path):
        out_file = tmp_path / "campaign.json"
        code = main(["campaign", "--platforms", "cerebras",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "--batches", "8",
                     "--heartbeat-interval", "1.5",
                     "--quarantine-after", "3",
                     "--max-pool-rebuilds", "7",
                     "--json", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["policy"]["heartbeat_interval"] == 1.5
        assert payload["policy"]["quarantine_after"] == 3
        assert payload["policy"]["max_pool_rebuilds"] == 7
        # Thread dispatch runs unsupervised.
        assert payload["supervision"] is None

    def test_batch_sweep_journal(self, tmp_path, capsys):
        journal = tmp_path / "bs.jsonl"
        code = main(["batch-sweep", "--platform", "sambanova",
                     "--model", "gpt2-small:4", "--precision", "bf16",
                     "--batches", "4", "8", "--option", "mode=O1",
                     "--journal", str(journal)])
        assert code == 0
        lines = journal.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_grid_max_workers_keeps_spec_order(self, capsys):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "4", "--batches", "8", "16",
                     "--max-workers", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("L2/b8") < out.index("L2/b16") \
            < out.index("L4/b8") < out.index("L4/b16")

    def test_bare_resume_without_journal_rejected(self, capsys):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2",
                     "--layers", "2", "--batches", "8", "--resume"])
        assert code == 2
        assert "journal" in capsys.readouterr().err

    def test_journal_dir_conflicts_with_journal_file(self, capsys,
                                                     tmp_path):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2",
                     "--layers", "2", "--batches", "8",
                     "--journal", str(tmp_path / "j.jsonl"),
                     "--journal-dir", str(tmp_path / "dir")])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err


class TestCampaignCommand:
    def test_campaign_runs_multiple_lanes(self, capsys, tmp_path):
        out_file = tmp_path / "campaign.json"
        code = main(["campaign", "--platforms", "cerebras", "gpu",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "4", "--batches", "8",
                     "--max-workers", "4",
                     "--journal-dir", str(tmp_path / "journal"),
                     "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Grid on cerebras" in out
        assert "Grid on gpu" in out
        assert "Infrastructure health" in out
        payload = json.loads(out_file.read_text())
        assert payload["total_cells"] == 4
        assert payload["policy"]["max_workers"] == 4
        assert [lane["label"] for lane in payload["lanes"]] == \
            ["cerebras", "gpu"]
        shards = list((tmp_path / "journal").glob("shard-*.jsonl"))
        assert 1 <= len(shards) <= 4

    def test_campaign_schedule_flag(self, capsys, tmp_path):
        out_file = tmp_path / "campaign.json"
        code = main(["campaign", "--platforms", "cerebras", "gpu",
                     "--model", "probe:256x2", "--seq-len", "256",
                     "--layers", "2", "4", "--batches", "8",
                     "--schedule", "longest-first",
                     "--predictor", "analytic",
                     "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scheduling" in out
        assert "longest-first" in out
        # Spec order survives cost-ordered dispatch.
        assert out.index("L2/b8") < out.index("L4/b8")
        payload = json.loads(out_file.read_text())
        assert payload["policy"]["schedule"] == "longest-first"
        assert payload["policy"]["predictor"] == "analytic"
        assert payload["scheduling"]["cells"] == 4
        assert payload["scheduling"]["predicted_seconds"] > 0

    def test_bad_schedule_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--platform", "cerebras",
                  "--model", "probe:256x2",
                  "--layers", "2", "--batches", "8",
                  "--schedule", "random"])
        assert "--schedule" in capsys.readouterr().err

    def test_campaign_resume_from_journal_dir(self, capsys, tmp_path):
        args = ["campaign", "--platforms", "cerebras",
                "--model", "probe:256x2", "--seq-len", "256",
                "--layers", "2", "--batches", "8",
                "--journal-dir", str(tmp_path / "j"), "--resume"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 of 1 cells executed (1 resumed" in out


class TestObservabilityFlags:
    def grid_args(self, tmp_path, *extra):
        return ["grid", "--platform", "cerebras",
                "--model", "probe:256x2", "--seq-len", "256",
                "--layers", "2", "4", "--batches", "8",
                "--journal-dir", str(tmp_path / "journal"), *extra]

    def test_bare_trace_writes_beside_journal_shards(self, capsys,
                                                     tmp_path):
        assert main(self.grid_args(tmp_path, "--trace")) == 0
        shards = list((tmp_path / "journal").glob("trace-*.jsonl"))
        assert shards

    def test_trace_subcommand_summarizes(self, capsys, tmp_path):
        main(self.grid_args(tmp_path, "--trace"))
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "journal")]) == 0
        out = capsys.readouterr().out
        assert "Trace:" in out
        assert "compile" in out and "dispatch" in out

    def test_trace_subcommand_merged_and_chrome(self, capsys, tmp_path):
        main(self.grid_args(tmp_path, "--trace"))
        capsys.readouterr()
        chrome = tmp_path / "trace.json"
        assert main(["trace", str(tmp_path / "journal"),
                     "--merged", "--chrome", str(chrome)]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines()
                 if line.startswith("{")]
        assert all(set(rec) == {"key", "name", "phase", "status",
                                "attempt"} for rec in lines)
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_subcommand_empty_directory(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_ledger_flag_persists_and_reaches_policy_json(self, capsys,
                                                          tmp_path):
        ledger = tmp_path / "ledger.json"
        out_file = tmp_path / "out.json"
        assert main(self.grid_args(tmp_path, "--ledger", str(ledger),
                                   "--json", str(out_file))) == 0
        assert ledger.exists()
        payload = json.loads(out_file.read_text())
        # run_grid JSON is a cell list; the policy lands in campaign
        # output — here we just need the ledger file written.
        assert payload

    def test_trace_without_journal_dir_rejected(self, capsys, tmp_path):
        code = main(["grid", "--platform", "cerebras",
                     "--model", "probe:256x2",
                     "--layers", "2", "--batches", "8", "--trace"])
        assert code == 2
        assert "ShardedJournal" in capsys.readouterr().err


class TestCacheCommand:
    @staticmethod
    def _populated(tmp_path):
        from repro.cache import CompileCache, canonical_fingerprint
        cache = CompileCache(tmp_path / "cc")
        cache.store(canonical_fingerprint({"cell": 1}), {"compiled": 1})
        cache.store(canonical_fingerprint({"cell": 2}), {"compiled": 2})
        return cache

    def test_stats_table_breaks_down_tiers(self, capsys, tmp_path):
        cache = self._populated(tmp_path)
        size = sum(path.stat().st_size for path in cache.entries())
        assert main(["cache", "stats", str(tmp_path / "cc")]) == 0
        out = capsys.readouterr().out
        cells = [[col.strip() for col in line.split("|")]
                 for line in out.splitlines() if "|" in line]
        # One tier is left: the whole-cell entries, plus their total.
        assert [row for row in cells if row[0] != "tier"] == [
            ["cell", "2", str(size)], ["total", "2", str(size)]]

    def test_leftover_stage_directory_rejected(self, capsys, tmp_path):
        # Older versions spilled stage artifacts under <cache>/stage/;
        # nothing reads them any more, so stats flags the directory.
        self._populated(tmp_path)
        (tmp_path / "cc" / "stage" / "graph").mkdir(parents=True)
        assert main(["cache", "stats", str(tmp_path / "cc")]) == 2
        err = capsys.readouterr().err
        assert "not a cache directory" in err
        assert "unexpected entry 'stage'" in err

    def test_stats_accepts_a_fresh_empty_directory(self, capsys,
                                                   tmp_path):
        empty = tmp_path / "cc"
        empty.mkdir()
        assert main(["cache", "stats", str(empty)]) == 0
        assert "total" in capsys.readouterr().out

    def test_stats_tolerates_the_embedded_ledger(self, capsys,
                                                 tmp_path):
        self._populated(tmp_path)
        (tmp_path / "cc" / "ledger.json").write_text("{}")
        assert main(["cache", "stats", str(tmp_path / "cc")]) == 0

    def test_non_cache_directory_rejected(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        assert main(["cache", "stats", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "not a cache directory" in err
        assert "notes.txt" in err

    def test_missing_directory_rejected(self, capsys, tmp_path):
        assert main(["cache", "stats", str(tmp_path / "absent")]) == 2
        assert "not a cache directory" in capsys.readouterr().err
