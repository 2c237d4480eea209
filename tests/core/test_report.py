"""Report rendering."""

from repro.core.report import (
    GRID_HEADERS,
    REPORT_TABLES,
    TIER1_HEADERS,
    BenchmarkReport,
    describe_tier1,
    render_table,
    sweep_cell_row,
    tier1_summary_row,
)
from repro.core.tier1 import Tier1Profiler
from repro.models.config import TrainConfig, gpt2_model


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        # All rows share the same width.
        assert len(set(len(line) for line in lines)) == 1

    def test_title(self):
        text = render_table(["x"], [["1"]], title="Table I")
        assert text.startswith("Table I")

    def test_non_string_cells(self):
        text = render_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text


class TestBenchmarkReport:
    def test_render_sections_in_order(self):
        report = BenchmarkReport(title="T")
        report.add_table("tbl", ["h"], [["v"]])
        report.add_insight("something useful")
        report.add_text("closing")
        rendered = report.render()
        assert rendered.index("tbl") < rendered.index("Insight:") \
            < rendered.index("closing")

    def test_title_banner(self):
        rendered = BenchmarkReport(title="My Title").render()
        assert "My Title" in rendered
        assert "=" * len("My Title") in rendered


INFRA = REPORT_TABLES["infrastructure"]


class TestInfrastructureHealth:
    def test_row_matches_headers(self, cerebras):
        from repro.campaign import Campaign
        from repro.workloads.sweeps import SweepSpec

        spec = SweepSpec(label="L2",
                         model=gpt2_model("mini").with_layers(2),
                         train=TrainConfig(batch_size=8, seq_len=256))
        result = Campaign([(cerebras, [spec])]).run()
        row = INFRA.row(result.stats[cerebras.name])
        assert len(row) == len(INFRA.headers)
        assert row[0] == cerebras.name

    def test_table_renders_breaker_columns(self):
        class Stats:
            backend = "CS-2"
            cells = 5
            ok = 2
            failed = 2
            gated = 1
            resumed = 0
            attempts = 7
            retries = 2
            breaker = {"state": "open", "trip_count": 3,
                       "open_seconds": 12.5}

        report = BenchmarkReport(title="T")
        report.add_infrastructure_health([Stats()])
        rendered = report.render()
        assert "Infrastructure health" in rendered
        assert "trips" in rendered
        line = next(ln for ln in rendered.splitlines() if "CS-2" in ln)
        assert "open" in line and "3" in line and "12.5" in line

    def test_missing_breaker_renders_placeholder(self):
        class Stats:
            backend = "x"
            cells = ok = failed = gated = resumed = 0
            attempts = retries = 0
            breaker = {}

        row = INFRA.row(Stats())
        assert row[INFRA.headers.index("breaker")] == "-"
        assert row[INFRA.headers.index("trips")] == 0

    def test_sweep_cell_row_shapes(self, cerebras):
        from repro.workloads.sweeps import SweepSpec, run_grid

        train = TrainConfig(batch_size=8, seq_len=256)
        specs = [SweepSpec(label="L2",
                           model=gpt2_model("mini").with_layers(2),
                           train=train),
                 SweepSpec(label="L90",
                           model=gpt2_model("mini").with_layers(90),
                           train=train)]
        cells = run_grid(cerebras, specs)
        ok_row = sweep_cell_row(cells[0])
        fail_row = sweep_cell_row(cells[1])
        assert len(ok_row) == len(fail_row) == len(GRID_HEADERS)
        assert ok_row[1] == "ok"
        assert fail_row[1].startswith("Fail (")
        assert fail_row[-1] == "-"


class TestTier1Rendering:
    def test_summary_row_matches_headers(self, cerebras):
        result = Tier1Profiler(cerebras).profile(
            gpt2_model("small"), TrainConfig(batch_size=32, seq_len=1024))
        row = tier1_summary_row(result)
        assert len(row) == len(TIER1_HEADERS)
        assert row[0] == "CS-2"

    def test_describe_mentions_bound(self, cerebras):
        result = Tier1Profiler(cerebras).profile(
            gpt2_model("small"), TrainConfig(batch_size=32, seq_len=1024))
        text = describe_tier1(result)
        assert "compute-bound" in text
        assert "%" in text
