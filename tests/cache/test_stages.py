"""Staged compile pipelines and the cache's unit contracts.

``run_stages`` is a plain left fold, and every bundled backend's
``compile()`` equals the fold of its ``compile_pipeline()`` on the
paper's own cells. The rest pins the prune/reader race and the
memoized config digests the cell fingerprints are built from.
"""

import threading
import warnings

import pytest

from repro.cache import (
    CompileCache,
    canonical_fingerprint,
    cell_fingerprint,
)
from repro.cerebras.backend import CerebrasBackend
from repro.core.stages import (
    STAGE_GRAPH,
    STAGE_PARTITION,
    STAGE_PLACEMENT,
    STAGE_REPORT,
    CompileStage,
    run_stages,
)
from repro.gpu.backend import GPUBackend
from repro.graphcore.backend import GraphcoreBackend
from repro.models.config import TrainConfig, gpt2_model
from repro.models.precision import Precision, PrecisionPolicy
from repro.sambanova.backend import SambaNovaBackend
from repro.workloads.reference import CpuBoundBackend


def fp(tag):
    return canonical_fingerprint({"tag": tag})


def two_stages(calls):
    """graph -> report, logging every compute into ``calls``."""
    def build_graph(_prev):
        calls.append("graph")
        return {"nodes": 3}

    def report(graph):
        calls.append("report")
        return {"from": graph["nodes"]}

    return [CompileStage(STAGE_GRAPH, build_graph),
            CompileStage(STAGE_REPORT, report)]


class TestRunStages:
    def test_without_memo_is_a_plain_fold(self):
        calls = []
        result = run_stages(two_stages(calls))
        assert result == {"from": 3}
        assert calls == ["graph", "report"]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            run_stages([])


SMALL = gpt2_model("small")
BF16 = PrecisionPolicy.pure(Precision.BF16)
WSE = (STAGE_GRAPH, STAGE_PARTITION, STAGE_PLACEMENT, STAGE_REPORT)
RDU = (STAGE_GRAPH, STAGE_PARTITION, STAGE_REPORT)
IPU = (STAGE_PARTITION, STAGE_PLACEMENT, STAGE_REPORT)
GPU = (STAGE_PARTITION, STAGE_REPORT)

#: (backend class, model, train, options, stage names): paper cells.
PAPER_CELLS = {
    # Table I: WSE allocation vs layers at batch 64.
    "wse/t1-L12": (CerebrasBackend, SMALL.with_layers(12),
                   TrainConfig(batch_size=64, seq_len=1024), {}, WSE),
    # Table III: WSE intra-chip data parallelism and weight streaming.
    "wse/t3-dp2": (CerebrasBackend, SMALL,
                   TrainConfig(batch_size=256, seq_len=1024),
                   {"n_replicas": 2}, WSE),
    "wse/t3-stream": (CerebrasBackend, SMALL,
                      TrainConfig(batch_size=256, seq_len=1024),
                      {"mode": "weight_streaming"}, WSE),
    # Fig. 7a: RDU allocation under each compile mode.
    **{f"rdu/f7a-L8-{mode}": (
        SambaNovaBackend, SMALL.with_layers(8),
        TrainConfig(batch_size=16, seq_len=1024, precision=BF16),
        {"mode": mode}, RDU) for mode in ("O0", "O1", "O3")},
    # Fig. 9d: IPU layers on two IPUs.
    "ipu/f9d-L6": (GraphcoreBackend, SMALL.with_layers(6),
                   TrainConfig(batch_size=32, seq_len=1024),
                   {"n_ipus": 2}, IPU),
    # Table III: GPU tensor x pipeline parallelism on GPT-2 XL.
    "gpu/t3-T4P2D1": (GPUBackend, gpt2_model("xlarge"),
                      TrainConfig(batch_size=64, seq_len=1024,
                                  precision=PrecisionPolicy.mixed(
                                      Precision.BF16)),
                      {"tp": 4, "pp": 2, "dp": 1}, GPU),
}


class TestPipelineMatchesCompile:
    """``compile()`` and the staged fold must never drift: the
    benchmark times each stage of ``compile_pipeline()`` on its own
    and relies on their fold being the compile."""

    @pytest.mark.parametrize("cell", sorted(PAPER_CELLS))
    def test_fold_equals_compile(self, cell):
        cls, model, train, options, names = PAPER_CELLS[cell]
        backend = cls()
        pipeline = backend.compile_pipeline(model, train, **options)
        assert tuple(stage.name for stage in pipeline) == names
        assert run_stages(pipeline) == backend.compile(model, train,
                                                       **options)

    def test_equality_is_not_vacuous(self):
        cls, model, train, _, _ = PAPER_CELLS["wse/t3-stream"]
        backend = cls()
        assert (backend.compile(model, train)
                != backend.compile(model, train, mode="weight_streaming"))

    @pytest.mark.parametrize("cls", [CerebrasBackend, SambaNovaBackend,
                                     GraphcoreBackend, GPUBackend,
                                     CpuBoundBackend])
    def test_compile_override_gets_single_stage_fallback(self, cls):
        calls = []

        class Overridden(cls):
            def compile(self, model, train, **options):
                calls.append(options)
                return "overridden"

        backend = Overridden()
        pipeline = backend.compile_pipeline(SMALL, TrainConfig(),
                                            probe=1)
        assert [stage.name for stage in pipeline] == [STAGE_REPORT]
        assert run_stages(pipeline) == "overridden"
        assert calls == [{"probe": 1}]


class TestPruneRace:
    """``prune()`` and readers share a directory with no lock; either
    side may see the other's unlink mid-operation. Both must degrade
    to a miss or a skipped victim — never an exception."""

    def test_reader_sees_pruned_entry_as_plain_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.store(fp("a"), {"x": 1})
        assert cache.lookup(fp("a")) is not None
        assert cache.prune(max_entries=0) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.lookup(fp("a")) is None
        assert cache.stats()["misses"] == 1

    def test_prune_survives_entries_vanishing_underneath(
            self, tmp_path, monkeypatch):
        cache = CompileCache(tmp_path)
        for i in range(4):
            cache.store(fp(i), i)
        stale = cache.entries()
        # A reader's corrupt-entry drop (or another parent's prune)
        # unlinks one victim between the listing and the unlink.
        stale[0].unlink()
        monkeypatch.setattr(cache, "entries", lambda: stale)
        assert cache.prune(max_entries=1) == 2
        assert len(CompileCache(tmp_path)) == 1

    def test_prune_races_concurrent_readers(self, tmp_path):
        cache = CompileCache(tmp_path)
        fingerprints = [fp(i) for i in range(8)]
        stop = threading.Event()
        failures = []

        def read_loop():
            reader = CompileCache(tmp_path)
            try:
                while not stop.is_set():
                    for f in fingerprints:
                        entry = reader.lookup(f)
                        assert entry is None or entry.compiled == f
            except Exception as exc:  # noqa: BLE001 — the assertion
                failures.append(exc)

        threads = [threading.Thread(target=read_loop)
                   for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                for f in fingerprints:
                    cache.store(f, f)
                cache.prune(max_entries=2)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert failures == []


class TestMemoizedConfigDigests:
    def test_digest_cached_on_the_instance(self):
        # A fresh instance — the shared presets may carry a digest
        # cached by any earlier cell in the session.
        model = gpt2_model("mini").with_layers(7)
        assert "_digest" not in model.__dict__
        digest = model.content_digest()
        assert model.__dict__["_digest"] == digest
        assert model.content_digest() == digest

    def test_cell_fingerprint_serializes_each_config_once(
            self, monkeypatch):
        import repro.models.config as config_mod

        calls = []
        real = config_mod._canonical_json

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(config_mod, "_canonical_json", counting)
        backend = CpuBoundBackend()
        # A fresh instance, not the shared preset — a preset's digest
        # may already be cached by earlier cells (that is the point).
        model = gpt2_model("mini").with_layers(5)
        train = TrainConfig(batch_size=8, seq_len=64)
        keys = {cell_fingerprint(backend, model, train)
                for _ in range(5)}
        assert len(keys) == 1
        # Five cells, two serializations: one per config object.
        assert len(calls) == 2
        cell_fingerprint(backend, model,
                         TrainConfig(batch_size=16, seq_len=64))
        assert len(calls) == 3

    def test_distinct_configs_get_distinct_digests(self):
        base = gpt2_model("mini")
        assert (base.content_digest()
                != base.with_layers(base.n_layers + 1).content_digest())
