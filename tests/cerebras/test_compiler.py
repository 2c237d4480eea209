"""WSE-2 compiler: allocation regimes, memory planning, failures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cerebras import placement as placement_module
from repro.cerebras.compiler import WSECompiler
from repro.cerebras.kernels import Kernel, extract_kernels
from repro.cerebras.placement import Placement, WaferPlacer
from repro.common.errors import ConfigurationError, OutOfMemoryError
from repro.core.metrics import allocation_ratio, weighted_load_imbalance
from repro.models.config import TrainConfig, gpt2_model


@pytest.fixture(scope="module")
def compiler():
    return WSECompiler()


@pytest.fixture(scope="module")
def train():
    return TrainConfig(batch_size=64, seq_len=1024)


@pytest.fixture(scope="module")
def small():
    return gpt2_model("small")


def oracle_allocate(kernels, budget, respect_caps=True):
    """The water-fill as first written: dict lookups per kernel per
    step and all 80 bisection steps."""
    floors = {k.name: min(k.min_pes, k.cap_pes) for k in kernels}
    caps = {k.name: k.cap_pes if respect_caps else budget
            for k in kernels}
    if sum(floors.values()) > budget:
        raise OutOfMemoryError(
            "kernel weight floors exceed the wafer region: "
            f"{sum(floors.values()):.0f} PEs needed, {budget:.0f} available",
            required_bytes=sum(floors.values()),
            available_bytes=budget,
        )
    if sum(caps.values()) <= budget:
        return dict(caps)
    lo, hi = 0.0, budget / max(min(k.flops_per_sample for k in kernels), 1.0)

    def total(lam):
        return sum(
            min(caps[k.name], max(floors[k.name],
                                  lam * k.flops_per_sample))
            for k in kernels
        )

    for _ in range(80):
        mid = (lo + hi) / 2.0
        if total(mid) < budget:
            lo = mid
        else:
            hi = mid
    lam = (lo + hi) / 2.0
    return {
        k.name: min(caps[k.name],
                    max(floors[k.name], lam * k.flops_per_sample))
        for k in kernels
    }


kernel_lists = st.lists(
    st.tuples(st.sampled_from(["embedding", "attention", "ffn", "head"]),
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=1e13)),
              st.floats(min_value=0.0, max_value=5e8)),
    min_size=1, max_size=40,
).map(lambda rows: [Kernel(name=f"k{i}", kind=kind, layer_index=i,
                           flops_per_sample=flops, weight_bytes=weights,
                           boundary_bytes=0.0)
                    for i, (kind, flops, weights) in enumerate(rows)])


def assert_allocates_like_oracle(kernels, budget, respect_caps):
    """Same grants bit for bit, or the same OutOfMemoryError."""
    try:
        expected = oracle_allocate(kernels, budget, respect_caps)
    except OutOfMemoryError as exc:
        with pytest.raises(OutOfMemoryError) as fast:
            WSECompiler()._allocate(kernels, budget, respect_caps)
        assert str(fast.value) == str(exc)
        assert fast.value.required_bytes == exc.required_bytes
        assert fast.value.available_bytes == exc.available_bytes
        return
    grants = WSECompiler()._allocate(kernels, budget, respect_caps)
    assert list(grants) == list(expected)
    assert ([v.hex() for v in grants.values()]
            == [v.hex() for v in expected.values()])


class TestAllocateOracle:
    """The column-wise water-fill with its early stop must return the
    dict-lookup version's grants bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_lists, st.floats(min_value=0.0, max_value=1.5),
           st.booleans())
    def test_matches_dict_water_fill(self, kernels, fraction,
                                     respect_caps):
        # Budgets from below the floors (OutOfMemoryError) through the
        # elastic regime to above the caps (every kernel at its cap).
        budget = max(1.0, fraction * sum(k.cap_pes for k in kernels))
        assert_allocates_like_oracle(kernels, budget, respect_caps)

    @pytest.mark.parametrize("respect_caps", [True, False])
    @pytest.mark.parametrize("budget", [100.0, 400_000.0, 800_000.0, 1e9])
    def test_paper_kernels_match(self, small, budget, respect_caps):
        for layers, batch in ((1, 64), (18, 64), (36, 256), (72, 256)):
            kernels = extract_kernels(
                small.with_layers(layers),
                TrainConfig(batch_size=batch, seq_len=1024))
            assert_allocates_like_oracle(kernels, budget, respect_caps)


class TestSinglePlacement:
    def test_shrinking_compile_builds_one_placement(self, compiler, small,
                                                    monkeypatch):
        # Deterministic guard for the exact search: at 36 layers and
        # batch 256 the grants must shrink to pack, and still the only
        # Placement a compile builds is the final one.
        built = []

        class Counted(Placement):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        efficiencies = []
        search = WaferPlacer.packing_efficiency

        def recorded(placer, demands):
            efficiencies.append(search(placer, demands))
            return efficiencies[-1]

        monkeypatch.setattr(placement_module, "Placement", Counted)
        monkeypatch.setattr(WaferPlacer, "packing_efficiency", recorded)
        report = compiler.compile(small.with_layers(36),
                                  TrainConfig(batch_size=256,
                                              seq_len=1024))
        assert len(efficiencies) == 1 and efficiencies[0] < 1.0
        assert len(built) == 1
        assert report.meta["placement"] is built[0]
        assert len(built[0].rects) == len(report.meta["kernel_order"])
        assert built[0].fits


class TestAllocationRegimes:
    def test_one_layer_near_paper_33pct(self, compiler, small, train):
        report = compiler.compile(small.with_layers(1), train)
        assert allocation_ratio(report) == pytest.approx(0.33, abs=0.03)

    def test_six_layers_near_paper_60pct(self, compiler, small, train):
        report = compiler.compile(small.with_layers(6), train)
        assert allocation_ratio(report) == pytest.approx(0.60, abs=0.04)

    def test_saturation_at_92_93pct(self, compiler, small, train):
        for layers in (24, 36, 48):
            report = compiler.compile(small.with_layers(layers), train)
            assert 0.88 <= allocation_ratio(report) <= 0.94

    def test_allocation_monotone_through_regimes(self, compiler, small,
                                                 train):
        ratios = [allocation_ratio(compiler.compile(small.with_layers(n),
                                                    train))
                  for n in (1, 6, 12, 18)]
        assert ratios == sorted(ratios)

    def test_under_subscribed_kernels_sit_at_cap(self, compiler, small,
                                                 train):
        # Below ~12 layers, per-attention-kernel PE usage is stable
        # (paper Fig. 6): the grants track the caps, not the layer count.
        r4 = compiler.compile(small.with_layers(4), train)
        r8 = compiler.compile(small.with_layers(8), train)

        def attn_pes(report):
            tasks = [t for t in report.phases[0].tasks
                     if t.meta.get("kind") == "attention"
                     and t.role == "compute"]
            return tasks[0].compute_units

        assert attn_pes(r4) == pytest.approx(attn_pes(r8), rel=0.05)

    def test_elastic_shrink_beyond_saturation(self, compiler, small, train):
        # Past saturation, per-kernel grants shrink with more layers.
        r18 = compiler.compile(small.with_layers(18), train)
        r36 = compiler.compile(small.with_layers(36), train)

        def attn_pes(report):
            tasks = [t for t in report.phases[0].tasks
                     if t.meta.get("kind") == "attention"
                     and t.role == "compute"]
            return tasks[0].compute_units

        assert attn_pes(r36) < attn_pes(r18)


class TestTransmissionPEs:
    def test_roles_partition_the_grant(self, compiler, small, train):
        report = compiler.compile(small, train)
        compute = sum(t.compute_units for t in report.phases[0].tasks
                      if t.role == "compute")
        trans = sum(t.compute_units for t in report.phases[0].tasks
                    if t.role == "transmission")
        # Fig. 6: "close proportions" — 40% of each grant routes data.
        assert trans / (compute + trans) == pytest.approx(0.40, abs=0.01)


class TestLoadBalance:
    def test_li_is_high(self, compiler, small, train):
        # Paper Fig. 8a: WSE LI between 0.96 and 1.0; ours lands >= 0.9.
        for layers in (6, 18, 36):
            report = compiler.compile(small.with_layers(layers), train)
            assert weighted_load_imbalance(report) >= 0.90


class TestMemoryPlanning:
    def test_config_memory_grows_superlinearly(self, compiler, small, train):
        c12 = compiler.compile(small.with_layers(12), train)
        c48 = compiler.compile(small.with_layers(48), train)
        growth = (c48.shared_memory.configuration_bytes
                  / c12.shared_memory.configuration_bytes)
        assert growth > 4.0  # 4x layers -> much more than 4x config

    def test_pipeline_efficiency_collapses_past_36(self, compiler, small,
                                                   train):
        eff36 = compiler.compile(small.with_layers(36),
                                 train).meta["pipeline_efficiency"]
        eff60 = compiler.compile(small.with_layers(60),
                                 train).meta["pipeline_efficiency"]
        assert eff36 > 0.9
        assert eff60 < 0.5

    def test_78_layers_fails_like_table1(self, compiler, small, train):
        with pytest.raises(OutOfMemoryError):
            compiler.compile(small.with_layers(78), train)

    def test_72_layers_still_compiles(self, compiler, small, train):
        compiler.compile(small.with_layers(72), train)

    def test_max_layers_matches_paper_envelope(self, compiler, small, train):
        # Paper: "supporting up to 72 decoder layers in our experiments".
        assert compiler.max_layers(small, train, upper=96) in range(70, 78)


class TestModesAndOptions:
    def test_unknown_mode_rejected(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, mode="magic")

    def test_zero_replicas_rejected(self, compiler, small, train):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, train, n_replicas=0)

    def test_batch_below_replicas_rejected(self, compiler, small):
        with pytest.raises(ConfigurationError):
            compiler.compile(small, TrainConfig(batch_size=2, seq_len=128),
                             n_replicas=4)

    def test_weight_streaming_frees_memory(self, compiler, small, train):
        pipeline = compiler.compile(small.with_layers(24), train)
        streaming = compiler.compile(small.with_layers(24), train,
                                     mode="weight_streaming")
        assert (streaming.shared_memory.training_bytes
                < pipeline.shared_memory.training_bytes)

    def test_replicas_split_batch(self, compiler, small, train):
        report = compiler.compile(small, train, n_replicas=4)
        assert report.meta["per_replica_batch"] == train.batch_size // 4

    def test_replica_tasks_enumerated(self, compiler, small, train):
        r1 = compiler.compile(small, train)
        r2 = compiler.compile(small, train, n_replicas=2)
        assert len(r2.phases[0].tasks) == 2 * len(r1.phases[0].tasks)


class TestReportShape:
    def test_single_phase(self, compiler, small, train):
        report = compiler.compile(small, train)
        assert len(report.phases) == 1
        assert report.phases[0].name == "graph"

    def test_totals_are_chip_counts(self, compiler, small, train):
        report = compiler.compile(small, train)
        assert report.total_compute_units == 850_000

    def test_service_times_positive(self, compiler, small, train):
        report = compiler.compile(small, train)
        for service in report.meta["service_times"].values():
            assert service > 0
