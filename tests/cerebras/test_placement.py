"""Wafer placement: strips, shelves, fragmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.cerebras import placement as placement_module
from repro.cerebras.placement import Placement, PlacedRect, WaferPlacer


def oracle_packing_efficiency(placer, demands):
    """The search as first written: a full placement per probe."""
    if placer.place(demands).fits:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(24):
        mid = (lo + hi) / 2.0
        scaled = [(name, pes * mid) for name, pes in demands]
        if placer.place(scaled).fits:
            lo = mid
        else:
            hi = mid
    return lo


class TestRectShape:
    def test_near_square(self):
        w, h = WaferPlacer.rect_shape(100.0, max_width=1000)
        assert w * h >= 100
        assert abs(w - h) <= 1

    def test_clamped_to_grid(self):
        w, _h = WaferPlacer.rect_shape(10_000.0, max_width=50)
        assert w <= 50

    def test_minimum_one(self):
        assert WaferPlacer.rect_shape(0.5, max_width=10) == (1, 1)


class TestStripPlacement:
    def test_fits_and_covers_demand(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0), ("b", 250.0)])
        assert placement.fits
        assert placement.rect("a").pes >= 500
        assert placement.rect("b").pes >= 250

    def test_strips_are_full_height(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0)])
        assert placement.rect("a").height == 100

    def test_overflow_detected(self):
        placer = WaferPlacer(10, 10, strategy="strips")
        placement = placer.place([("a", 60.0), ("b", 60.0)])
        assert not placement.fits

    def test_rounding_waste_is_bounded(self):
        placer = WaferPlacer(1000, 100, strategy="strips")
        demands = [(f"k{i}", 150.0) for i in range(20)]
        placement = placer.place(demands)
        # Each strip wastes at most one column (100 PEs).
        assert placement.placed_pes <= sum(p for _n, p in demands) + 20 * 100

    def test_negative_demand_rejected(self):
        placer = WaferPlacer(10, 10)
        with pytest.raises(ConfigurationError):
            placer.place([("a", -1.0)])


class TestShelfPlacement:
    def test_single_rect(self):
        placer = WaferPlacer(100, 100, strategy="shelves")
        placement = placer.place([("a", 400.0)])
        assert placement.fits
        assert placement.placed_pes >= 400

    def test_shelves_decrease_in_height(self):
        placer = WaferPlacer(100, 100, strategy="shelves")
        placement = placer.place([("a", 100.0), ("b", 2500.0),
                                  ("c", 400.0)])
        heights = [r.height for r in placement.rects]
        assert heights == sorted(heights, reverse=True)

    def test_overflow_detected(self):
        placer = WaferPlacer(10, 10, strategy="shelves")
        placement = placer.place([("a", 64.0), ("b", 64.0)])
        assert not placement.fits


class TestPackingEfficiency:
    def test_one_when_fits(self):
        placer = WaferPlacer(100, 100)
        assert placer.packing_efficiency([("a", 100.0)]) == 1.0

    def test_less_than_one_when_overfull(self):
        placer = WaferPlacer(100, 100)
        eff = placer.packing_efficiency([("a", 8000.0), ("b", 8000.0)])
        assert 0.0 < eff < 1.0
        scaled = [("a", 8000.0 * eff), ("b", 8000.0 * eff)]
        assert placer.place(scaled).fits

    def test_strips_pack_tighter_than_shelves(self):
        # The ablation claim: slicing placement beats naive shelves on a
        # nearly-full wafer.
        demands = [(f"k{i}", 900.0 + 37 * (i % 5)) for i in range(10)]
        strips = WaferPlacer(100, 100, strategy="strips")
        shelves = WaferPlacer(100, 100, strategy="shelves")
        assert (strips.packing_efficiency(demands)
                >= shelves.packing_efficiency(demands))


class TestPackingEfficiencyOracle:
    """The strips search tests the fit predicate instead of placing; it
    must return the placing search's factor bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=5000.0)),
                    min_size=1, max_size=30),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=120),
           st.sampled_from(["strips", "shelves"]))
    def test_matches_placing_search(self, demands, width, height,
                                    strategy):
        # Covers demands that fit (factor 1.0), demands that need
        # shrinking, all-zero demands and kernels that can never fit.
        placer = WaferPlacer(width, height, strategy=strategy)
        named = [(f"k{i}", p) for i, p in enumerate(demands)]
        assert (placer.packing_efficiency(named).hex()
                == oracle_packing_efficiency(placer, named).hex())

    @pytest.mark.parametrize("strategy", ["strips", "shelves"])
    def test_negative_demand_raises_like_the_oracle(self, strategy):
        placer = WaferPlacer(10, 10, strategy=strategy)
        demands = [("a", 50.0), ("b", -1.0), ("c", -2.0)]
        with pytest.raises(ConfigurationError) as fast:
            placer.packing_efficiency(demands)
        with pytest.raises(ConfigurationError) as oracle:
            oracle_packing_efficiency(placer, demands)
        assert str(fast.value) == str(oracle.value)

    def test_fit_predicate_is_the_placement_fits(self):
        placer = WaferPlacer(10, 10)
        # Widths 5 + 5 fill the grid exactly; one more PE overflows.
        assert placer.packing_efficiency([("a", 50.0), ("b", 50.0)]) == 1.0
        assert placer.packing_efficiency([("a", 50.0), ("b", 51.0)]) < 1.0

    def test_strips_search_builds_no_placement(self, monkeypatch):
        built = []

        class Counted(Placement):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(placement_module, "Placement", Counted)
        placer = WaferPlacer(100, 100)
        assert placer.packing_efficiency([("a", 8000.0),
                                          ("b", 8000.0)]) < 1.0
        assert built == []
        placer.place([("a", 100.0)])
        assert len(built) == 1  # the counter does see placements


class TestDistances:
    def test_centroid(self):
        rect = PlacedRect(name="a", x=0, y=0, width=10, height=10)
        assert rect.centroid == (5.0, 5.0)

    def test_distance_between_adjacent_strips(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 1000.0), ("b", 1000.0)])
        assert placement.distance("a", "b") == pytest.approx(10.0)

    def test_chain_wire_length(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0), ("b", 500.0),
                                  ("c", 500.0)])
        total = placement.chain_wire_length(["a", "b", "c"])
        assert total == pytest.approx(placement.distance("a", "b")
                                      + placement.distance("b", "c"))

    def test_unknown_rect(self):
        placement = Placement(grid_width=10, grid_height=10)
        with pytest.raises(KeyError):
            placement.rect("missing")


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=1.0, max_value=2000.0),
                min_size=1, max_size=20),
       st.sampled_from(["strips", "shelves"]))
def test_placement_invariants(demands, strategy):
    """Placed rectangles never overlap and stay within the grid."""
    placer = WaferPlacer(120, 80, strategy=strategy)
    placement = placer.place([(f"k{i}", p) for i, p in enumerate(demands)])
    for rect in placement.rects:
        assert 0 <= rect.x < 120
        assert 0 <= rect.y < 80
        assert rect.y + rect.height <= 80
    if placement.fits:
        for i, a in enumerate(placement.rects):
            for b in placement.rects[i + 1:]:
                overlap_x = (a.x < b.x + b.width) and (b.x < a.x + a.width)
                overlap_y = (a.y < b.y + b.height) and (b.y < a.y + a.height)
                assert not (overlap_x and overlap_y), f"{a} overlaps {b}"
