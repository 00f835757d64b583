import dataclasses
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.dasymetric import CensusBlock
from fireimpact.errors import ValidationError
from fireimpact.geometry import Point, Polygon, PolyLine
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask
from fireimpact.impact import (
    BuildingFeature,
    CostModel,
    District,
    PoiFeature,
    RoadFeature,
    TractDemographics,
    to_cents,
)
from fireimpact.io_formats import FileManifest, write_report
from fireimpact.perimeters import Detection, KdeParams
from fireimpact.pipeline import (
    Layers,
    assess,
    compute_perimeters,
    compute_population,
    event_dates,
    exposure_by_block,
)

D0 = dt.date(2025, 1, 7)


def rect(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


def manifest(n=20):
    return FileManifest(
        origin_lon=-118.25,
        origin_lat=34.05,
        grid=AnalysisGrid(0, 0, 20, n, n),
        paths={},
    )


class TestEventDates:
    def test_empty(self):
        assert event_dates([]) == []

    def test_contiguous_range_fills_gaps(self):
        dets = [
            Detection(Point(1, 1), D0),
            Detection(Point(2, 2), D0 + dt.timedelta(days=3)),
        ]
        assert event_dates(dets) == [D0 + dt.timedelta(days=i) for i in range(4)]

    def test_span_beyond_first_burn_raster_is_rejected_before_building(self):
        dets = [Detection(Point(1, 1), dt.date.min), Detection(Point(2, 2), dt.date.max)]
        with pytest.raises(ValidationError, match="3652059 days exceed"):
            event_dates(dets)

    def test_longest_span_the_raster_indexes_is_kept(self):
        last = D0 + dt.timedelta(days=32766)
        dets = [Detection(Point(1, 1), D0), Detection(Point(2, 2), last)]
        assert len(event_dates(dets)) == 32767
        dets[1] = Detection(Point(2, 2), last + dt.timedelta(days=1))
        with pytest.raises(ValidationError, match="32768 days exceed"):
            event_dates(dets)


class TestComputePerimeters:
    def test_detections_partition_by_district(self):
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.districts = [
            District("west", [rect(0, 0, 180, 400)]),
            District("east", [rect(220, 0, 400, 400)]),
        ]
        layers.detections = [
            Detection(Point(90, 190), D0),
            Detection(Point(310, 190), D0),
            Detection(Point(200, 190), D0),  # between the two districts
        ]
        perims = compute_perimeters(layers, KdeParams(bandwidth_m=4))
        west = perims["west"][0].new_burn
        east = perims["east"][0].new_burn
        assert west.popcount() == 1
        assert east.popcount() == 1
        # The stray detection belongs to neither district.
        assert west.bits[10, 4] and east.bits[10, 15]

    def test_detection_in_two_overlapping_parts_is_kept(self):
        layers = Layers(manifest=manifest(20))
        layers.districts = [
            District("both", [rect(0, 0, 240, 400), rect(160, 0, 400, 400)])
        ]
        layers.detections = [
            Detection(Point(205, 195), D0),  # in both parts
            Detection(Point(95, 195), D0),  # in the first part only
        ]
        new_burn = compute_perimeters(layers, KdeParams(bandwidth_m=4))["both"][0].new_burn
        assert new_burn.popcount() == 2
        assert new_burn.bits[10, 10] and new_burn.bits[10, 4]

    def test_districts_share_event_date_range(self):
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.districts = [
            District("west", [rect(0, 0, 180, 400)]),
            District("east", [rect(220, 0, 400, 400)]),
        ]
        layers.detections = [
            Detection(Point(90, 200), D0),
            Detection(Point(300, 200), D0 + dt.timedelta(days=2)),
        ]
        perims = compute_perimeters(layers, KdeParams(bandwidth_m=4))
        for days in perims.values():
            assert [d.date for d in days] == [D0 + dt.timedelta(days=i) for i in range(3)]

    def test_no_districts_rejected(self):
        layers = Layers(manifest=manifest())
        with pytest.raises(ValidationError):
            compute_perimeters(layers, KdeParams())


class TestComputePopulation:
    def test_needs_landcover(self):
        layers = Layers(manifest=manifest())
        with pytest.raises(ValidationError):
            compute_population(layers)

    def test_population_and_mass(self):
        from fireimpact.dasymetric import CensusBlock

        m = manifest(8)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((8, 8), 22))
        layers.blocks = [
            CensusBlock("b1", [rect(0, 0, 80, 160)], 64.0, "t1"),
        ]
        popgrid, report, mass = compute_population(layers)
        assert float(popgrid.cells.sum()) == 64.0
        assert mass.max_rel_err() <= 1e-9

    @pytest.mark.parametrize("sliver_first", [True, False])
    def test_sliver_inside_a_neighbours_cell_passes_mass_check(self, sliver_first):
        from fireimpact.dasymetric import CensusBlock

        m = manifest(4)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((4, 4), 22))
        sliver = CensusBlock("s", [rect(2, 2, 6, 6)], 7.0, "t1")
        neighbour = CensusBlock("n", [rect(0, 0, 40, 80)], 80.0, "t1")
        layers.blocks = [sliver, neighbour] if sliver_first else [neighbour, sliver]
        popgrid, report, mass = compute_population(layers)
        assert float(popgrid.cells.sum()) == pytest.approx(87.0)
        assert report.fallback_ids() == {"s"}
        assert mass.max_rel_err() <= 1e-9


class TestLandcoverResampling:
    def test_coarser_source_grid_is_resampled(self, tmp_path):
        from fireimpact.io_formats import read_ascii_grid, write_ascii_grid
        from fireimpact.pipeline import resample_landcover

        # 30 m source over the same extent as a 20 m analysis grid.
        src = CategoryRaster(
            AnalysisGrid(0, 0, 30, 4, 4), np.arange(16).reshape(4, 4) + 21
        )
        write_ascii_grid(src, tmp_path / "lc.asc")
        m = FileManifest(
            origin_lon=-118.25, origin_lat=34.05,
            grid=AnalysisGrid(0, 0, 20, 6, 6), paths={},
        )
        back = read_ascii_grid(tmp_path / "lc.asc")
        out = resample_landcover(back, m)
        assert out.grid == m.grid
        # Target center (10, 110) falls in source cell row 0, col 0.
        assert out.cells[0, 0] == src.cells[0, 0]


class TestExposureByBlock:
    def test_blocks_partition_exposure(self):
        from fireimpact.dasymetric import CensusBlock, WeightTable, downscale

        m = manifest(8)
        g = m.grid
        landcover = CategoryRaster(g, np.full((8, 8), 22))
        blocks = [
            CensusBlock("west", [rect(0, 0, 80, 160)], 40.0, "t1"),
            CensusBlock("east", [rect(80, 0, 160, 160)], 24.0, "t2"),
        ]
        popgrid, report = downscale(blocks, landcover, WeightTable.default(), g)
        bits = np.zeros((8, 8), dtype=bool)
        bits[:, 2:6] = True  # straddles both blocks
        by_block = exposure_by_block(Mask(g, bits), report)
        total = float(popgrid.cells[bits].sum())
        assert sum(by_block.values()) == pytest.approx(total, rel=1e-12)
        assert by_block["west"] > 0 and by_block["east"] > 0


    def test_matches_each_blocks_own_sum_exactly(self):
        from fireimpact.dasymetric import CensusBlock, WeightTable, downscale

        rng = np.random.default_rng(5)
        m = manifest(24)
        g = m.grid
        landcover = CategoryRaster(g, rng.choice([11, 21, 22, 41, 82], size=(24, 24)))
        blocks = [
            CensusBlock(f"b{i % 7}", [rect(x, y, x + 120, y + 160)], float(rng.uniform(1, 900)), "t1")
            for i, (x, y) in enumerate((x, y) for x in range(0, 480, 120) for y in range(0, 480, 160))
        ]
        blocks.append(CensusBlock("tiny", [rect(3, 3, 6, 6)], 5.0, "t1"))
        popgrid, report = downscale(blocks, landcover, WeightTable.default(), g)
        bits = rng.random((24, 24)) < 0.6
        # Reference: each block with a cell in the mask, its own cells summed
        # in allocation order.
        want: dict[str, float] = {}
        for alloc in report.allocations:
            hit = bits[alloc.rows, alloc.cols]
            if hit.any():
                want[alloc.block_id] = float(popgrid.cells[alloc.rows[hit], alloc.cols[hit]].sum())
        got = exposure_by_block(Mask(g, bits), report)
        assert list(got.items()) == list(want.items())

    def test_only_blocks_with_a_cell_in_the_mask(self):
        from fireimpact.dasymetric import CensusBlock, WeightTable, downscale

        g = manifest(8).grid
        landcover = CategoryRaster(g, np.full((8, 8), 22))
        blocks = [
            CensusBlock("west", [rect(0, 0, 80, 160)], 40.0, "t1"),
            CensusBlock("empty", [rect(80, 0, 120, 160)], 0.0, "t1"),
            CensusBlock("east", [rect(120, 0, 160, 160)], 24.0, "t2"),
        ]
        _, report = downscale(blocks, landcover, WeightTable.default(), g)
        bits = np.zeros((8, 8), dtype=bool)
        bits[:, :6] = True  # west and empty, not east
        assert exposure_by_block(Mask(g, bits), report) == {"west": 40.0, "empty": 0.0}
        assert exposure_by_block(Mask.empty(g), report) == {}

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_shared_centroid_cell_charges_each_block_its_own_pop(self, order):
        from fireimpact.dasymetric import WeightTable, downscale
        from fireimpact.impact import demographic_breakdown, population_exposure

        # Two slivers capture no cell center; both fall back to the one cell.
        g = AnalysisGrid(0, 0, 20, 1, 1)
        slivers = [
            CensusBlock("a", [rect(1, 1, 3, 3)], 10.0, "t0"),
            CensusBlock("b", [rect(4, 4, 6, 6)], 20.0, "t0"),
        ]
        blocks = [slivers[k] for k in order]
        landcover = CategoryRaster(g, np.full((1, 1), 22))
        popgrid, report = downscale(blocks, landcover, WeightTable.default(), g)
        assert [a.fallback for a in report.allocations] == ["centroid", "centroid"]
        mask = Mask(g, np.ones((1, 1), dtype=bool))
        by_block = exposure_by_block(mask, report)
        assert by_block == {"a": 10.0, "b": 20.0}
        exposed = population_exposure(mask, popgrid)
        assert exposed == 30.0
        demo = demographic_breakdown(
            by_block, {"a": "t0", "b": "t0"},
            {"t0": TractDemographics("t0", **TRACT_SHARES[0])},
        )
        for group in ("gender", "age", "race"):
            assert sum(getattr(demo, group).values()) == pytest.approx(exposed, rel=1e-12)


class TestAssessBuildings:
    def test_building_in_two_districts_is_charged_once_in_each(self):
        from fireimpact.dasymetric import CensusBlock

        m = manifest(20)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((20, 20), 22))
        layers.blocks = [CensusBlock("b1", [rect(0, 0, 400, 400)], 100.0, "t1")]
        layers.districts = [
            District("east", [rect(100, 0, 400, 400)]),
            District("west", [rect(0, 0, 300, 400)]),
        ]
        # Covers the centers of cells (10, 9) and (10, 10), inside both districts.
        house = BuildingFeature([rect(180, 180, 220, 200)], "house")
        layers.buildings = [house]
        layers.detections = [
            Detection(Point(191, 191), D0),
            Detection(Point(211, 191), D0 + dt.timedelta(days=1)),
        ]
        records = assess(layers, KdeParams(bandwidth_m=4))
        charge = to_cents(house.area() * CostModel.demo().building_cost)
        got = [(r.date, r.district, r.building_count, r.building_loss_cents) for r in records]
        assert got == [
            (D0, "east", 1, charge),
            (D0, "west", 1, charge),
            (D0 + dt.timedelta(days=1), "east", 0, 0),
            (D0 + dt.timedelta(days=1), "west", 0, 0),
        ]
        assert all(r.new_burn_cells == 1 for r in records)


# Tract shares that weight every group's keys differently.
TRACT_SHARES = [
    {"gender": {"female": 0.3, "male": 0.7},
     "age": {"age_0_17": 0.2, "age_18_64": 0.5, "age_65_plus": 0.3},
     "race": {"white": 0.1, "asian": 0.2, "black": 0.3, "multiracial": 0.25, "other": 0.15}},
    {"gender": {"female": 0.55, "male": 0.45},
     "age": {"age_0_17": 0.15, "age_18_64": 0.6, "age_65_plus": 0.25},
     "race": {"white": 0.45, "asian": 0.05, "black": 0.1, "multiracial": 0.3, "other": 0.1}},
]


@st.composite
def assess_layers(draw):
    """Layers whose totals are float sums over several features.

    Blocks tile the grid without overlap; some tiles give their bottom-left
    corner to up to three slivers that capture no cell center and so share
    one centroid cell. Each road class has two or three roads with float
    vertices; buildings and POIs fall anywhere.
    """
    cell = 20.0
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    g = AnalysisGrid(0, 0, cell, n_rows, n_cols)
    layers = Layers(manifest=FileManifest(-118.25, 34.05, g, {}))
    codes = draw(st.lists(st.sampled_from([21, 22, 24, 42]),
                          min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    layers.landcover = CategoryRaster(g, np.array(codes).reshape(n_rows, n_cols))
    pop = st.floats(0, 500, allow_subnormal=False)
    tract = st.sampled_from(["t0", "t1"])
    ys = sorted({0, n_rows} | draw(st.sets(st.integers(1, n_rows))))
    xs = sorted({0, n_cols} | draw(st.sets(st.integers(1, n_cols))))
    for i, (b0, b1) in enumerate(zip(ys, ys[1:])):
        for j, (a0, a1) in enumerate(zip(xs, xs[1:])):
            x0, x1, y0, y1 = a0 * cell, a1 * cell, b0 * cell, b1 * cell
            widths = draw(st.lists(st.integers(1, 3), max_size=3))
            if not widths:
                layers.blocks.append(CensusBlock(
                    f"b{i}_{j}", [rect(x0, y0, x1, y1)], draw(pop), draw(tract)))
                continue
            h = draw(st.integers(1, 9))
            edges = np.cumsum([0, *widths]).tolist()
            for k, (e0, e1) in enumerate(zip(edges, edges[1:])):
                layers.blocks.append(CensusBlock(
                    f"s{i}_{j}_{k}", [rect(x0 + e0, y0, x0 + e1, y0 + h)],
                    draw(pop), draw(tract)))
            w = edges[-1]
            rest = Polygon([
                Point(x0 + w, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1),
                Point(x0, y0 + h), Point(x0 + w, y0 + h),
            ])
            layers.blocks.append(CensusBlock(f"r{i}_{j}", [rest], draw(pop), draw(tract)))
    layers.demographics = {
        t: TractDemographics(t, **shares) for t, shares in zip(["t0", "t1"], TRACT_SHARES)
    }

    x = st.floats(-10, g.max_x + 10)
    y = st.floats(-10, g.max_y + 10)
    for road_class in ("primary", "residential"):
        for _ in range(draw(st.integers(2, 3))):
            vertices = draw(st.lists(st.tuples(x, y), min_size=2, max_size=4, unique=True))
            layers.roads.append(RoadFeature(PolyLine([Point(*v) for v in vertices]), road_class))
    for k in range(draw(st.integers(0, 4))):
        bx, by = draw(st.integers(0, int(g.max_x) - 1)), draw(st.integers(0, int(g.max_y) - 1))
        bw, bh = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        layers.buildings.append(BuildingFeature([rect(bx, by, bx + bw, by + bh)], f"h{k}"))
    for k in range(draw(st.integers(0, 6))):
        category = draw(st.sampled_from(["clinic", "school", "shelter"]))
        layers.pois.append(PoiFeature(Point(draw(x), draw(y)), category))

    layers.districts = [District("d", [rect(0, 0, g.max_x, g.max_y)])]
    inside = st.tuples(st.floats(0, g.max_x), st.floats(0, g.max_y))
    layers.detections = [
        Detection(Point(*xy), D0 + dt.timedelta(days=day))
        for day in range(draw(st.integers(1, 3)))
        for xy in draw(st.lists(inside, min_size=1, max_size=4))
    ]
    return layers


class TestInputOrder:
    """Reordering blocks, roads, buildings or POIs leaves the records and report alone."""

    @given(assess_layers(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_reordering_features_changes_no_record(self, layers, rnd):
        params = KdeParams(bandwidth_m=20.0)
        shuffled = dataclasses.replace(layers, **{
            name: rnd.sample(getattr(layers, name), len(getattr(layers, name)))
            for name in ("blocks", "roads", "buildings", "pois")
        })
        records = assess(layers, params)
        again = assess(shuffled, params)
        assert [repr(r) for r in again] == [repr(r) for r in records]
        with tempfile.TemporaryDirectory() as tmp:
            write_report(records, Path(tmp) / "a.csv")
            write_report(again, Path(tmp) / "b.csv")
            assert (Path(tmp) / "b.csv").read_bytes() == (Path(tmp) / "a.csv").read_bytes()


class TestDemographicsSumToExposure:
    """Slivers that share a centroid cell are charged their own population."""

    @given(assess_layers())
    @settings(max_examples=50, deadline=None)
    def test_every_group_sums_to_the_exposed_population(self, layers):
        for active_extent in (False, True):
            for r in assess(layers, KdeParams(bandwidth_m=20.0), active_extent=active_extent):
                for group in ("gender", "age", "race"):
                    got = sum(getattr(r.demographics, group).values())
                    assert got == pytest.approx(r.exposed_population, rel=1e-9, abs=1e-9)


class TestLazyTracing:
    def test_assess_traces_no_perimeters(self, tmp_path, monkeypatch):
        import sys

        from fireimpact import geometry
        from fireimpact.io_formats import read_manifest, write_daily_perimeters_geojson
        from fireimpact.pipeline import load_layers
        from fireimpact.scenario import ScenarioSpec, generate

        generate(ScenarioSpec(seed=7), tmp_path / "s")
        manifest = read_manifest(tmp_path / "s" / "manifest.json")
        layers = load_layers(
            manifest,
            {"detections", "landcover", "blocks", "roads", "buildings", "pois",
             "official_perimeter", "weights", "costs", "demographics"},
        )
        # The array-level tracer, which trace_mask_boundary also calls.
        original = geometry.trace_mask_rings
        traced = []

        def counting(m):
            traced.append(m)
            return original(m)

        # Rebind every name the tracer is reachable under, as imported.
        for name, module in list(sys.modules.items()):
            if name.startswith("fireimpact") and vars(module).get("trace_mask_rings") is original:
                monkeypatch.setattr(module, "trace_mask_rings", counting)

        for active_extent in (False, True):
            assert assess(layers, KdeParams(bandwidth_m=4.0), active_extent=active_extent)
        assert traced == []

        # The writers trace each day they write, once.
        day = compute_perimeters(layers, KdeParams(bandwidth_m=4.0))["district-a"][0]
        write_daily_perimeters_geojson(
            "district-a", day, manifest.origin_lon, manifest.origin_lat, tmp_path / "d.geojson"
        )
        assert len(traced) == 1 and np.array_equal(traced[0].bits, day.new_burn.bits)
