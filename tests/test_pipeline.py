import dataclasses
import datetime as dt
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.errors import MissingTractError, UnpricedClassError, ValidationError
from fireimpact.geometry import Point, segment_sums
from fireimpact.grid import AnalysisGrid, CategoryRaster
from fireimpact.impact import (
    DEMOGRAPHIC_GROUPS,
    BuildingIndex,
    CostModel,
    DailyImpactRecord,
    Demographics,
    TractDemographics,
    building_loss_by_day,
    demographic_breakdown_by_day,
    population_exposure_by_day,
    to_cents,
)
from fireimpact.io_formats import FileManifest, write_report
from fireimpact.perimeters import Detection, KdeParams
from fireimpact.pipeline import (
    Layers,
    assess,
    block_exposures,
    compute_perimeters,
    compute_population,
    event_dates,
)

import layer_tables as tables
from layer_tables import (
    Block,
    District,
    Poi,
    PolyLine,
    Polygon,
    Road,
    line_cells,
    polygon_area,
    polygon_layer,
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
        assert event_dates(tables.detections([])) == []

    def test_contiguous_range_fills_gaps(self):
        dets = [
            Detection(Point(1, 1), D0),
            Detection(Point(2, 2), D0 + dt.timedelta(days=3)),
        ]
        want = [D0 + dt.timedelta(days=i) for i in range(4)]
        assert event_dates(tables.detections(dets)) == want

    def test_span_beyond_first_burn_raster_is_rejected_before_building(self):
        dets = [Detection(Point(1, 1), dt.date.min), Detection(Point(2, 2), dt.date.max)]
        with pytest.raises(ValidationError, match="3652059 days exceed"):
            event_dates(tables.detections(dets))

    def test_longest_span_the_raster_indexes_is_kept(self):
        last = D0 + dt.timedelta(days=32766)
        dets = [Detection(Point(1, 1), D0), Detection(Point(2, 2), last)]
        assert len(event_dates(tables.detections(dets))) == 32767
        dets[1] = Detection(Point(2, 2), last + dt.timedelta(days=1))
        with pytest.raises(ValidationError, match="32768 days exceed"):
            event_dates(tables.detections(dets))


class TestComputePerimeters:
    def test_detections_partition_by_district(self):
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.districts = tables.districts([
            District("west", [rect(0, 0, 180, 400)]),
            District("east", [rect(220, 0, 400, 400)]),
        ])
        layers.detections = tables.detections([
            Detection(Point(90, 190), D0),
            Detection(Point(310, 190), D0),
            Detection(Point(200, 190), D0),  # between the two districts
        ])
        perims = compute_perimeters(layers, KdeParams(bandwidth_m=4))
        west = perims["west"][0].new_burn
        east = perims["east"][0].new_burn
        assert west.popcount() == 1
        assert east.popcount() == 1
        # The stray detection belongs to neither district.
        assert west.bits[10, 4] and east.bits[10, 15]

    def test_detection_in_two_overlapping_parts_is_kept(self):
        layers = Layers(manifest=manifest(20))
        layers.districts = tables.districts([
            District("both", [rect(0, 0, 240, 400), rect(160, 0, 400, 400)])
        ])
        layers.detections = tables.detections([
            Detection(Point(205, 195), D0),  # in both parts
            Detection(Point(95, 195), D0),  # in the first part only
        ])
        new_burn = compute_perimeters(layers, KdeParams(bandwidth_m=4))["both"][0].new_burn
        assert new_burn.popcount() == 2
        assert new_burn.bits[10, 10] and new_burn.bits[10, 4]

    def test_districts_share_event_date_range(self):
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.districts = tables.districts([
            District("west", [rect(0, 0, 180, 400)]),
            District("east", [rect(220, 0, 400, 400)]),
        ])
        layers.detections = tables.detections([
            Detection(Point(90, 200), D0),
            Detection(Point(300, 200), D0 + dt.timedelta(days=2)),
        ])
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
        m = manifest(8)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((8, 8), 22))
        layers.blocks = tables.blocks([
            Block("b1", [rect(0, 0, 80, 160)], 64.0, "t1"),
        ])
        popgrid, report, mass = compute_population(layers)
        assert float(popgrid.cells.sum()) == 64.0
        assert mass.max_rel_err() <= 1e-9

    @pytest.mark.parametrize("sliver_first", [True, False])
    def test_sliver_inside_a_neighbours_cell_passes_mass_check(self, sliver_first):
        m = manifest(4)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((4, 4), 22))
        sliver = Block("s", [rect(2, 2, 6, 6)], 7.0, "t1")
        neighbour = Block("n", [rect(0, 0, 40, 80)], 80.0, "t1")
        layers.blocks = tables.blocks([sliver, neighbour] if sliver_first else [neighbour, sliver])
        popgrid, report, mass = compute_population(layers)
        assert float(popgrid.cells.sum()) == pytest.approx(87.0)
        assert report.fallback_ids() == {"s"}
        assert mass.max_rel_err() <= 1e-9

    def test_mass_failure_names_the_first_block_with_the_largest_error(self, monkeypatch):
        from fireimpact import pipeline
        from fireimpact.dasymetric import MassReport

        m = manifest(8)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((8, 8), 22))
        layers.blocks = tables.blocks([Block("b1", [rect(0, 0, 80, 160)], 64.0, "t1")])
        # A fallback block's error is exempt; of two equal errors the first is named.
        rel_err = np.array([1e-3, 0.5, 2e-3, 2e-3, 1e-12])
        fallback = np.array([0, 2, 0, 0, 0], dtype=np.int8)
        mass = MassReport(["a", "f", "b", "c", "d"], np.ones(5), np.ones(5), rel_err, fallback)
        monkeypatch.setattr(pipeline, "validate_mass", lambda *args: mass)
        with pytest.raises(ValidationError) as err:
            compute_population(layers)
        assert str(err.value) == "mass preservation failed: block b off by 0.002"


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
        from fireimpact.dasymetric import WeightTable, downscale

        m = manifest(8)
        g = m.grid
        landcover = CategoryRaster(g, np.full((8, 8), 22))
        blocks = tables.blocks([
            Block("west", [rect(0, 0, 80, 160)], 40.0, "t1"),
            Block("east", [rect(80, 0, 160, 160)], 24.0, "t2"),
        ])
        popgrid, report = downscale(blocks, landcover, WeightTable.default(), g)
        bits = np.zeros((8, 8), dtype=bool)
        bits[:, 2:6] = True  # straddles both blocks
        _, ids, exposed = block_exposures(report, [bits], 1, g.n_cols)
        total = float(popgrid.cells[bits].sum())
        assert sum(exposed) == pytest.approx(total, rel=1e-12)
        assert ids == ["west", "east"] and all(exposed > 0)


    def test_matches_each_blocks_own_sum_exactly(self):
        from fireimpact.dasymetric import WeightTable, downscale

        rng = np.random.default_rng(5)
        m = manifest(24)
        g = m.grid
        landcover = CategoryRaster(g, rng.choice([11, 21, 22, 41, 82], size=(24, 24)))
        blocks = [
            Block(f"b{i % 7}", [rect(x, y, x + 120, y + 160)], float(rng.uniform(1, 900)), "t1")
            for i, (x, y) in enumerate((x, y) for x in range(0, 480, 120) for y in range(0, 480, 160))
        ]
        blocks.append(Block("tiny", [rect(3, 3, 6, 6)], 5.0, "t1"))
        popgrid, report = downscale(tables.blocks(blocks), landcover, WeightTable.default(), g)
        bits = rng.random((24, 24)) < 0.6
        # Reference: each block with a cell in the mask, its own cells summed
        # in allocation order.
        want: dict[str, float] = {}
        for alloc in report.allocations:
            hit = bits[alloc.rows, alloc.cols]
            if hit.any():
                want[alloc.block_id] = float(popgrid.cells[alloc.rows[hit], alloc.cols[hit]].sum())
        _, ids, exposed = block_exposures(report, [bits], 1, g.n_cols)
        got = dict(zip(ids, exposed.tolist()))
        assert list(got.items()) == list(want.items())

    def test_only_blocks_with_a_cell_in_the_mask(self):
        from fireimpact.dasymetric import WeightTable, downscale

        g = manifest(8).grid
        landcover = CategoryRaster(g, np.full((8, 8), 22))
        blocks = tables.blocks([
            Block("west", [rect(0, 0, 80, 160)], 40.0, "t1"),
            Block("empty", [rect(80, 0, 120, 160)], 0.0, "t1"),
            Block("east", [rect(120, 0, 160, 160)], 24.0, "t2"),
        ])
        _, report = downscale(blocks, landcover, WeightTable.default(), g)
        bits = np.zeros((8, 8), dtype=bool)
        bits[:, :6] = True  # west and empty, not east
        days, ids, exposed = block_exposures(report, [bits, np.zeros_like(bits)], 2, g.n_cols)
        assert (days.tolist(), ids, exposed.tolist()) == ([0, 0], ["west", "empty"], [40.0, 0.0])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_shared_centroid_cell_charges_each_block_its_own_pop(self, order):
        from fireimpact.dasymetric import WeightTable, downscale

        # Two slivers capture no cell center; both fall back to the one cell.
        g = AnalysisGrid(0, 0, 20, 1, 1)
        slivers = [
            Block("a", [rect(1, 1, 3, 3)], 10.0, "t0"),
            Block("b", [rect(4, 4, 6, 6)], 20.0, "t0"),
        ]
        blocks = tables.blocks([slivers[k] for k in order])
        landcover = CategoryRaster(g, np.full((1, 1), 22))
        popgrid, report = downscale(blocks, landcover, WeightTable.default(), g)
        assert [a.fallback for a in report.allocations] == ["centroid", "centroid"]
        burns = [np.ones((1, 1), dtype=bool)]
        by_block = block_exposures(report, burns, 1, g.n_cols)
        assert dict(zip(by_block[1], by_block[2].tolist())) == {"a": 10.0, "b": 20.0}
        [exposed] = population_exposure_by_day(popgrid, burns, 1).tolist()
        assert exposed == 30.0
        demo = next(demographic_breakdown_by_day(
            *by_block, 1, {"a": "t0", "b": "t0"},
            {"t0": TractDemographics("t0", **TRACT_SHARES[0])},
        ))
        for group in ("gender", "age", "race"):
            assert sum(getattr(demo, group).values()) == pytest.approx(exposed, rel=1e-12)


class TestAssessBuildings:
    @pytest.mark.parametrize("shapes, message", [
        ({"east": rect(100, 0, 400, 400), "west": rect(0, 0, 300, 400)},
         "districts 'east' and 'west' overlap: 200 grid cell(s) in both"),
        ({"a": rect(0, 0, 100, 100), "b": rect(200, 200, 300, 300),
          "c": rect(260, 260, 400, 400), "d": rect(0, 0, 40, 40)},
         "districts 'a' and 'd' overlap: 4 grid cell(s) in both"),
        ({"a": rect(0, 0, 100, 100), "b": rect(60, 60, 400, 400), "c": rect(0, 0, 400, 400)},
         "districts 'a' and 'b' overlap: 4 grid cell(s) in both"),
    ])
    def test_districts_that_share_a_cell_are_rejected(self, shapes, message):
        # A cell in two districts would be charged to both, so event totals
        # would count it twice. The first district in file order with a
        # shared cell is named, then the first later one it shares with.
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.full((20, 20), 22))
        layers.blocks = tables.blocks([Block("b1", [rect(0, 0, 400, 400)], 100.0, "t1")])
        layers.roads, layers.pois = tables.roads([]), tables.pois([])
        layers.districts = tables.districts([District(k, [v]) for k, v in shapes.items()])
        layers.buildings = polygon_layer([[rect(180, 180, 220, 200)]])
        layers.detections = tables.detections([Detection(Point(191, 191), D0)])
        with pytest.raises(ValidationError) as info:
            assess(layers, KdeParams(bandwidth_m=4))
        assert str(info.value) == message

    def test_districts_that_only_touch_are_accepted(self):
        m = manifest(20)
        layers = Layers(manifest=m)
        layers.districts = tables.districts([
            District("east", [rect(200, 0, 400, 400)]), District("west", [rect(0, 0, 200, 400)]),
        ])
        layers.detections = tables.detections([Detection(Point(191, 191), D0)])
        got = compute_perimeters(layers, KdeParams(bandwidth_m=4))
        assert [p.new_burn.bits.sum() for p in got["west"]] == [1]
        assert [p.new_burn.bits.sum() for p in got["east"]] == [0]


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
def assess_inputs(draw, unpriced=False):
    """Layers whose totals are float sums over several features, and the
    rows their blocks, roads, buildings and POIs are built from.

    Blocks tile the grid without overlap; some tiles give their bottom-left
    corner to up to three slivers that capture no cell center and so share
    one centroid cell. Each road class has two or three roads with float
    vertices, some on grid lines, that may leave the grid; buildings fall
    anywhere, and POIs anywhere too, on cell edges and off the grid among
    them. A second district may take the west half from the first (two
    districts must not share a cell). With ``unpriced`` the
    cost model may, in half the draws, lack up to two land classes and one
    road class.
    """
    rows = {"blocks": [], "roads": [], "buildings": [], "pois": []}
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
                rows["blocks"].append(Block(
                    f"b{i}_{j}", [rect(x0, y0, x1, y1)], draw(pop), draw(tract)))
                continue
            h = draw(st.integers(1, 9))
            edges = np.cumsum([0, *widths]).tolist()
            for k, (e0, e1) in enumerate(zip(edges, edges[1:])):
                rows["blocks"].append(Block(
                    f"s{i}_{j}_{k}", [rect(x0 + e0, y0, x0 + e1, y0 + h)],
                    draw(pop), draw(tract)))
            w = edges[-1]
            rest = Polygon([
                Point(x0 + w, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1),
                Point(x0, y0 + h), Point(x0 + w, y0 + h),
            ])
            rows["blocks"].append(Block(f"r{i}_{j}", [rest], draw(pop), draw(tract)))
    layers.demographics = {
        t: TractDemographics(t, **shares) for t, shares in zip(["t0", "t1"], TRACT_SHARES)
    }

    # Coordinates anywhere near the grid, or on a grid line in or beyond it.
    x = st.floats(-30, g.max_x + 30) | st.integers(-1, n_cols + 1).map(lambda j: j * cell)
    y = st.floats(-30, g.max_y + 30) | st.integers(-1, n_rows + 1).map(lambda i: i * cell)
    for road_class in ("primary", "residential"):
        for _ in range(draw(st.integers(2, 3))):
            vertices = draw(st.lists(st.tuples(x, y), min_size=2, max_size=4, unique=True))
            rows["roads"].append(Road(PolyLine([Point(*v) for v in vertices]), road_class))
    for _ in range(draw(st.integers(0, 4))):
        bx, by = draw(st.integers(0, int(g.max_x) - 1)), draw(st.integers(0, int(g.max_y) - 1))
        bw, bh = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        rows["buildings"].append([rect(bx, by, bx + bw, by + bh)])
    for _ in range(draw(st.integers(0, 6))):
        category = draw(st.sampled_from(["clinic", "school", "shelter"]))
        rows["pois"].append(Poi(Point(draw(x), draw(y)), category))
    if unpriced and draw(st.booleans()):
        costs = CostModel.demo()
        land = {k: v for k, v in costs.land_cost.items()
                if k not in draw(st.sets(st.sampled_from([21, 22, 24, 42]), max_size=2))}
        road = {k: v for k, v in costs.road_cost.items()
                if k not in draw(st.sets(st.sampled_from(["primary", "residential"]), max_size=1))}
        layers.costs = CostModel(land, road, costs.building_cost)

    districts = [District("d", [rect(0, 0, g.max_x, g.max_y)])]
    if n_cols > 1 and draw(st.booleans()):
        west = cell * -(-n_cols // 2)
        districts = [District("d", [rect(west, 0, g.max_x, g.max_y)]),
                     District("c", [rect(0, 0, west, g.max_y)])]
    layers.districts = tables.districts(districts)
    inside = st.tuples(st.floats(0, g.max_x), st.floats(0, g.max_y))
    layers.detections = tables.detections(
        Detection(Point(*xy), D0 + dt.timedelta(days=day))
        for day in range(draw(st.integers(1, 3)))
        for xy in draw(st.lists(inside, min_size=1, max_size=4))
    )
    return with_rows(layers, rows), rows


def with_rows(layers, rows):
    """``layers`` with the blocks, roads, buildings and POIs of ``rows``."""
    return dataclasses.replace(
        layers, blocks=tables.blocks(rows["blocks"]), roads=tables.roads(rows["roads"]),
        buildings=polygon_layer(rows["buildings"]), pois=tables.pois(rows["pois"]),
    )


# ---------------------------------------------------------------------------
# References: the per-object accountants and the per-day assess loop that
# all-days accounting replaced, kept verbatim.
# ---------------------------------------------------------------------------


def reference_land_use_loss(new_burn, landcover, costs):
    if landcover.grid != new_burn.grid:
        raise ValidationError("landcover and mask are not on the same grid")
    burned = landcover.cells[new_burn.bits]
    codes, counts = np.unique(burned, return_counts=True)
    out = {}
    area = new_burn.grid.cell_area
    for code, count in zip(codes, counts):
        code = int(code)
        if code == landcover.nodata:
            continue
        if code not in costs.land_cost:
            raise UnpricedClassError(f"no land cost for class {code}")
        per_cell = to_cents(costs.land_cost[code] * area)
        out[code] = per_cell * int(count)
    return out


def reference_road_loss(new_burn, roads, costs):
    cents = {}
    lengths = {}
    for road in roads:
        if road.road_class not in costs.road_cost:
            raise UnpricedClassError(f"no road cost for class {road.road_class!r}")
        rate = costs.road_cost[road.road_class]
        for (r, c), length in line_cells(road.line, new_burn.grid).items():
            if new_burn.bits[r, c]:
                lengths.setdefault(road.road_class, []).append(length)
                cents[road.road_class] = (
                    cents.get(road.road_class, 0) + to_cents(length * rate)
                )
    classes = sorted(lengths)
    return {k: cents[k] for k in classes}, {k: math.fsum(lengths[k]) for k in classes}


def reference_poi_exposure(new_burn, pois):
    out = {}
    xy = np.array([poi.location for poi in pois], dtype=np.float64).reshape(-1, 2)
    cells = new_burn.grid.flat_cells_of(xy[:, 0], xy[:, 1]).tolist()
    for poi, cell in zip(pois, cells):
        if cell >= 0 and new_burn.bits.flat[cell]:
            out[poi.category] = out.get(poi.category, 0) + 1
    return dict(sorted(out.items()))


def reference_population_exposure(new_burn, popgrid):
    if popgrid.grid != new_burn.grid:
        raise ValidationError("population grid and mask are not on the same grid")
    return float(popgrid.cells[new_burn.bits].sum())


def reference_demographic_breakdown(exposure_by_block, block_tracts, tract_demo):
    exposed_by_tract = {}
    for block_id, exposed in exposure_by_block.items():
        if exposed == 0.0:
            continue
        tract_id = block_tracts.get(block_id)
        if tract_id is None:
            raise MissingTractError(f"block {block_id} has no tract mapping")
        exposed_by_tract.setdefault(tract_id, []).append(exposed)
    counts = Demographics.zeros()
    for tract_id in sorted(exposed_by_tract):
        demo = tract_demo.get(tract_id)
        if demo is None:
            raise MissingTractError(f"no demographics for tract {tract_id}")
        exposed = math.fsum(exposed_by_tract[tract_id])
        for group in DEMOGRAPHIC_GROUPS:
            shares, totals = getattr(demo, group), getattr(counts, group)
            for k in totals:
                totals[k] += exposed * shares[k]
    return counts


def reference_exposure_by_block(mask, report):
    hit = mask.bits.ravel()[report.rows * mask.grid.n_cols + report.cols]
    counts = np.add.reduceat(hit, report.starts, dtype=np.int64)
    touched = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[touched]
    exposed = segment_sums(report.pop[hit], starts, counts[touched])
    return dict(zip([report.block_ids[k] for k in touched.tolist()], exposed.tolist()))


def reference_assess(layers, params, active_extent=False, *, rows):
    """The per-day loop over ``layers``, reading roads and POIs from ``rows``."""
    perimeters = compute_perimeters(layers, params)
    popgrid, ds_report, _ = compute_population(layers)
    block_tracts = dict(zip(layers.blocks.ids, layers.blocks.tracts))
    grid = layers.manifest.grid
    buildings = BuildingIndex.build(layers.buildings, grid, layers.costs)

    records = []
    for name in sorted(perimeters):
        days = perimeters[name]
        if not days:
            continue
        b_cents, b_count = building_loss_by_day(buildings, days[0].first_burn, len(days))
        for i, day in enumerate(days):
            new_burn = day.new_burn
            exposure_mask = day.active if active_extent else new_burn
            land = reference_land_use_loss(new_burn, layers.landcover, layers.costs)
            road_cents, road_m = reference_road_loss(new_burn, rows["roads"], layers.costs)
            pois = reference_poi_exposure(exposure_mask, rows["pois"])
            exposed = reference_population_exposure(exposure_mask, popgrid)
            if layers.demographics is not None:
                by_block = reference_exposure_by_block(exposure_mask, ds_report)
                demo = reference_demographic_breakdown(by_block, block_tracts, layers.demographics)
            else:
                demo = Demographics.zeros()
            records.append(
                DailyImpactRecord(
                    date=day.date,
                    district=name,
                    land_loss_cents=land,
                    road_loss_cents=road_cents,
                    road_length_m=road_m,
                    building_loss_cents=int(b_cents[i]),
                    building_count=int(b_count[i]),
                    poi_count=pois,
                    exposed_population=exposed,
                    demographics=demo,
                    new_burn_cells=new_burn.popcount(),
                )
            )
    records.sort(key=lambda r: (r.date, r.district))
    return records


def assess_outcome(run, layers, active_extent):
    """The records' reprs, or the error type and text."""
    try:
        return [repr(r) for r in run(layers, KdeParams(bandwidth_m=20.0), active_extent)]
    except ValidationError as exc:
        return type(exc), str(exc)


class TestAssessMatchesReference:
    """All-days accounting gives the per-day loop's records, bit for bit,
    and its first error."""

    @given(assess_inputs(unpriced=True), st.sampled_from(["all", "one missing", "none"]))
    @settings(max_examples=150, deadline=None)
    def test_same_records_and_errors(self, inputs, demographics):
        layers, rows = inputs
        if demographics == "none":
            layers.demographics = None
        elif demographics == "one missing":
            del layers.demographics["t1"]
        reference = functools.partial(reference_assess, rows=rows)
        for active_extent in (False, True):
            assert assess_outcome(assess, layers, active_extent) == assess_outcome(
                reference, layers, active_extent
            )

    def test_road_class_raises_before_a_later_days_land_class(self):
        m = manifest(4)
        layers = Layers(manifest=m)
        layers.landcover = CategoryRaster(m.grid, np.array([[42, 22, 22, 22]] * 4))
        layers.blocks = tables.blocks([Block("b", [rect(0, 0, 80, 80)], 10.0, "t")])
        layers.buildings, layers.pois = polygon_layer([]), tables.pois([])
        layers.districts = tables.districts([District("d", [rect(0, 0, 80, 80)])])
        # Day 0 burns class 22 only; day 1 burns class 42 as well.
        layers.detections = tables.detections([
            Detection(Point(70, 70), D0), Detection(Point(10, 70), D0 + dt.timedelta(days=1)),
        ])
        demo = CostModel.demo()
        off_grid = [PolyLine([Point(500, y), Point(600, y)]) for y in (500, 600)]
        for unpriced, classes, want in (
            ({42}, ("primary", "residential"), "no land cost for class 42"),
            ({42}, ("motorway", "alley"), "no road cost for class 'motorway'"),
            # Day 0's land comes before the roads.
            ({22, 42}, ("motorway", "alley"), "no land cost for class 22"),
        ):
            land = {k: v for k, v in demo.land_cost.items() if k not in unpriced}
            roads = [Road(line, c) for line, c in zip(off_grid, classes)]
            layers.roads = tables.roads(roads)
            layers.costs = CostModel(land, demo.road_cost, demo.building_cost)
            reference = functools.partial(reference_assess, rows={"roads": roads, "pois": []})
            for run in (assess, reference):
                with pytest.raises(UnpricedClassError) as err:
                    run(layers, KdeParams(bandwidth_m=4.0))
                assert str(err.value) == want


class TestDemographicBreakdownMatchesReference:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_counts_and_errors_day_by_day(self, data):
        """Blocks may lack a tract and tracts their shares; exposures may be 0."""
        tracts = {f"t{i}": TractDemographics(f"t{i}", **shares)
                  for i, shares in enumerate(TRACT_SHARES * 3)}
        lacking = data.draw(st.sets(st.sampled_from(sorted(tracts)), max_size=1))
        tract_demo = {t: demo for t, demo in tracts.items() if t not in lacking}
        blocks = [f"b{i}" for i in range(12)]
        block_tracts = {b: data.draw(st.sampled_from(sorted(tracts))) for b in blocks
                        if data.draw(st.integers(0, 19))}
        exposure = st.floats(0, 1e4) | st.just(0.0)
        by_day = data.draw(st.lists(
            st.dictionaries(st.sampled_from(blocks), exposure, min_size=4), min_size=1, max_size=4
        ))
        got = demographic_breakdown_by_day(
            np.repeat(np.arange(len(by_day)), [len(d) for d in by_day]),
            [b for d in by_day for b in d], np.array([v for d in by_day for v in d.values()]),
            len(by_day), block_tracts, tract_demo,
        )
        for day in by_day:
            try:
                want = repr(reference_demographic_breakdown(day, block_tracts, tract_demo))
            except MissingTractError as exc:
                with pytest.raises(MissingTractError) as err:
                    next(got)
                assert str(err.value) == str(exc)
                return
            assert repr(next(got)) == want


class TestInputOrder:
    """Reordering blocks, roads, buildings or POIs leaves the records and report alone."""

    @given(assess_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_reordering_features_changes_no_record(self, inputs, rnd):
        layers, rows = inputs
        params = KdeParams(bandwidth_m=20.0)
        shuffled = with_rows(layers, {name: rnd.sample(r, len(r)) for name, r in rows.items()})
        records = assess(layers, params)
        again = assess(shuffled, params)
        assert [repr(r) for r in again] == [repr(r) for r in records]
        with tempfile.TemporaryDirectory() as tmp:
            write_report(records, Path(tmp) / "a.csv")
            write_report(again, Path(tmp) / "b.csv")
            assert (Path(tmp) / "b.csv").read_bytes() == (Path(tmp) / "a.csv").read_bytes()


class TestDemographicsSumToExposure:
    """Slivers that share a centroid cell are charged their own population."""

    @given(assess_inputs())
    @settings(max_examples=50, deadline=None)
    def test_every_group_sums_to_the_exposed_population(self, inputs):
        layers, _ = inputs
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
        # The array-level tracer, which every writer and renderer calls.
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
