import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.errors import MissingTractError, UnpricedClassError, ValidationError
from fireimpact.geometry import Point
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from fireimpact.impact import (
    BuildingIndex,
    CostModel,
    DailyImpactRecord,
    Demographics,
    PoiIndex,
    RoadIndex,
    TractDemographics,
    building_loss_by_day,
    demographic_breakdown_by_day,
    land_use_loss_by_day,
    poi_exposure_by_day,
    population_exposure_by_day,
    road_loss_by_day,
    summarize,
    to_cents,
)

import layer_tables as tables
from layer_tables import (
    Poi,
    PolyLine,
    Polygon,
    Road,
    features_cell_indices,
    line_cells,
    points_in_polygon,
    polygon_area,
    polygon_layer,
)

D0 = dt.date(2025, 1, 7)


def grid(n, cell=20.0):
    return AnalysisGrid(0, 0, cell, n, n)


def mask_of(g, coords):
    bits = np.zeros(g.shape, dtype=bool)
    for r, c in coords:
        bits[r, c] = True
    return Mask(g, bits)


def simple_costs(land=2.0, road=50.0, building=3000.0):
    return CostModel(
        land_cost={21: land, 24: land, 42: land},
        road_cost={"residential": road, "primary": 2 * road},
        building_cost=building,
    )


def record(
    date=D0,
    district="A",
    land=None,
    road=None,
    road_m=None,
    b_cents=0,
    b_count=0,
    poi=None,
    exposed=0.0,
    cells=0,
):
    return DailyImpactRecord(
        date=date,
        district=district,
        land_loss_cents=land or {},
        road_loss_cents=road or {},
        road_length_m=road_m or {},
        building_loss_cents=b_cents,
        building_count=b_count,
        poi_count=poi or {},
        exposed_population=exposed,
        demographics=Demographics.zeros(),
        new_burn_cells=cells,
    )


class TestLandUseLoss:
    def test_empty_burn(self):
        g = grid(5)
        landcover = CategoryRaster(g, np.full((5, 5), 21))
        assert next(land_use_loss_by_day([Mask.empty(g).bits], 1, landcover, simple_costs())) == {}

    def test_ten_cells_at_two_dollars(self):
        g = grid(5)
        landcover = CategoryRaster(g, np.full((5, 5), 21))
        burn = mask_of(g, [(r, c) for r in range(2) for c in range(5)])
        losses = next(land_use_loss_by_day([burn.bits], 1, landcover, simple_costs(land=2.0)))
        assert losses == {21: 800_000}  # 10 * 400 m2 * $2 = $8,000

    def test_mixed_classes_match_enumeration(self):
        rng = np.random.default_rng(4)
        g = grid(8)
        codes = rng.choice([21, 24, 42], size=(8, 8))
        landcover = CategoryRaster(g, codes)
        burn = Mask(g, rng.random((8, 8)) < 0.5)
        costs = CostModel(
            land_cost={21: 1.25, 24: 30.0, 42: 2.0}, road_cost={}, building_cost=0
        )
        losses = next(land_use_loss_by_day([burn.bits], 1, landcover, costs))
        want: dict[int, int] = {}
        for r in range(8):
            for c in range(8):
                if burn.bits[r, c]:
                    code = int(codes[r, c])
                    per_cell = round(costs.land_cost[code] * 400 * 100)
                    want[code] = want.get(code, 0) + per_cell
        assert losses == want

    def test_unpriced_class_is_named(self):
        g = grid(2)
        landcover = CategoryRaster(g, np.full((2, 2), 95))
        with pytest.raises(UnpricedClassError, match="95"):
            next(land_use_loss_by_day([Mask.full(g).bits], 1, landcover, simple_costs()))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_additivity_over_partitions(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(8)
        landcover = CategoryRaster(g, rng.choice([21, 24], size=(8, 8)))
        bits = rng.random((8, 8)) < 0.6
        split = rng.random((8, 8)) < 0.5
        whole, part1, part2 = land_use_loss_by_day(
            [bits, bits & split, bits & ~split], 3, landcover, simple_costs()
        )
        merged: dict[int, int] = {}
        for part in (part1, part2):
            for k, v in part.items():
                merged[k] = merged.get(k, 0) + v
        assert {k: v for k, v in merged.items() if v} == whole


class TestRoadLoss:
    def test_road_outside_burn(self):
        g = grid(5)
        road = Road(PolyLine([Point(10, 10), Point(90, 10)]), "residential")
        index = RoadIndex.build(tables.roads([road]), g, simple_costs())
        cents, meters = next(road_loss_by_day(index, [Mask.empty(g).bits], 1))
        assert cents == {} and meters == {}

    def test_hundred_meters_residential(self):
        g = grid(6)
        road = Road(PolyLine([Point(10, 30), Point(110, 30)]), "residential")
        index = RoadIndex.build(tables.roads([road]), g, simple_costs(road=50.0))
        cents, meters = next(road_loss_by_day(index, [Mask.full(g).bits], 1))
        assert meters["residential"] == pytest.approx(100.0, rel=1e-12)
        assert cents["residential"] == 500_000  # $5,000

    def test_half_in_half_out_matches_clipped_oracle(self):
        g = grid(6)
        # Burn only the west half (cols 0..2).
        burn = mask_of(g, [(r, c) for r in range(6) for c in range(3)])
        line = PolyLine([Point(0, 50), Point(120, 50)])
        road = Road(line, "residential")
        index = RoadIndex.build(tables.roads([road]), g, simple_costs(road=50.0))
        cents, meters = next(road_loss_by_day(index, [burn.bits], 1))
        per_cell = line_cells(line, g)
        want_m = sum(v for (r, c), v in per_cell.items() if burn.bits[r, c])
        assert meters["residential"] == pytest.approx(want_m, rel=1e-12)
        assert meters["residential"] == pytest.approx(60.0, rel=1e-12)
        assert cents["residential"] == 300_000

    def test_unpriced_road_class(self):
        g = grid(3)
        road = Road(PolyLine([Point(0, 10), Point(50, 10)]), "motorway")
        index = RoadIndex.build(tables.roads([road]), g, simple_costs())
        with pytest.raises(UnpricedClassError, match="motorway"):
            next(road_loss_by_day(index, [Mask.full(g).bits], 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cents_distribute_over_mask_partitions(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(8)
        roads = [
            Road(
                PolyLine([Point(rng.uniform(0, 160), rng.uniform(0, 160)),
                          Point(rng.uniform(0, 160), rng.uniform(0, 160))]),
                "residential",
            )
            for _ in range(3)
        ]
        bits = rng.random((8, 8)) < 0.6
        split = rng.random((8, 8)) < 0.5
        index = RoadIndex.build(tables.roads(roads), g, simple_costs())
        (whole, _), (p1, _), (p2, _) = road_loss_by_day(
            index, [bits, bits & split, bits & ~split], 3
        )
        total = p1.get("residential", 0) + p2.get("residential", 0)
        assert total == whole.get("residential", 0)


class TestBuildingLoss:
    def _building(self, g, r, c, area_side=10.0):
        x = g.center_x(c) - area_side / 2
        y = g.center_y(r) - area_side / 2
        rect = Polygon(
            [Point(x, y), Point(x + area_side, y), Point(x + area_side, y + area_side), Point(x, y + area_side)]
        )
        return [rect]

    def test_already_burned_building_costs_nothing_today(self):
        g = grid(5)
        b = self._building(g, 2, 2)
        # Day 0 burned (2, 2); today, day 1, burns (2, 2) again and (2, 3).
        first = first_burn_raster(g, {(2, 2): 0, (2, 3): 1})
        index = BuildingIndex.build(polygon_layer([b]), g, simple_costs())
        cents, counts = building_loss_by_day(index, first, 2)
        assert (cents[1], counts[1]) == (0, 0)

    def test_200_m2_footprint_cost(self):
        g = grid(3)
        # 16 m x 12.5 m = 200 m2, inside cell (1, 1).
        x0, y0 = g.center_x(1) - 8, g.center_y(1) - 6.25
        rect = Polygon(
            [Point(x0, y0), Point(x0 + 16, y0), Point(x0 + 16, y0 + 12.5), Point(x0, y0 + 12.5)]
        )
        index = BuildingIndex.build(polygon_layer([[rect]]), g, simple_costs(building=3000.0))
        cents, counts = building_loss_by_day(index, first_burn_raster(g, {(1, 1): 0}), 1)
        assert counts.tolist() == [1]
        assert cents.tolist() == [60_000_000]  # $600,000

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_first_day_attribution_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(8)
        buildings = [
            self._building(g, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            for _ in range(50)
        ]
        daily = [Mask(g, rng.random((8, 8)) < 0.15) for _ in range(4)]
        # Disjoint new burns via running cumulative.
        cum = np.zeros(g.shape, dtype=bool)
        new_burns = []
        for m in daily:
            nb = m.bits & ~cum
            new_burns.append(Mask(g, nb))
            cum |= nb

        index = BuildingIndex.build(polygon_layer(buildings), g, simple_costs())
        _, counts = building_loss_by_day(index, first_burn_day(new_burns, g), len(new_burns))
        got_counts = counts.tolist()

        # Oracle: per building, find its first day by direct scan.
        want_counts = [0] * len(new_burns)
        centers = [(r, c) for r in range(8) for c in range(8)]
        xs = np.array([g.center_x(c) for _, c in centers])
        ys = np.array([g.center_y(r) for r, _ in centers])
        for b in buildings:
            inside = np.zeros(len(centers), dtype=bool)
            for fp in b:
                inside |= points_in_polygon(xs, ys, fp)
            if not inside.any():
                continue
            cell = centers[int(np.argmax(inside))]
            for day, nb in enumerate(new_burns):
                if nb.bits[cell]:
                    want_counts[day] += 1
                    break
        assert got_counts == want_counts
        # No building charged twice: total equals buildings ever hit.
        ever = sum(
            1
            for b in buildings
            if any(
                nb.bits[cell]
                for nb in new_burns
                for cell in [g.cell_of(b[0].exterior[0].x + 5, b[0].exterior[0].y + 5)]
                if cell is not None
            )
        )
        assert sum(got_counts) == ever


def area(footprints):
    """A building's area: the ``math.fsum`` of its footprints' areas."""
    return math.fsum(polygon_area(p) for p in footprints)


def box(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


def first_burn_day(burns, g):
    """Index of the first mask that covers each cell, -1 where none does."""
    first = np.full(g.shape, -1, dtype=np.int16)
    for day, burn in enumerate(burns):
        first[(first < 0) & burn.bits] = day
    return first


def first_burn_raster(g, burns):
    """Day raster from {(row, col): day}; -1 elsewhere."""
    first = np.full(g.shape, -1, dtype=np.int16)
    for cell, day in burns.items():
        first[cell] = day
    return first


class TestBuildingLossByDay:
    def test_empty_footprints_interleaved_with_charged_ones(self):
        # reduceat returns the element at the start of an empty segment, so
        # an uncovered building next to a burned one must not be charged.
        g = grid(5)
        costs = simple_costs()
        buildings = [
            [box(-80, -80, -60, -60)],  # off the grid
            [box(20, 60, 40, 80)],  # cell (1, 1)
            [box(41, 41, 49, 49)],  # between centers
            [box(60, 20, 80, 40)],  # cell (3, 3)
            [box(41, 81, 49, 89)],  # between centers
        ]
        index = BuildingIndex.build(polygon_layer(buildings), g, costs)
        assert index.starts.size == 2
        first = first_burn_raster(g, {(1, 1): 1, (3, 3): 0, (2, 2): 0, (0, 2): 2})
        cents, counts = building_loss_by_day(index, first, 3)
        one = to_cents(400.0 * costs.building_cost)
        assert counts.tolist() == [1, 1, 0]
        assert cents.tolist() == [one, one, 0]

    def test_charged_on_the_earliest_day_of_its_footprint(self):
        g = grid(5)
        costs = simple_costs()
        # Covers the centers of (2, 1), (2, 2) and (2, 3).
        b = [box(25, 45, 75, 55)]
        index = BuildingIndex.build(polygon_layer([b]), g, costs)
        first = first_burn_raster(g, {(2, 1): 2, (2, 3): 1})
        cents, counts = building_loss_by_day(index, first, 4)
        assert counts.tolist() == [0, 1, 0, 0]
        assert cents.tolist() == [0, to_cents(area(b) * costs.building_cost), 0, 0]

    def test_cents_are_summed_as_exact_integers(self):
        # 3 * 2**52 + 3 is odd and above 2**53, so float weights would round it.
        g = grid(4)
        index = BuildingIndex(
            cells=np.array([0, 1], dtype=np.int64),
            starts=np.array([0, 1], dtype=np.int64),
            cents=np.array([2**53 + 2, 2**52 + 1], dtype=np.int64),
        )
        cents, counts = building_loss_by_day(index, first_burn_raster(g, {(0, 0): 0, (0, 1): 0}), 1)
        assert counts.tolist() == [2]
        assert int(cents[0]) == 3 * 2**52 + 3

    def test_no_buildings(self):
        g = grid(3)
        index = BuildingIndex.build(polygon_layer([]), g, simple_costs())
        cents, counts = building_loss_by_day(index, first_burn_raster(g, {(0, 0): 0}), 2)
        assert cents.tolist() == [0, 0] and counts.tolist() == [0, 0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_sequence_matches_day_by_day_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(10)
        costs = simple_costs(building=float(rng.uniform(1, 5000)))
        buildings = []
        for _ in range(40):
            parts = []
            for _ in range(int(rng.integers(1, 3))):
                x0, y0 = rng.uniform(-40, 200, 2)
                w, h = rng.uniform(2, 50, 2)
                parts.append(box(x0, y0, x0 + w, y0 + h))
            buildings.append(parts)
        n_days = int(rng.integers(1, 7))
        cum = np.zeros(g.shape, dtype=bool)
        befores, new_burns = [], []
        for _ in range(n_days):
            nb = (rng.random(g.shape) < 0.1) & ~cum
            befores.append(Mask(g, cum.copy()))
            new_burns.append(Mask(g, nb))
            cum |= nb

        index = BuildingIndex.build(polygon_layer(buildings), g, costs)
        cents, counts = building_loss_by_day(index, first_burn_day(new_burns, g), n_days)
        # Each day on its own: day 0 holds the cells burned before it, day 1 its new burn.
        daily = []
        for before, nb in zip(befores, new_burns):
            first = np.where(before.bits, 0, np.where(nb.bits, 1, -1))
            day_cents, day_counts = building_loss_by_day(index, first, 2)
            daily.append((int(day_cents[1]), int(day_counts[1])))
        assert [(int(c), int(n)) for c, n in zip(cents, counts)] == daily
        assert int(cents.sum()) == sum(c for c, _ in daily)

        # Oracle: charged today iff no footprint cell burned earlier and one burns today.
        want = []
        for before, nb in zip(befores, new_burns):
            total = count = 0
            for b in buildings:
                cells, _ = features_cell_indices([b], g)
                was, now = before.bits.ravel()[cells], nb.bits.ravel()[cells]
                if cells.size and not was.any() and now.any():
                    total += to_cents(area(b) * costs.building_cost)
                    count += 1
            want.append((total, count))
        assert daily == want


class TestPoiExposure:
    def test_no_pois_in_burn(self):
        g = grid(4)
        pois = [Poi(Point(10, 10), "Retail")]
        index = PoiIndex.build(tables.pois(pois), g)
        assert poi_exposure_by_day(index, [Mask.empty(g).bits], 1) == [{}]

    def test_three_of_one_category(self):
        g = grid(4)
        burn = mask_of(g, [(3, 0), (3, 1)])
        pois = [
            Poi(Point(10, 10), "Retail"),
            Poi(Point(12, 12), "Retail"),
            Poi(Point(30, 10), "Retail"),
            Poi(Point(70, 70), "Retail"),
        ]
        index = PoiIndex.build(tables.pois(pois), g)
        assert poi_exposure_by_day(index, [burn.bits], 1) == [{"Retail": 3}]

    def test_poi_outside_grid_ignored(self):
        g = grid(2)
        index = PoiIndex.build(tables.pois([Poi(Point(-5, 10), "X")]), g)
        assert poi_exposure_by_day(index, [Mask.full(g).bits], 1) == [{}]


class TestPopulationExposure:
    def test_zero_grid(self):
        g = grid(4)
        pop = RealRaster(g, np.zeros((4, 4)))
        assert population_exposure_by_day(pop, [Mask.full(g).bits], 1).tolist() == [0.0]

    def test_uniform_two_persons_ten_cells(self):
        g = grid(5)
        pop = RealRaster(g, np.full((5, 5), 2.0))
        burn = mask_of(g, [(r, c) for r in range(2) for c in range(5)])
        assert population_exposure_by_day(pop, [burn.bits], 1).tolist() == [20.0]

    def test_exposure_bounded_by_total(self):
        rng = np.random.default_rng(12)
        g = grid(6)
        pop = RealRaster(g, rng.uniform(0, 5, size=(6, 6)))
        total = float(pop.cells.sum())
        new_burns = []
        cum = np.zeros(g.shape, dtype=bool)
        for _ in range(5):
            nb = (rng.random((6, 6)) < 0.3) & ~cum
            cum |= nb
            new_burns.append(nb)
        exposures = population_exposure_by_day(pop, new_burns, 5).tolist()
        assert sum(exposures) <= total + 1e-9


def tract(tid="t1", female=0.523, seniors=0.257):
    male = 1 - female
    return TractDemographics(
        tid,
        gender={"female": female, "male": male},
        age={"age_0_17": 0.2, "age_18_64": 0.8 - seniors, "age_65_plus": seniors},
        race={"white": 0.46, "asian": 0.158, "black": 0.05, "multiracial": 0.13, "other": 0.202},
    )


class TestDemographicBreakdown:
    def test_female_share_example(self):
        demo = next(demographic_breakdown_by_day(
            np.zeros(1, dtype=np.int64), ["b1"], np.array([1000.0]), 1, {"b1": "t1"}, {"t1": tract()}
        ))
        assert round(demo.gender["female"]) == 523

    def test_senior_share_example(self):
        demo = next(demographic_breakdown_by_day(
            np.zeros(1, dtype=np.int64), ["b1"], np.array([1000.0]), 1, {"b1": "t1"}, {"t1": tract()}
        ))
        assert demo.age["age_65_plus"] == pytest.approx(257.0, rel=1e-12)

    def test_zero_exposure_all_zero(self):
        demo = next(demographic_breakdown_by_day(
            np.zeros(1, dtype=np.int64), ["b1"], np.array([0.0]), 1, {"b1": "t1"}, {"t1": tract()}
        ))
        assert all(v == 0.0 for v in demo.gender.values())
        assert all(v == 0.0 for v in demo.race.values())

    def test_groups_sum_to_total_exposure(self):
        rng = np.random.default_rng(2)
        tracts = {f"t{i}": tract(f"t{i}", female=rng.uniform(0.4, 0.6)) for i in range(4)}
        blocks = {f"b{i}": float(rng.uniform(0, 500)) for i in range(12)}
        block_tracts = {b: f"t{i % 4}" for i, b in enumerate(blocks)}
        demo = next(demographic_breakdown_by_day(
            np.zeros(len(blocks), dtype=np.int64), list(blocks), np.array(list(blocks.values())),
            1, block_tracts, tracts,
        ))
        total = sum(blocks.values())
        for group in (demo.gender, demo.age, demo.race):
            assert sum(group.values()) == pytest.approx(total, rel=1e-6)

    def test_missing_tract_is_named(self):
        with pytest.raises(MissingTractError, match="t9"):
            next(demographic_breakdown_by_day(
                np.zeros(1, dtype=np.int64), ["b1"], np.array([10.0]), 1, {"b1": "t9"}, {"t1": tract()}
            ))


class TestSummarize:
    def test_single_record_totals(self):
        rec = record(land={21: 400_000}, exposed=12.0, cells=3)
        summary = summarize([rec])
        assert summary.grand_total_cents == 400_000
        [d] = summary.districts
        assert d.peaks["land_loss_usd"].total == 4000.0
        assert d.peaks["land_loss_usd"].peak_date == D0

    def test_two_day_peak_and_total(self):
        r1 = record(date=D0, land={21: 400_000_000})  # $4M
        r2 = record(date=D0 + dt.timedelta(days=1), land={21: 100_000_000})  # $1M
        summary = summarize([r1, r2])
        [d] = summary.districts
        assert d.peaks["land_loss_usd"].peak_date == D0
        assert d.peaks["land_loss_usd"].total == 5_000_000.0

    def test_composition_matches_spreadsheet_oracle(self):
        recs = [
            record(date=D0, land={21: 300_000, 24: 100_000}, road_m={"residential": 30.0}),
            record(
                date=D0 + dt.timedelta(days=1),
                land={21: 100_000},
                road_m={"residential": 10.0, "primary": 60.0},
                poi={"Retail": 3, "Dining": 1},
            ),
        ]
        summary = summarize(recs)
        [d] = summary.districts
        assert d.land_pct_by_class[21] == pytest.approx(100 * 4000 / 5000)
        assert d.land_pct_by_class[24] == pytest.approx(100 * 1000 / 5000)
        assert d.road_pct_by_class["residential"] == pytest.approx(100 * 40 / 100)
        assert d.poi_pct_by_category["Retail"] == pytest.approx(75.0)
        for pct in (d.land_pct_by_class, d.road_pct_by_class, d.poi_pct_by_category):
            assert sum(pct.values()) == pytest.approx(100.0, abs=0.01)

    def test_empty_records_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])


class TestCents:
    def test_to_cents_rounds_half_up(self):
        assert to_cents(1.005) in (100, 101)  # float representation decides
        assert to_cents(2.0) == 200
        assert to_cents(0.125) == 13

    @pytest.mark.parametrize("dollars", [1e17, 1e20, float("inf"), float("nan")])
    def test_charge_beyond_int64_is_an_error(self, dollars):
        for amount in (dollars, -dollars, np.array([1.0, dollars])):
            with pytest.raises(ValidationError, match="beyond the int64 range of cents"):
                to_cents(amount)

    def test_largest_charge_below_2_63(self):
        largest = np.nextafter(2.0**63, 0) / 100.0
        assert to_cents(np.array([largest, -largest])).tolist() == [
            int(np.nextafter(2.0**63, 0)), -int(np.nextafter(2.0**63, 0))
        ]

    def test_day_sums_are_exact_up_to_int64(self):
        g = grid(4)
        first = first_burn_raster(g, {(0, 0): 0, (0, 1): 0, (0, 2): 1})
        index = BuildingIndex(
            cells=np.array([0, 1, 2], dtype=np.int64),
            starts=np.array([0, 1, 2], dtype=np.int64),
            cents=np.array([2**62, 2**62 - 1, 2**62], dtype=np.int64),
        )
        cents, counts = building_loss_by_day(index, first, 2)
        assert cents.tolist() == [2**63 - 1, 2**62] and counts.tolist() == [2, 1]

        roads = RoadIndex(np.array([0, 1, 2]), np.ones(3), np.zeros(3, dtype=np.int64),
                          np.array([2**62, 2**62 - 1, 2**62]), ["residential"])
        burns = [np.array([True, True, False, False]), np.array([False, False, True, False])]
        assert [c for c, _ in road_loss_by_day(roads, burns, 2)] == [
            {"residential": 2**63 - 1}, {"residential": 2**62}
        ]

    def test_day_sum_beyond_int64_is_an_error(self):
        g = grid(4)
        index = BuildingIndex(
            cells=np.array([0, 1], dtype=np.int64),
            starts=np.array([0, 1], dtype=np.int64),
            cents=np.array([2**62, 2**62], dtype=np.int64),
        )
        with pytest.raises(ValidationError, match="sum beyond the int64 range of cents"):
            building_loss_by_day(index, first_burn_raster(g, {(0, 0): 0, (0, 1): 0}), 1)
        roads = RoadIndex(np.array([0, 1]), np.ones(2), np.zeros(2, dtype=np.int64),
                          np.array([2**62, 2**62]), ["residential"])
        with pytest.raises(ValidationError, match="sum beyond the int64 range of cents"):
            list(road_loss_by_day(roads, [np.ones(4, dtype=bool)], 1))
