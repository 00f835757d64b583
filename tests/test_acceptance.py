"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here, not in helper code.
"""

import datetime as dt
import filecmp
import math
import time

import numpy as np
import pytest

from fireimpact import cli
from fireimpact.dasymetric import (
    DEFAULT_NLCD_WEIGHTS,
    WeightTable,
    downscale,
    validate_mass,
)
from fireimpact.geometry import (
    Point,
    _corner_xy,
    ragged_cell_indices,
    trace_mask_rings,
)
from fireimpact.grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from fireimpact.impact import (
    BuildingIndex,
    CostModel,
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
)
from fireimpact.io_formats import read_report
from fireimpact.perimeters import (
    Detection,
    KdeParams,
    event_dates,
    extract_daily_perimeters,
    kde_surface,
)
from fireimpact.scenario import read_ground_truth

import layer_tables as tables
from layer_tables import (
    Block,
    Poi,
    PolyLine,
    Polygon,
    Road,
    line_cells,
    points_in_polygon,
    polygon_layer,
    rasterize_polygons,
)


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def cell_rect(g, r0, r1, c0, c1):
    x0, x1 = g.corner_x(c0), g.corner_x(c1 + 1)
    y0, y1 = g.corner_y(r1 + 1), g.corner_y(r0)
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


def test_criterion_1_mass_preservation_and_runtime():
    # 5,041 randomized blocks tiling a 2,000 x 2,000 grid; every non-fallback
    # block must preserve its population to 1e-9 relative, in under 10 s.
    rng = np.random.default_rng(42)
    n, tile = 2000, 28
    g = AnalysisGrid(0, 0, 20, n, n)
    landcover = CategoryRaster(g, rng.choice(list(DEFAULT_NLCD_WEIGHTS), size=(n, n)))
    blocks = []
    for i, r0 in enumerate(range(0, n - tile + 1, tile)):
        for j, c0 in enumerate(range(0, n - tile + 1, tile)):
            blocks.append(
                Block(
                    f"b{i}_{j}",
                    [cell_rect(g, r0, r0 + tile - 1, c0, c0 + tile - 1)],
                    float(rng.integers(0, 800)),
                    "t",
                )
            )
    assert len(blocks) >= 1000
    table = tables.blocks(blocks)
    t0 = time.perf_counter()
    pop, report = downscale(table, landcover, WeightTable.default(), g)
    mass = validate_mass(table, pop, report)
    elapsed = time.perf_counter() - t0
    worst = mass.max_rel_err()
    assert worst <= 1e-9, f"worst relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(1, f"{len(blocks)} blocks, max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_dasymetric_hand_oracle():
    # Pop 100 over three weight-46 cells and one weight-0 water cell:
    # 33.333... per developed cell, 0 for water, exact to 1e-12.
    g = AnalysisGrid(0, 0, 20, 1, 4)
    landcover = CategoryRaster(g, np.array([[24, 24, 24, 11]]))
    block = Block("b", [cell_rect(g, 0, 0, 0, 3)], 100.0, "t")
    pop, _ = downscale(tables.blocks([block]), landcover, WeightTable.default(), g)
    for c in range(3):
        assert pop.cells[0, c] == pytest.approx(100.0 / 3.0, abs=1e-12)
    assert pop.cells[0, 3] == 0.0
    ok(2, "4-cell weighted example exact to 1e-12")


def test_criterion_3_kde_oracle_and_mass():
    # Truncated engine vs untruncated double loop on 100x100, 50 points.
    rng = np.random.default_rng(7)
    g = AnalysisGrid(0, 0, 20, 100, 100)
    params = KdeParams()  # 750 m bandwidth, 4 sigma cutoff
    pts = [
        Detection(Point(rng.uniform(0, 2000), rng.uniform(0, 2000)), dt.date(2025, 1, 7))
        for _ in range(50)
    ]
    table = tables.detections(pts)
    engine = kde_surface(table, g, params).cells
    h = params.bandwidth_m
    norm = 1.0 / (2 * math.pi * h * h)
    oracle = np.zeros(g.shape)
    xs = [g.center_x(c) for c in range(100)]
    ys = [g.center_y(r) for r in range(100)]
    for r in range(100):
        for c in range(100):
            total = 0.0
            for p in pts:
                d2 = (p.location.x - xs[c]) ** 2 + (p.location.y - ys[r]) ** 2
                total += norm * math.exp(-d2 / (2 * h * h))
            oracle[r, c] = total
    rel = np.max(np.abs(engine - oracle) / oracle)
    assert rel < 1e-4, f"max relative deviation {rel}"

    # Mass on a grid padded by the cutoff radius: within 2% of the count.
    pad = params.cutoff_sigmas * h
    n_pad = int((2000 + 2 * pad) / 20)
    padded = AnalysisGrid(-pad, -pad, 20, n_pad, n_pad)
    mass = float(kde_surface(table, padded, params).cells.sum()) * padded.cell_area
    assert abs(mass - 50) / 50 < 0.02, f"mass {mass}"
    ok(3, f"engine vs brute force rel dev {rel:.2e}; mass {mass:.2f} vs 50")


def test_criterion_4_perimeter_bookkeeping():
    rng = np.random.default_rng(99)
    g = AnalysisGrid(0, 0, 20, 30, 30)
    official = [cell_rect(g, 3, 26, 3, 26)]
    for trial in range(10):
        detections = {}
        base = dt.date(2025, 1, 7)
        for day in range(5):
            pts = [
                Detection(
                    Point(rng.uniform(0, 600), rng.uniform(0, 600)),
                    base + dt.timedelta(days=day),
                )
                for _ in range(int(rng.integers(0, 12)))
            ]
            if pts:
                detections[base + dt.timedelta(days=day)] = pts
        if not detections:
            continue
        dates = event_dates(tables.detections(d for pts in detections.values() for d in pts))
        days = extract_daily_perimeters(
            {day: tables.detections(pts) for day, pts in detections.items()},
            rasterize_polygons(official, g), KdeParams(bandwidth_m=90), dates,
        )
        total_new = sum(p.new_burn.popcount() for p in days)
        assert total_new == days[-1].cumulative.popcount()
        for a, b in zip(days, days[1:]):
            assert not (a.cumulative.bits & ~b.cumulative.bits).any()
        for p in days:
            rows, cols = np.nonzero(p.new_burn.bits)
            xs, ys = g.center_xs()[cols], g.center_ys()[rows]
            inside = np.zeros(len(xs), dtype=bool)
            for poly in official:
                inside |= points_in_polygon(xs, ys, poly)
            assert inside.all()
    ok(4, "no double counting, monotone cumulation, clipped to perimeter")


def test_criterion_5_overlay_oracles():
    rng = np.random.default_rng(5)
    g = AnalysisGrid(0, 0, 20, 32, 32)
    costs = CostModel(
        land_cost={21: 1.25, 22: 2.0, 24: 30.0, 42: 0.5},
        road_cost={"residential": 50.0, "primary": 120.0},
        building_cost=3000.0,
    )
    for trial in range(10):
        codes = rng.choice([21, 22, 24, 42], size=(32, 32))
        landcover = CategoryRaster(g, codes)
        bits = rng.random((32, 32)) < 0.4

        # Land: per-cell enumeration in exact integer cents.
        got = next(land_use_loss_by_day([bits], 1, landcover, costs))
        want: dict[int, int] = {}
        for r in range(32):
            for c in range(32):
                if bits[r, c]:
                    code = int(codes[r, c])
                    want[code] = want.get(code, 0) + round(costs.land_cost[code] * 400 * 100)
        assert got == want

        # Roads: axis-aligned center-to-center lines with analytic lengths.
        row = int(rng.integers(0, 32))
        c0, c1 = sorted(rng.integers(0, 32, size=2))
        if c0 == c1:
            continue
        road = Road(
            PolyLine([Point(g.center_x(c0), g.center_y(row)),
                      Point(g.center_x(c1), g.center_y(row))]),
            "residential",
        )
        index = RoadIndex.build(tables.roads([road]), g, costs)
        got_cents, got_m = next(road_loss_by_day(index, [bits], 1))
        want_m = 0.0
        want_cents = 0
        for c in range(c0, c1 + 1):
            if not bits[row, c]:
                continue
            length = 10.0 if c in (c0, c1) else 20.0
            want_m += length
            want_cents += round(length * 50.0 * 100)
        assert got_cents.get("residential", 0) == want_cents
        assert abs(got_m.get("residential", 0.0) - want_m) <= 1e-9 * max(want_m, 1.0)

        # Buildings: 6 m squares at cell centers; first-day attribution.
        cells = [(int(rng.integers(0, 32)), int(rng.integers(0, 32))) for _ in range(30)]
        buildings = []
        for r, c in cells:
            x, y = g.center_x(c), g.center_y(r)
            buildings.append(
                [Polygon([Point(x - 3, y - 3), Point(x + 3, y - 3),
                          Point(x + 3, y + 3), Point(x - 3, y + 3)])]
            )
        before_bits = rng.random((32, 32)) < 0.2
        before = Mask(g, before_bits & ~bits)
        # Cells burned before are day 0, today's burn day 1.
        first = np.where(before.bits, 0, np.where(bits, 1, -1))
        index = BuildingIndex.build(polygon_layer(buildings), g, costs)
        cents, counts = building_loss_by_day(index, first, 2)
        got_b_cents, got_b_count = int(cents[1]), int(counts[1])
        want_b_count = sum(
            1 for (r, c) in cells if bits[r, c] and not before.bits[r, c]
        )
        assert got_b_count == want_b_count
        assert got_b_cents == want_b_count * round(36.0 * 3000.0 * 100)

        # POIs and population by direct per-feature / per-cell loops.
        pois = [
            Poi(Point(g.center_x(c), g.center_y(r)), "Retail")
            for (r, c) in cells[:10]
        ]
        [got_poi] = poi_exposure_by_day(PoiIndex.build(tables.pois(pois), g), [bits], 1)
        want_poi = sum(1 for (r, c) in cells[:10] if bits[r, c])
        assert got_poi.get("Retail", 0) == want_poi

        popgrid = RealRaster(g, rng.uniform(0, 4, size=(32, 32)))
        [got_pop] = population_exposure_by_day(popgrid, [bits], 1)
        want_pop = 0.0
        for r in range(32):
            for c in range(32):
                if bits[r, c]:
                    want_pop += popgrid.cells[r, c]
        assert got_pop == pytest.approx(want_pop, rel=1e-12)
    ok(5, "land/road/building/POI/population match enumeration oracles")


def test_criterion_6_geometry_round_trip_and_length():
    rng = np.random.default_rng(6)
    for trial in range(500):
        n = int(rng.integers(1, 65))
        g = AnalysisGrid(0, 0, 20, n, n)
        bits = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        rings = trace_mask_rings(Mask(g, bits))
        cells, _ = ragged_cell_indices(
            *_corner_xy(g, rings.corners), rings.ring_offsets, rings.polygon_offsets,
            np.arange(len(rings.polygon_offsets)), g,
        )
        assert np.array_equal(np.unique(cells), np.flatnonzero(bits)), f"trial {trial}"

    worst = 0.0
    for trial in range(200):
        g = AnalysisGrid(0, 0, 20, 16, 16)
        k = int(rng.integers(2, 7))
        pts = []
        for _ in range(k):
            p = Point(rng.uniform(2, 318), rng.uniform(2, 318))
            if not pts or p != pts[-1]:
                pts.append(p)
        if len(pts) < 2:
            continue
        line = PolyLine(pts)
        total = sum(line_cells(line, g).values())
        rel = abs(total - line.length()) / line.length()
        worst = max(worst, rel)
    assert worst <= 1e-9
    ok(6, f"500 mask round trips exact; worst length error {worst:.2e}")


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    scen = root / "scen"
    assert cli.main(["synth", "--seed", "7", "--out", str(scen)]) == 0
    truth = read_ground_truth(scen / "ground_truth.csv")
    kde_flags = [
        "--bandwidth-m", truth.meta["bandwidth_m"],
        "--threshold", truth.meta["threshold_value"],
        "--threshold-mode", truth.meta["threshold_mode"],
    ]
    out1 = root / "run1"
    out2 = root / "run2"
    for out in (out1, out2):
        assert cli.main(
            ["assess", "--manifest", str(scen / "manifest.json"),
             "--out", str(out), *kde_flags]
        ) == 0
    return scen, truth, out1, out2


def test_criterion_7_end_to_end_golden(golden, capsys):
    scen, truth, out1, out2 = golden
    report = {(r["date"], r["district"]): r for r in read_report(out1 / "report.csv")}
    assert len(report) == len(truth.rows)
    for row in truth.rows:
        rec = report[(row["date"], row["district"])]
        for col in ("new_burn_cells", "land_loss_usd", "road_loss_usd",
                    "building_loss_usd", "building_count", "poi_count"):
            assert rec[col] == row[col], (row["date"], row["district"], col)
        assert float(rec["exposed_population"]) == float(row["exposed_population"])

    assert filecmp.cmp(out1 / "report.csv", out2 / "report.csv", shallow=False)

    # The report subcommand must identify the scripted peak days:
    # district-a on day 1, district-b on day 5.
    assert cli.main(["report", "--report", str(out1 / "report.csv")]) == 0
    stdout = capsys.readouterr().out
    section = None
    peaks = {}
    for line in stdout.splitlines():
        if line.startswith("district "):
            section = line.split()[1].rstrip(":")
        elif section and line.strip().startswith("new_burn_cells:"):
            peaks[section] = line.split("peak ")[1].split()[0]
    assert peaks["district-a"] == "2025-01-07"
    assert peaks["district-b"] == "2025-01-11"
    ok(7, "ground truth reproduced exactly; byte-identical; peaks identified")


def test_criterion_8_demographic_consistency():
    tract = TractDemographics(
        "t1",
        gender={"female": 0.523, "male": 0.477},
        age={"age_0_17": 0.2, "age_18_64": 0.543, "age_65_plus": 0.257},
        race={"white": 0.46, "asian": 0.158, "black": 0.05,
              "multiracial": 0.13, "other": 0.202},
    )
    demo = next(demographic_breakdown_by_day(
        np.zeros(1, dtype=np.int64), ["b"], np.array([1000.0]), 1, {"b": "t1"}, {"t1": tract}
    ))
    assert round(demo.gender["female"]) == 523

    rng = np.random.default_rng(88)
    tracts = {}
    for i in range(6):
        f = float(rng.uniform(0.4, 0.6))
        age = rng.dirichlet([2, 5, 2])
        race = rng.dirichlet([4, 2, 1, 1, 1])
        tracts[f"t{i}"] = TractDemographics(
            f"t{i}",
            gender={"female": f, "male": 1 - f},
            age={"age_0_17": float(age[0]), "age_18_64": float(age[1]),
                 "age_65_plus": float(age[2])},
            race={"white": float(race[0]), "asian": float(race[1]),
                  "black": float(race[2]), "multiracial": float(race[3]),
                  "other": float(race[4])},
        )
    exposure = {f"b{j}": float(rng.uniform(0, 900)) for j in range(30)}
    block_tracts = {b: f"t{j % 6}" for j, b in enumerate(exposure)}
    demo = next(demographic_breakdown_by_day(
        np.zeros(len(exposure), dtype=np.int64), list(exposure),
        np.array(list(exposure.values())), 1, block_tracts, tracts,
    ))
    total = sum(exposure.values())
    for group in (demo.gender, demo.age, demo.race):
        assert abs(sum(group.values()) - total) <= 1e-6 * total
    ok(8, "groups sum to exposure within 1e-6; 52.3% of 1,000 gives 523")


def test_criterion_9_composition_percentages(golden):
    scen, truth, out1, _ = golden
    records = cli._records_from_rows(read_report(out1 / "report.csv"))
    summary = summarize(records)
    checked = 0
    for d in summary.districts:
        for pct in (d.land_pct_by_class, d.road_pct_by_class, d.poi_pct_by_category):
            if not pct:
                continue
            assert abs(sum(pct.values()) - 100.0) <= 0.01
            checked += 1
    assert checked >= 4
    ok(9, f"{checked} composition tables each sum to 100 +/- 0.01")
