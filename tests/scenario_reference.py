"""The per-vertex scenario generator, kept verbatim as a reference.

It unprojects every vertex on its own and writes each GeoJSON layer with
one ``json.dumps`` of a tree of feature dicts; ``scenario.generate`` must
write the same bytes from the same spec.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

from fireimpact.dasymetric import WeightTable
from fireimpact.errors import FormatError
from fireimpact.geometry import Point, unproject_to_lonlat
from fireimpact.grid import AnalysisGrid, CategoryRaster
from fireimpact.impact import (
    AGE_KEYS,
    GENDER_KEYS,
    RACE_KEYS,
    CostModel,
    TractDemographics,
    cents_to_usd,
    to_cents,
)
from fireimpact.io_formats import (
    FileManifest,
    write_ascii_grid,
    write_costs,
    write_demographics,
    write_manifest,
    write_weights,
)
from fireimpact.scenario import (
    BLOCK_SIDE,
    POI_CATEGORIES,
    RNG_NAME,
    ROAD_CLASSES,
    GroundTruth,
    ScenarioSpec,
    _band_widths,
    write_ground_truth,
)


def write_feature_collection(features: list[dict], path: str | Path) -> None:
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _feature(geometry_type: str, coordinates: list, **properties) -> dict:
    """One GeoJSON feature."""
    return {
        "type": "Feature",
        "geometry": {"type": geometry_type, "coordinates": coordinates},
        "properties": properties,
    }


def reference_generate(spec: ScenarioSpec, out_dir: str | Path) -> tuple[FileManifest, GroundTruth]:
    """Write a complete input tree plus ground_truth.csv; returns both.

    The same seed always produces a byte-identical tree.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot create output directory {out}: {exc}") from exc
    rng = np.random.default_rng(spec.seed)
    grid = AnalysisGrid(0.0, 0.0, spec.cell_size, spec.n_rows, spec.n_cols)
    lon0, lat0 = spec.origin_lon, spec.origin_lat

    def cell_center_lonlat(r: int, c: int) -> tuple[float, float]:
        return unproject_to_lonlat(Point(grid.center_x(c), grid.center_y(r)), lon0, lat0)

    corner_xs, corner_ys = grid.corner_xs().tolist(), grid.corner_ys().tolist()

    def corner_lonlat(i: int, j: int) -> list[float]:
        return list(unproject_to_lonlat(Point(corner_xs[j], corner_ys[i]), lon0, lat0))

    def cell_rect_coords(r0: int, r1: int, c0: int, c1: int) -> list[list[list[float]]]:
        # Polygon coordinates: one closed lon/lat ring around rows r0..r1, cols c0..c1.
        corners = [(r1 + 1, c0), (r1 + 1, c1 + 1), (r0, c1 + 1), (r0, c0), (r1 + 1, c0)]
        return [[corner_lonlat(i, j) for i, j in corners]]

    landcover_cells = np.full((spec.n_rows, spec.n_cols), 42, dtype=np.int32)
    costs = CostModel.demo()
    mix_codes = sorted(spec.class_mix)
    mix_probs = np.array([spec.class_mix[c] for c in mix_codes])
    mix_probs = mix_probs / mix_probs.sum()

    features: dict[str, list[dict]] = {
        role: [] for role in ("blocks", "roads", "buildings", "pois", "official_perimeter")
    }
    detection_rows: list[tuple] = []
    demos: dict[str, TractDemographics] = {}
    truth_rows: list[dict[str, str]] = []
    dates = [spec.start_date + dt.timedelta(days=i) for i in range(spec.n_days)]

    for dspec in spec.districts:
        features["official_perimeter"].append(_feature(
            "Polygon", cell_rect_coords(dspec.row0, dspec.row1, dspec.col0, dspec.col1),
            name=dspec.name,
        ))

        # Blocks: BLOCK_SIDE x BLOCK_SIDE tiles, one land-cover class each,
        # two tracts split down the middle, integer pops summing exactly.
        tile_rows = range(dspec.row0, dspec.row1 + 1, BLOCK_SIDE)
        tile_cols = range(dspec.col0, dspec.col1 + 1, BLOCK_SIDE)
        tiles = [(r, c) for r in tile_rows for c in tile_cols]
        pops = rng.multinomial(dspec.population, [1 / len(tiles)] * len(tiles))
        classes = rng.choice(mix_codes, size=len(tiles), p=mix_probs)
        mid_col = dspec.col0 + dspec.n_cols() // 2
        pop_per_cell = np.zeros((spec.n_rows, spec.n_cols))
        for (r, c), pop, code in zip(tiles, pops, classes):
            landcover_cells[r : r + BLOCK_SIDE, c : c + BLOCK_SIDE] = code
            features["blocks"].append(_feature(
                "Polygon", cell_rect_coords(r, r + BLOCK_SIDE - 1, c, c + BLOCK_SIDE - 1),
                block_id=f"{dspec.name}-blk-{r}-{c}",
                pop=int(pop),
                tract_id=f"{dspec.name}-t{0 if c < mid_col else 1}",
            ))
            # pop / 16 is exact in floats; fallback-uniform (zero-weight
            # classes) lands on the same per-cell value.
            pop_per_cell[r : r + BLOCK_SIDE, c : c + BLOCK_SIDE] = pop / (
                BLOCK_SIDE * BLOCK_SIDE
            )

        for tract_id in (f"{dspec.name}-t0", f"{dspec.name}-t1"):
            female = round(float(rng.uniform(0.45, 0.58)), 3)
            age_raw = rng.uniform(1, 5, size=len(AGE_KEYS))
            race_raw = rng.uniform(1, 5, size=len(RACE_KEYS))
            demos[tract_id] = TractDemographics(
                tract_id,
                gender=dict(zip(GENDER_KEYS, (female, 1.0 - female))),
                age=dict(zip(AGE_KEYS, (age_raw / age_raw.sum()).tolist())),
                race=dict(zip(RACE_KEYS, (race_raw / race_raw.sum()).tolist())),
            )

        # Scripted burn: contiguous column bands, one per day, widest on
        # the peak day; every cell burns exactly once.
        band_cols: list[range] = []
        col = dspec.col0 + 1
        for w in _band_widths(spec.n_days, dspec.peak_day):
            band_cols.append(range(col, col + w))
            col += w
        burn_rows = range(dspec.row0 + 1, dspec.row1)
        burn_cells_by_day = [
            [(r, c) for r in burn_rows for c in cols] for cols in band_cols
        ]

        # Roads: one horizontal line per class with endpoints at cell
        # centers, crossing every band.
        road_span = (dspec.col0 + 1, col - 1)
        road_rows = {}
        for k, rclass in enumerate(ROAD_CLASSES):
            rr = dspec.row0 + 4 + 9 * k
            road_rows[rclass] = rr
            coords = [cell_center_lonlat(rr, c) for c in road_span]
            features["roads"].append(_feature("LineString", coords, **{"class": rclass}))

        # Buildings and POIs: subsets of burn cells, plus never-burned
        # controls east of the burn region.
        building_cells: list[tuple[int, int]] = []
        poi_cells: list[tuple[tuple[int, int], str]] = []
        control_cols = range(col + 2, min(col + 6, dspec.col1))
        control_rows = range(dspec.row0 + 2, dspec.row0 + 8)
        control_cells = [(r, c) for r in control_rows for c in control_cols]
        for cells, p_building in (
            ([cell for day_cells in burn_cells_by_day for cell in day_cells], 0.25),
            (control_cells, 0.3),
        ):
            for cell in cells:
                if rng.random() < p_building:
                    building_cells.append(cell)
                if rng.random() < 0.2:
                    poi_cells.append((cell, POI_CATEGORIES[int(rng.integers(len(POI_CATEGORIES)))]))
        for b_index, (r, c) in enumerate(building_cells):
            ring = _square_ring_lonlat(grid, r, c, 8.0, lon0, lat0)
            features["buildings"].append(
                _feature("Polygon", [ring], id=f"{dspec.name}-b{b_index:04d}")
            )
        for (r, c), cat in poi_cells:
            features["pois"].append(_feature("Point", cell_center_lonlat(r, c), category=cat))

        # Detections: one per scripted cell per day, plus daily decoys
        # outside every district perimeter.
        for date, day_cells in zip(dates, burn_cells_by_day):
            for r, c in day_cells:
                lon, lat = cell_center_lonlat(r, c)
                frp = round(float(rng.uniform(5, 320)), 1)
                conf = ("l", "n", "h")[int(rng.integers(3))]
                detection_rows.append((lat, lon, date.isoformat(), frp, conf))

        # Ground truth by direct enumeration of the scripted cells. Every
        # cell burns exactly once, so a feature's burn day is its cell's
        # band day; control features never appear.
        land_cents_per_cell = {
            code: to_cents(costs.land_cost[code] * grid.cell_area)
            for code in mix_codes + [42]
        }
        cell_day = {
            cell: i for i, cells in enumerate(burn_cells_by_day) for cell in cells
        }
        building_cents = to_cents(64.0 * costs.building_cost)
        for day_index, day_cells in enumerate(burn_cells_by_day):
            exposed = sum(pop_per_cell[r, c] for r, c in day_cells)
            land_cents = sum(
                land_cents_per_cell[int(landcover_cells[r, c])] for r, c in day_cells
            )
            road_cents = 0
            for rclass, rr in road_rows.items():
                if rr not in burn_rows:
                    continue
                rate = costs.road_cost[rclass]
                for c in band_cols[day_index]:
                    length = 10.0 if c in road_span else 20.0
                    road_cents += to_cents(length * rate)
            b_count = sum(1 for cell in building_cells if cell_day.get(cell) == day_index)
            poi_n = sum(1 for (cell, _) in poi_cells if cell_day.get(cell) == day_index)
            truth_rows.append(
                {
                    "date": dates[day_index].isoformat(),
                    "district": dspec.name,
                    "new_burn_cells": str(len(day_cells)),
                    "exposed_population": repr(float(exposed)),
                    "land_loss_usd": cents_to_usd(land_cents),
                    "road_loss_usd": cents_to_usd(road_cents),
                    "building_loss_usd": cents_to_usd(b_count * building_cents),
                    "building_count": str(b_count),
                    "poi_count": str(poi_n),
                }
            )

    # Daily decoy detections well outside every district perimeter.
    decoy_cells = [(1, spec.n_cols - 2), (2, spec.n_cols - 3)]
    for date in dates:
        for r, c in decoy_cells:
            lon, lat = cell_center_lonlat(r, c)
            detection_rows.append((lat, lon, date.isoformat(), 12.0, "l"))

    # Write everything: one file per manifest role.
    file_names = {
        "detections": "detections.csv",
        "landcover": "landcover.asc",
        "blocks": "blocks.geojson",
        "roads": "roads.geojson",
        "buildings": "buildings.geojson",
        "pois": "pois.geojson",
        "official_perimeter": "perimeter.geojson",
        "weights": "weights.json",
        "costs": "costs.json",
        "demographics": "demographics.csv",
    }
    paths = {role: out / name for role, name in file_names.items()}
    write_ascii_grid(CategoryRaster(grid, landcover_cells), paths["landcover"])
    with paths["detections"].open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["latitude", "longitude", "acq_date", "frp", "confidence"])
        for lat, lon, date, frp, conf in detection_rows:
            writer.writerow([repr(lat), repr(lon), date, frp, conf])
    for role, layer in features.items():
        write_feature_collection(layer, paths[role])
    write_weights(WeightTable.default(), paths["weights"])
    write_costs(costs, paths["costs"])
    write_demographics(demos, paths["demographics"])

    manifest = FileManifest(
        origin_lon=lon0,
        origin_lat=lat0,
        grid=grid,
        paths=paths,
        start_date=dates[0],
        end_date=dates[-1],
    )
    write_manifest(manifest, out / "manifest.json")

    meta = {
        "generator": "fireimpact-synth",
        "seed": str(spec.seed),
        "rng": RNG_NAME,
        "bandwidth_m": repr(spec.kde.bandwidth_m),
        "cutoff_sigmas": repr(spec.kde.cutoff_sigmas),
        "threshold_mode": spec.kde.threshold_mode,
        "threshold_value": repr(spec.kde.threshold_value),
    }
    truth_rows.sort(key=lambda row: (row["date"], row["district"]))
    truth = GroundTruth(meta=meta, rows=truth_rows)
    write_ground_truth(truth, out / "ground_truth.csv")
    return manifest, truth


def _square_ring_lonlat(
    grid: AnalysisGrid, r: int, c: int, side: float, lon0: float, lat0: float
) -> list[list[float]]:
    cx, cy = grid.center_x(c), grid.center_y(r)
    h = side / 2.0
    corners = [
        Point(cx - h, cy - h),
        Point(cx + h, cy - h),
        Point(cx + h, cy + h),
        Point(cx - h, cy + h),
        Point(cx - h, cy - h),
    ]
    return [list(unproject_to_lonlat(p, lon0, lat0)) for p in corners]

