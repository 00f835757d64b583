"""Seeded synthetic two-district scenarios with exact known ground truth.

The generator scripts which cells burn on which day, drops one detection
at the center of each scripted cell, and sizes the KDE bandwidth (4 m,
well under the 20 m cell) so thresholding recovers exactly the scripted
cells. Because every block is uniform in land cover and 4x4 cells, each
cell's population is the block total divided by 16, a value that is
exact in binary floating point; the ground-truth file therefore matches
the pipeline's output bit for bit, not just approximately.

Generation does no Python work per vertex: every coordinate lies on a
grid line (a corner or cell-center line, or a building edge 4 m either
side of a center), so each line's longitude or latitude is unprojected
and formatted once, and rings, points and detection rows are joined from
those strings with array operations. Each layer is written as one text in
the readers' compact layout, the bytes ``json.dumps(sort_keys=True,
separators=(",", ":"))`` and ``csv.writer`` give. Only the random draws
run one cell at a time, each call in its fixed order.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dasymetric import WeightTable
from .errors import FormatError, ValidationError
from .grid import AnalysisGrid, CategoryRaster
from .impact import (
    AGE_KEYS,
    GENDER_KEYS,
    RACE_KEYS,
    CostModel,
    TractDemographics,
    cents_to_usd,
    to_cents,
)
from .io_formats import (
    FileManifest,
    compact_json,
    lonlat_texts,
    write_ascii_grid,
    write_costs,
    write_demographics,
    write_manifest,
    write_weights,
)
from .perimeters import KdeParams

RNG_NAME = "numpy-PCG64"

POI_CATEGORIES = (
    "Business and Professional Services",
    "Community and Government",
    "Dining and Drinking",
    "Health and Medicine",
    "Retail",
)

ROAD_CLASSES = ("residential", "primary", "service", "track", "pedestrian")

BLOCK_SIDE = 4  # cells per block edge; 16 cells keeps per-cell shares dyadic

GROUND_TRUTH_COLUMNS = (
    "date",
    "district",
    "new_burn_cells",
    "exposed_population",
    "land_loss_usd",
    "road_loss_usd",
    "building_loss_usd",
    "building_count",
    "poi_count",
)


@dataclass(frozen=True)
class DistrictSpec:
    """One district: cell-coordinate extent, scripted peak day, population."""

    name: str
    row0: int
    row1: int  # inclusive
    col0: int
    col1: int  # inclusive
    peak_day: int  # 1-based day on which the burn front is widest
    population: int

    def n_rows(self) -> int:
        return self.row1 - self.row0 + 1

    def n_cols(self) -> int:
        return self.col1 - self.col0 + 1


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    n_days: int = 6
    start_date: dt.date = dt.date(2025, 1, 7)
    n_rows: int = 56
    n_cols: int = 120
    cell_size: float = 20.0
    origin_lon: float = -118.25
    origin_lat: float = 34.05
    districts: list[DistrictSpec] = field(default_factory=list)
    # Land-cover class proportions for block assignment.
    class_mix: dict[int, float] = field(
        default_factory=lambda: {24: 0.3, 23: 0.2, 22: 0.2, 21: 0.15, 42: 0.1, 11: 0.05}
    )

    def __post_init__(self) -> None:
        if not self.districts:
            object.__setattr__(
                self,
                "districts",
                [
                    DistrictSpec("district-a", 4, 51, 4, 51, 1, 24000),
                    DistrictSpec("district-b", 4, 51, 64, 111, 5, 18000),
                ],
            )
        total = sum(self.class_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"class mix proportions sum to {total}, not 1")
        for d in self.districts:
            if not (1 <= d.peak_day <= self.n_days):
                raise ValidationError(
                    f"district {d.name}: peak_day {d.peak_day} outside 1..{self.n_days}"
                )
            if d.n_rows() % BLOCK_SIDE or d.n_cols() % BLOCK_SIDE:
                raise ValidationError(
                    f"district {d.name}: extent must be a multiple of {BLOCK_SIDE} cells"
                )
            need_cols = sum(_band_widths(self.n_days, d.peak_day)) + 2
            if d.n_cols() < need_cols or d.n_rows() < 3:
                raise ValidationError(
                    f"district {d.name}: extent too small for {self.n_days} "
                    f"burn bands (needs >= {need_cols} cols and >= 3 rows)"
                )
            if not (0 <= d.row0 <= d.row1 < self.n_rows):
                raise ValidationError(f"district {d.name}: rows outside the grid")
            if not (0 <= d.col0 <= d.col1 < self.n_cols):
                raise ValidationError(f"district {d.name}: cols outside the grid")
        # Each district's ground truth counts its own cells and features once.
        for i, d in enumerate(self.districts):
            for other in self.districts[:i]:
                if d.name == other.name:
                    raise ValidationError(f"districts {other.name} and {d.name}: duplicate name")
                if (d.row0 <= other.row1 and other.row0 <= d.row1
                        and d.col0 <= other.col1 and other.col0 <= d.col1):
                    raise ValidationError(f"districts {other.name} and {d.name} overlap")

    @property
    def kde(self) -> KdeParams:
        """Parameters under which thresholding recovers the scripted cells."""
        return KdeParams(bandwidth_m=4.0)


@dataclass(frozen=True)
class GroundTruth:
    meta: dict[str, str]
    rows: list[dict[str, str]]


def _band_widths(n_days: int, peak_day: int) -> list[int]:
    """Daily burn-front widths in columns: 2 everywhere, 6 on the peak day."""
    widths = [2] * n_days
    widths[peak_day - 1] = 6
    return widths


def _box(west: np.ndarray, south: np.ndarray, east: np.ndarray, north: np.ndarray) -> np.ndarray:
    """Polygon coordinates text of each lon/lat box, from its south-west corner."""
    sw = "[" + west + "," + south + "]"
    return (
        "[[" + sw + ",[" + east + "," + south + "],[" + east + "," + north
        + "],[" + west + "," + north + "]," + sw + "]]"
    )


def _features(
    geometry_type: str, coordinates: np.ndarray, properties: np.ndarray | str
) -> list[str]:
    """Feature texts in :func:`compact_json` layout from coordinate and property texts."""
    return (
        '{"geometry":{"coordinates":' + coordinates + ',"type":"' + geometry_type
        + '"},"properties":' + properties + ',"type":"Feature"}'
    ).tolist()


def generate(spec: ScenarioSpec, out_dir: str | Path) -> tuple[FileManifest, GroundTruth]:
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

    # Every vertex lies on a corner line, a cell-center line, or a line 4 m
    # either side of a center (the 8 m building squares), so each line is
    # unprojected and formatted once. Roads and control cells may lie
    # south of the grid: the center rows run on to the last road row.
    road_offsets = 4 + 9 * np.arange(len(ROAD_CLASSES))
    last_row = max(d.row0 for d in spec.districts) + int(road_offsets[-1])
    corner_lon, corner_lat = lonlat_texts(grid.corner_xs(), grid.corner_ys(), lon0, lat0)
    center_xs = np.array([grid.center_x(c) for c in range(spec.n_cols)])
    center_ys = np.array([grid.center_y(r) for r in range(max(spec.n_rows, last_row + 1))])
    center_lon, center_lat = lonlat_texts(center_xs, center_ys, lon0, lat0)
    west, south = lonlat_texts(center_xs - 4.0, center_ys - 4.0, lon0, lat0)
    east, north = lonlat_texts(center_xs + 4.0, center_ys + 4.0, lon0, lat0)

    landcover_cells = np.full((spec.n_rows, spec.n_cols), 42, dtype=np.int32)
    costs = CostModel.demo()
    mix_codes = sorted(spec.class_mix)
    mix_probs = np.array([spec.class_mix[c] for c in mix_codes])
    mix_probs = mix_probs / mix_probs.sum()
    land_cents = to_cents(np.array([costs.land_cost[c] for c in mix_codes]) * grid.cell_area)
    road_rates = np.array([costs.road_cost[c] for c in ROAD_CLASSES])
    building_cents = to_cents(64.0 * costs.building_cost)
    road_properties = np.array(
        [compact_json({"class": c}) for c in ROAD_CLASSES], dtype=object
    )
    poi_properties = np.array(
        [compact_json({"category": c}) for c in POI_CATEGORIES], dtype=object
    )

    layers: dict[str, list[str]] = {
        role: [] for role in ("blocks", "roads", "buildings", "pois", "official_perimeter")
    }
    detection_lines = ["latitude,longitude,acq_date,frp,confidence"]
    demos: dict[str, TractDemographics] = {}
    truth_rows: list[dict[str, str]] = []
    dates = [spec.start_date + dt.timedelta(days=i) for i in range(spec.n_days)]
    date_texts = np.array([d.isoformat() for d in dates], dtype=object)

    for dspec in spec.districts:
        row0, row1, col0, col1 = dspec.row0, dspec.row1, dspec.col0, dspec.col1
        # The name as it appears inside a JSON string.
        name = compact_json(dspec.name)[1:-1]
        layers["official_perimeter"] += _features(
            "Polygon",
            _box(corner_lon[[col0]], corner_lat[[row1 + 1]], corner_lon[[col1 + 1]],
                 corner_lat[[row0]]),
            compact_json({"name": dspec.name}),
        )

        # Blocks: BLOCK_SIDE x BLOCK_SIDE tiles, one land-cover class each,
        # two tracts split down the middle, integer pops summing exactly.
        tile_rows = np.arange(row0, row1 + 1, BLOCK_SIDE)
        tile_cols = np.arange(col0, col1 + 1, BLOCK_SIDE)
        n_tiles = len(tile_rows) * len(tile_cols)
        pops = rng.multinomial(dspec.population, [1 / n_tiles] * n_tiles)
        classes = rng.choice(mix_codes, size=n_tiles, p=mix_probs)
        tile_r = np.repeat(tile_rows, len(tile_cols))
        tile_c = np.tile(tile_cols, len(tile_rows))
        tract = np.where(tile_c < col0 + dspec.n_cols() // 2, "0", "1").astype(object)
        layers["blocks"] += _features(
            "Polygon",
            _box(corner_lon[tile_c], corner_lat[tile_r + BLOCK_SIDE],
                 corner_lon[tile_c + BLOCK_SIDE], corner_lat[tile_r]),
            '{"block_id":"' + name + "-blk-" + tile_r.astype(str).astype(object) + "-"
            + tile_c.astype(str).astype(object) + '","pop":' + pops.astype(str).astype(object)
            + ',"tract_id":"' + name + "-t" + tract + '"}',
        )
        # Each district cell's tile, row-major over the district.
        cell_tile = (
            (np.arange(dspec.n_rows()) // BLOCK_SIDE)[:, None] * len(tile_cols)
            + (np.arange(dspec.n_cols()) // BLOCK_SIDE)
        )
        landcover_cells[row0 : row1 + 1, col0 : col1 + 1] = classes[cell_tile]
        # pop / 16 is exact in floats; fallback-uniform (zero-weight
        # classes) lands on the same per-cell value.
        cell_pop = (pops / (BLOCK_SIDE * BLOCK_SIDE))[cell_tile]
        cell_land_cents = land_cents[np.searchsorted(mix_codes, classes)][cell_tile]

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
        # the peak day, over the district's inner rows; every cell burns
        # exactly once. Burn cells run day by day, row-major within a day.
        widths = np.array(_band_widths(spec.n_days, dspec.peak_day))
        day_of_col = np.repeat(np.arange(spec.n_days), widths)
        order = np.argsort(np.tile(day_of_col, dspec.n_rows() - 2), kind="stable")
        burn_r = row0 + 1 + order // len(day_of_col)
        burn_c = col0 + 1 + order % len(day_of_col)
        burn_day = day_of_col[burn_c - col0 - 1]
        last_col = col0 + int(widths.sum())

        # Roads: one horizontal line per class with endpoints at the centers
        # of the first and last burn columns, crossing every band.
        road_rows = row0 + road_offsets
        layers["roads"] += _features(
            "LineString",
            "[[" + center_lon[col0 + 1] + "," + center_lat[road_rows] + "],["
            + center_lon[last_col] + "," + center_lat[road_rows] + "]]",
            road_properties,
        )

        # Buildings and POIs: subsets of burn cells, plus never-burned
        # controls east of the burn region.
        control_r, control_c = (a.ravel() for a in np.meshgrid(
            np.arange(row0 + 2, row0 + 8), np.arange(last_col + 3, min(last_col + 7, col1)),
            indexing="ij",
        ))
        is_building = []
        poi_category = []  # -1: no POI
        for p_building, n_cells in ((0.25, len(burn_r)), (0.3, len(control_r))):
            for _ in range(n_cells):
                is_building.append(rng.random() < p_building)
                poi_category.append(
                    int(rng.integers(len(POI_CATEGORIES))) if rng.random() < 0.2 else -1
                )
        is_building = np.array(is_building, dtype=bool)
        poi_category = np.array(poi_category, dtype=np.int64)
        cells_r = np.concatenate([burn_r, control_r])
        cells_c = np.concatenate([burn_c, control_c])
        r, c = cells_r[is_building], cells_c[is_building]
        layers["buildings"] += _features(
            "Polygon",
            _box(west[c], south[r], east[c], north[r]),
            np.array([f'{{"id":"{name}-b{i:04d}"}}' for i in range(len(r))], dtype=object),
        )
        has_poi = poi_category >= 0
        layers["pois"] += _features(
            "Point",
            "[" + center_lon[cells_c[has_poi]] + "," + center_lat[cells_r[has_poi]] + "]",
            poi_properties[poi_category[has_poi]],
        )

        # Detections: one per scripted cell per day.
        frps: list[str] = []
        confidences: list[str] = []
        for _ in range(len(burn_r)):
            frps.append(repr(round(float(rng.uniform(5, 320)), 1)))
            confidences.append(("l", "n", "h")[int(rng.integers(3))])
        detection_lines += (
            center_lat[burn_r] + "," + center_lon[burn_c] + ","
            + date_texts[burn_day] + ","
            + np.array(frps, dtype=object) + "," + np.array(confidences, dtype=object)
        ).tolist()

        # Ground truth by direct enumeration of the scripted cells. Every
        # cell burns exactly once, so a feature's burn day is its cell's
        # band day; control features never appear. Per-cell populations are
        # sixteenths of integers, so below 2**49 people their sums are exact
        # in any order.
        burn = np.s_[1:-1, 1 : 1 + int(widths.sum())]
        offsets = np.cumsum(widths) - widths
        exposed = np.add.reduceat(cell_pop[burn].sum(axis=0), offsets)
        land = np.add.reduceat(cell_land_cents[burn].sum(axis=0), offsets)
        # A road in a burn row loses 20 m per burned cell, 10 m in the
        # cells of its two endpoints (in the first and the last band).
        burning = (road_rows > row0) & (road_rows < row1)
        ends = np.bincount([0, spec.n_days - 1], minlength=spec.n_days)
        road = (
            ends * int(to_cents(10.0 * road_rates[burning]).sum())
            + (widths - ends) * int(to_cents(20.0 * road_rates[burning]).sum())
        )
        n_burn = len(burn_r)
        b_count = np.bincount(burn_day[is_building[:n_burn]], minlength=spec.n_days)
        poi_n = np.bincount(burn_day[has_poi[:n_burn]], minlength=spec.n_days)
        for day_index in range(spec.n_days):
            truth_rows.append(
                {
                    "date": date_texts[day_index],
                    "district": dspec.name,
                    "new_burn_cells": str(int(widths[day_index]) * (dspec.n_rows() - 2)),
                    "exposed_population": repr(float(exposed[day_index])),
                    "land_loss_usd": cents_to_usd(int(land[day_index])),
                    "road_loss_usd": cents_to_usd(int(road[day_index])),
                    "building_loss_usd": cents_to_usd(int(b_count[day_index]) * building_cents),
                    "building_count": str(int(b_count[day_index])),
                    "poi_count": str(int(poi_n[day_index])),
                }
            )

    # Daily decoy detections well outside every district perimeter.
    for date in date_texts:
        for r, c in ((1, spec.n_cols - 2), (2, spec.n_cols - 3)):
            detection_lines.append(f"{center_lat[r]},{center_lon[c]},{date},12.0,l")

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
    paths["detections"].write_text("\n".join(detection_lines) + "\n", newline="")
    for role, features in layers.items():
        paths[role].write_text(
            '{"features":[' + ",".join(features) + '],"type":"FeatureCollection"}\n'
        )
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


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        for key, value in truth.meta.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GROUND_TRUTH_COLUMNS)
        for row in truth.rows:
            writer.writerow([row[col] for col in GROUND_TRUTH_COLUMNS])


def read_ground_truth(path: str | Path) -> GroundTruth:
    meta: dict[str, str] = {}
    lines = Path(path).read_text().split("\n")
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            body_start = i + 1
        else:
            break
    reader = csv.DictReader(lines[body_start:])
    rows = [row for row in reader if row.get("date")]
    return GroundTruth(meta=meta, rows=rows)


def kde_params_from_meta(meta: dict[str, str]) -> KdeParams:
    return KdeParams(
        bandwidth_m=float(meta["bandwidth_m"]),
        cutoff_sigmas=float(meta["cutoff_sigmas"]),
        threshold_mode=meta["threshold_mode"],  # type: ignore[arg-type]
        threshold_value=float(meta["threshold_value"]),
    )
