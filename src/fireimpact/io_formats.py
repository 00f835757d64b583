"""Readers and writers for every external artifact.

All writers are deterministic: identical inputs give byte-identical
files (sorted keys, fixed float formatting, no timestamps). Readers
report the file, line or feature index, and field for every problem.

GeoJSON input is a simple subset: a FeatureCollection of Point,
LineString, Polygon, or MultiPolygon features with flat properties and
lon/lat degree coordinates, projected onto the local planar frame at
load time using the manifest's origin.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dasymetric import CensusBlock, WeightTable
from .errors import FormatError, SchemaError, ValidationError
from .geometry import (
    Point,
    PolyLine,
    Polygon,
    project_lonlat,
    trace_mask_boundary,
    unproject_to_lonlat,
)
from .grid import AnalysisGrid, CategoryRaster, Mask, RealRaster
from .impact import (
    AGE_KEYS,
    GENDER_KEYS,
    RACE_KEYS,
    BuildingFeature,
    CostModel,
    DailyImpactRecord,
    District,
    PoiFeature,
    RoadFeature,
    TractDemographics,
    cents_to_usd,
)
from .perimeters import DailyPerimeter, Detection

KNOWN_ROLES = (
    "detections",
    "landcover",
    "blocks",
    "roads",
    "buildings",
    "pois",
    "official_perimeter",
    "weights",
    "costs",
    "demographics",
)


@dataclass(frozen=True)
class FileManifest:
    """Declares the input files for one run plus the shared grid frame."""

    origin_lon: float
    origin_lat: float
    grid: AnalysisGrid
    paths: dict[str, Path]
    start_date: dt.date | None = None
    end_date: dt.date | None = None


def read_manifest(path: str | Path) -> FileManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    for key in ("origin_lon", "origin_lat", "grid", "paths"):
        if key not in doc:
            raise SchemaError(f"{path}: manifest is missing {key!r}")
    g = doc["grid"]
    for key in ("cell_size", "n_rows", "n_cols", "origin_x", "origin_y"):
        if key not in g:
            raise SchemaError(f"{path}: manifest grid is missing {key!r}")
    grid = AnalysisGrid(
        origin_x=float(g["origin_x"]),
        origin_y=float(g["origin_y"]),
        cell_size=float(g["cell_size"]),
        n_rows=int(g["n_rows"]),
        n_cols=int(g["n_cols"]),
    )
    paths: dict[str, Path] = {}
    for role, rel in doc["paths"].items():
        if role not in KNOWN_ROLES:
            raise ValidationError(f"{path}: unknown manifest role {role!r}")
        p = (path.parent / rel).resolve()
        if not p.exists():
            raise ValidationError(f"{path}: {role} file does not exist: {p}")
        paths[role] = p
    start = dt.date.fromisoformat(doc["start_date"]) if "start_date" in doc else None
    end = dt.date.fromisoformat(doc["end_date"]) if "end_date" in doc else None
    return FileManifest(
        origin_lon=float(doc["origin_lon"]),
        origin_lat=float(doc["origin_lat"]),
        grid=grid,
        paths=paths,
        start_date=start,
        end_date=end,
    )


def write_manifest(manifest: FileManifest, path: str | Path) -> None:
    path = Path(path)
    doc = {
        "origin_lon": manifest.origin_lon,
        "origin_lat": manifest.origin_lat,
        "grid": {
            "cell_size": manifest.grid.cell_size,
            "n_rows": manifest.grid.n_rows,
            "n_cols": manifest.grid.n_cols,
            "origin_x": manifest.grid.origin_x,
            "origin_y": manifest.grid.origin_y,
        },
        "paths": {role: _relative_str(p, path.parent) for role, p in sorted(manifest.paths.items())},
    }
    if manifest.start_date:
        doc["start_date"] = manifest.start_date.isoformat()
    if manifest.end_date:
        doc["end_date"] = manifest.end_date.isoformat()
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _relative_str(p: Path, base: Path) -> str:
    try:
        return str(p.resolve().relative_to(base.resolve()))
    except ValueError:
        return str(p)


# ---------------------------------------------------------------------------
# Detections CSV
# ---------------------------------------------------------------------------

_CONFIDENCE = {
    "l": "low", "low": "low",
    "n": "nominal", "nominal": "nominal",
    "h": "high", "high": "high",
}


def read_detections(
    path: str | Path,
    origin_lon: float,
    origin_lat: float,
    start_date: dt.date | None = None,
    end_date: dt.date | None = None,
) -> list[Detection]:
    """Parse a FIRMS-style CSV: latitude, longitude, acq_date [, frp, confidence].

    Bad rows are collected and reported together with their line numbers
    after the whole file has been scanned; rows outside the configured
    event window are dropped.
    """
    path = Path(path)
    detections: list[Detection] = []
    problems: list[str] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a CSV header") from None
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        for required in ("latitude", "longitude", "acq_date"):
            if required not in cols:
                raise SchemaError(f"{path}: missing required column {required!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                lat = float(row[cols["latitude"]])
                lon = float(row[cols["longitude"]])
            except (ValueError, IndexError):
                problems.append(f"line {lineno}: unparseable coordinate")
                continue
            try:
                date = dt.date.fromisoformat(row[cols["acq_date"]].strip())
            except (ValueError, IndexError):
                problems.append(f"line {lineno}: unparseable acq_date")
                continue
            frp = None
            if "frp" in cols and cols["frp"] < len(row) and row[cols["frp"]].strip():
                try:
                    frp = float(row[cols["frp"]])
                    if frp < 0 or not math.isfinite(frp):
                        raise ValueError
                except ValueError:
                    problems.append(f"line {lineno}: bad frp value")
                    continue
            confidence = None
            if "confidence" in cols and cols["confidence"] < len(row):
                raw = row[cols["confidence"]].strip().lower()
                if raw:
                    if raw not in _CONFIDENCE:
                        problems.append(f"line {lineno}: bad confidence {raw!r}")
                        continue
                    confidence = _CONFIDENCE[raw]
            if start_date and date < start_date:
                continue
            if end_date and date > end_date:
                continue
            detections.append(
                Detection(
                    location=project_lonlat(lon, lat, origin_lon, origin_lat),
                    date=date,
                    frp=frp,
                    confidence=confidence,
                )
            )
    if problems:
        raise SchemaError(f"{path}: {len(problems)} bad row(s): " + "; ".join(problems))
    return detections


def group_detections_by_date(
    detections: list[Detection],
) -> dict[dt.date, list[Detection]]:
    out: dict[dt.date, list[Detection]] = {}
    for d in detections:
        out.setdefault(d.date, []).append(d)
    return out


# ---------------------------------------------------------------------------
# ESRI ASCII grids
# ---------------------------------------------------------------------------


def read_ascii_grid(
    path: str | Path, kind: str = "auto"
) -> CategoryRaster | RealRaster:
    """Read an ESRI ASCII grid; ``kind`` is "category", "real", or "auto".

    In auto mode the raster is categorical iff every value token parses
    as an integer.
    """
    path = Path(path)
    header: dict[str, float] = {}
    tokens: list[str] = []
    with path.open() as fh:
        lines = fh.read().split("\n")
    data_start = 0
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in (
            "ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value",
        ):
            header[parts[0].lower()] = float(parts[1])
            data_start = i + 1
        else:
            break
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"):
        if key not in header:
            raise FormatError(f"{path}: missing header key {key!r}")
    for line in lines[data_start:]:
        tokens.extend(line.split())
    n_rows = int(header["nrows"])
    n_cols = int(header["ncols"])
    if len(tokens) != n_rows * n_cols:
        raise FormatError(
            f"{path}: expected {n_rows * n_cols} values, found {len(tokens)}"
        )
    grid = AnalysisGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_rows=n_rows,
        n_cols=n_cols,
    )
    if kind == "auto":
        kind = "category" if all(_is_int_token(t) for t in tokens) else "real"
    if kind == "category":
        values = np.array([int(t) for t in tokens], dtype=np.int32)
        return CategoryRaster(
            grid, values.reshape(n_rows, n_cols), nodata=int(header["nodata_value"])
        )
    if kind == "real":
        values = np.array([float(t) for t in tokens])
        return RealRaster(grid, values.reshape(n_rows, n_cols))
    raise ValidationError(f"unknown ascii grid kind {kind!r}")


def _is_int_token(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def write_ascii_grid(
    raster: CategoryRaster | RealRaster, path: str | Path
) -> None:
    """Write an ESRI ASCII grid; reals keep 17 significant digits."""
    path = Path(path)
    g = raster.grid
    if isinstance(raster, CategoryRaster):
        nodata: float = raster.nodata
        fmt = str  # class codes are int32, so tolist() gives ints
    else:
        nodata = -9999
        fmt = "{:.17g}".format
    with path.open("w") as fh:
        fh.write(f"ncols {g.n_cols}\n")
        fh.write(f"nrows {g.n_rows}\n")
        fh.write(f"xllcorner {g.origin_x:.17g}\n")
        fh.write(f"yllcorner {g.origin_y:.17g}\n")
        fh.write(f"cellsize {g.cell_size:.17g}\n")
        fh.write(f"NODATA_value {nodata}\n")
        for row in raster.cells:
            fh.write(" ".join(map(fmt, row.tolist())) + "\n")


def mask_to_category(mask: Mask) -> CategoryRaster:
    """Encode a mask as a 0/1 category raster for .asc export."""
    return CategoryRaster(mask.grid, mask.bits.astype(np.int32), nodata=-1)


# ---------------------------------------------------------------------------
# GeoJSON subset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Feature:
    geometry_type: str
    coordinates: object
    properties: dict
    index: int


def _read_feature_collection(path: Path) -> list[Feature]:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if doc.get("type") != "FeatureCollection":
        raise FormatError(f"{path}: expected a FeatureCollection")
    features = []
    for i, feat in enumerate(doc.get("features", [])):
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        if gtype not in ("Point", "LineString", "Polygon", "MultiPolygon"):
            raise FormatError(f"{path}: feature {i}: unsupported geometry type {gtype!r}")
        features.append(
            Feature(gtype, geom.get("coordinates"), feat.get("properties") or {}, i)
        )
    return features


def _require_props(path: Path, feat: Feature, names: tuple[str, ...], role: str) -> None:
    for name in names:
        if name not in feat.properties:
            raise SchemaError(
                f"{path}: feature {feat.index}: {role} requires property {name!r}"
            )


def _project_ring(ring, origin_lon: float, origin_lat: float) -> list[Point]:
    return [project_lonlat(lon, lat, origin_lon, origin_lat) for lon, lat in ring]


def _polygon_parts(
    feat: Feature, origin_lon: float, origin_lat: float, path: Path
) -> list[Polygon]:
    if feat.geometry_type == "Polygon":
        polys = [feat.coordinates]
    elif feat.geometry_type == "MultiPolygon":
        polys = feat.coordinates
    else:
        raise FormatError(
            f"{path}: feature {feat.index}: expected polygonal geometry, "
            f"got {feat.geometry_type}"
        )
    parts = []
    for rings in polys:
        exterior = _project_ring(rings[0], origin_lon, origin_lat)
        holes = [_project_ring(r, origin_lon, origin_lat) for r in rings[1:]]
        parts.append(Polygon(exterior, holes))
    return parts


def read_blocks(path: str | Path, origin_lon: float, origin_lat: float) -> list[CensusBlock]:
    path = Path(path)
    blocks = []
    ids = set()
    for feat in _read_feature_collection(path):
        _require_props(path, feat, ("block_id", "pop", "tract_id"), "blocks")
        block_id = str(feat.properties["block_id"])
        if block_id in ids:
            raise ValidationError(f"{path}: duplicate block_id {block_id!r}")
        ids.add(block_id)
        parts = _polygon_parts(feat, origin_lon, origin_lat, path)
        blocks.append(
            CensusBlock(
                block_id=block_id,
                parts=parts,
                pop=float(feat.properties["pop"]),
                tract_id=str(feat.properties["tract_id"]),
            )
        )
    return blocks


def read_roads(path: str | Path, origin_lon: float, origin_lat: float) -> list[RoadFeature]:
    path = Path(path)
    roads = []
    for feat in _read_feature_collection(path):
        _require_props(path, feat, ("class",), "roads")
        if feat.geometry_type != "LineString":
            raise FormatError(
                f"{path}: feature {feat.index}: roads must be LineString, "
                f"got {feat.geometry_type}"
            )
        vertices = _project_ring(feat.coordinates, origin_lon, origin_lat)
        roads.append(RoadFeature(PolyLine(vertices), str(feat.properties["class"])))
    return roads


def read_buildings(
    path: str | Path, origin_lon: float, origin_lat: float
) -> list[BuildingFeature]:
    path = Path(path)
    buildings = []
    for feat in _read_feature_collection(path):
        _require_props(path, feat, ("id",), "buildings")
        parts = _polygon_parts(feat, origin_lon, origin_lat, path)
        buildings.append(BuildingFeature(parts, str(feat.properties["id"])))
    return buildings


def read_pois(path: str | Path, origin_lon: float, origin_lat: float) -> list[PoiFeature]:
    path = Path(path)
    pois = []
    for feat in _read_feature_collection(path):
        _require_props(path, feat, ("category",), "pois")
        if feat.geometry_type != "Point":
            raise FormatError(
                f"{path}: feature {feat.index}: pois must be Point, "
                f"got {feat.geometry_type}"
            )
        lon, lat = feat.coordinates
        pois.append(
            PoiFeature(
                project_lonlat(lon, lat, origin_lon, origin_lat),
                str(feat.properties["category"]),
            )
        )
    return pois


def read_districts(
    path: str | Path, origin_lon: float, origin_lat: float
) -> list[District]:
    """Official perimeter file: one polygonal feature per district with a name."""
    path = Path(path)
    districts = []
    names = set()
    for feat in _read_feature_collection(path):
        _require_props(path, feat, ("name",), "official_perimeter")
        name = str(feat.properties["name"])
        if name in names:
            raise ValidationError(f"{path}: duplicate district name {name!r}")
        names.add(name)
        districts.append(District(name, _polygon_parts(feat, origin_lon, origin_lat, path)))
    return districts


def write_feature_collection(features: list[dict], path: str | Path) -> None:
    doc = {"type": "FeatureCollection", "features": features}
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def polygon_to_geojson_coords(
    poly: Polygon, origin_lon: float, origin_lat: float
) -> list[list[list[float]]]:
    rings = []
    for ring in poly.rings():
        rings.append(
            [list(unproject_to_lonlat(p, origin_lon, origin_lat)) for p in ring]
        )
    return rings


def write_daily_perimeters_geojson(
    district: str,
    day: DailyPerimeter,
    origin_lon: float,
    origin_lat: float,
    path: str | Path,
) -> None:
    features = []
    for poly in trace_mask_boundary(day.new_burn):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Polygon",
                    "coordinates": polygon_to_geojson_coords(poly, origin_lon, origin_lat),
                },
                "properties": {
                    "district": district,
                    "date": day.date.isoformat(),
                    "kind": "new_burn",
                },
            }
        )
    write_feature_collection(features, path)


# ---------------------------------------------------------------------------
# Weights / costs / demographics
# ---------------------------------------------------------------------------


def read_weights(path: str | Path) -> WeightTable:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: weights file must map class code to weight")
    try:
        return WeightTable({int(k): float(v) for k, v in doc.items()})
    except ValueError as exc:
        raise SchemaError(f"{path}: bad weights entry ({exc})") from exc


def write_weights(w: WeightTable, path: str | Path) -> None:
    doc = {str(k): v for k, v in sorted(w.weights.items())}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def read_costs(path: str | Path) -> CostModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    for key in ("land_cost", "road_cost", "building_cost"):
        if key not in doc:
            raise SchemaError(f"{path}: costs file is missing {key!r}")
    return CostModel(
        land_cost={int(k): float(v) for k, v in doc["land_cost"].items()},
        road_cost={str(k): float(v) for k, v in doc["road_cost"].items()},
        building_cost=float(doc["building_cost"]),
    )


def write_costs(costs: CostModel, path: str | Path) -> None:
    doc = {
        "building_cost": costs.building_cost,
        "land_cost": {str(k): v for k, v in sorted(costs.land_cost.items())},
        "road_cost": dict(sorted(costs.road_cost.items())),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


_DEMO_COLUMNS = ("tract_id",) + GENDER_KEYS + AGE_KEYS + RACE_KEYS


def read_demographics(path: str | Path) -> dict[str, TractDemographics]:
    path = Path(path)
    out: dict[str, TractDemographics] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _DEMO_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise SchemaError(f"{path}: missing demographics column(s) {missing}")
        for lineno, row in enumerate(reader, start=2):
            tract_id = row["tract_id"]
            try:
                demo = TractDemographics(
                    tract_id=tract_id,
                    gender={k: float(row[k]) for k in GENDER_KEYS},
                    age={k: float(row[k]) for k in AGE_KEYS},
                    race={k: float(row[k]) for k in RACE_KEYS},
                )
            except (ValueError, ValidationError) as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
            if tract_id in out:
                raise SchemaError(f"{path}: line {lineno}: duplicate tract {tract_id}")
            out[tract_id] = demo
    return out


def write_demographics(
    demos: dict[str, TractDemographics], path: str | Path
) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_DEMO_COLUMNS)
        for tract_id in sorted(demos):
            d = demos[tract_id]
            writer.writerow(
                [tract_id]
                + [repr(d.gender[k]) for k in GENDER_KEYS]
                + [repr(d.age[k]) for k in AGE_KEYS]
                + [repr(d.race[k]) for k in RACE_KEYS]
            )


# ---------------------------------------------------------------------------
# Report CSV
# ---------------------------------------------------------------------------

_REPORT_HEAD = (
    "date",
    "district",
    "land_loss_usd",
    "road_loss_usd",
    "building_loss_usd",
    "building_count",
    "poi_count",
    "exposed_population",
)


def write_report(
    records: list[DailyImpactRecord], path: str | Path, cumulative: bool = False
) -> None:
    """Long-format CSV, one row per (date, district).

    The aggregate columns come first, then every per-class / per-category
    column seen anywhere in the records, sorted, zero-filled where a
    record has no entry. With ``cumulative`` the running per-district
    totals are appended as extra columns.
    """
    if not records:
        raise ValidationError("write_report needs at least one record")
    records = sorted(records, key=lambda r: (r.date, r.district))
    land_classes = sorted({k for r in records for k in r.land_loss_cents})
    road_classes = sorted(
        {k for r in records for k in r.road_loss_cents}
        | {k for r in records for k in r.road_length_m}
    )
    poi_cats = sorted({k for r in records for k in r.poi_count})

    tail: list[str] = sorted(
        [f"land_loss_usd_class_{c}" for c in land_classes]
        + [f"road_loss_usd_{c}" for c in road_classes]
        + [f"road_length_m_{c}" for c in road_classes]
        + [f"poi_count_{c}" for c in poi_cats]
        + [f"demo_{k}" for k in GENDER_KEYS + AGE_KEYS + RACE_KEYS]
        + ["exposed_population_rounded", "new_burn_cells"]
    )
    cum_cols = [
        "cumulative_building_loss_usd",
        "cumulative_exposed_population",
        "cumulative_land_loss_usd",
        "cumulative_new_burn_cells",
        "cumulative_road_loss_usd",
    ]
    header = list(_REPORT_HEAD) + tail + (cum_cols if cumulative else [])

    running: dict[str, dict[str, float]] = {}
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in records:
            row: dict[str, str] = {
                "date": rec.date.isoformat(),
                "district": rec.district,
                "land_loss_usd": cents_to_usd(rec.land_total_cents),
                "road_loss_usd": cents_to_usd(rec.road_total_cents),
                "building_loss_usd": cents_to_usd(rec.building_loss_cents),
                "building_count": str(rec.building_count),
                "poi_count": str(rec.poi_total),
                "exposed_population": repr(rec.exposed_population),
                "exposed_population_rounded": str(round(rec.exposed_population)),
                "new_burn_cells": str(rec.new_burn_cells),
            }
            for c in land_classes:
                row[f"land_loss_usd_class_{c}"] = cents_to_usd(
                    rec.land_loss_cents.get(c, 0)
                )
            for c in road_classes:
                row[f"road_loss_usd_{c}"] = cents_to_usd(rec.road_loss_cents.get(c, 0))
                row[f"road_length_m_{c}"] = repr(rec.road_length_m.get(c, 0.0))
            for c in poi_cats:
                row[f"poi_count_{c}"] = str(rec.poi_count.get(c, 0))
            for k in GENDER_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.gender[k])
            for k in AGE_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.age[k])
            for k in RACE_KEYS:
                row[f"demo_{k}"] = repr(rec.demographics.race[k])
            if cumulative:
                acc = running.setdefault(
                    rec.district,
                    {"land": 0, "road": 0, "building": 0, "exposed": 0.0, "cells": 0},
                )
                acc["land"] += rec.land_total_cents
                acc["road"] += rec.road_total_cents
                acc["building"] += rec.building_loss_cents
                acc["exposed"] += rec.exposed_population
                acc["cells"] += rec.new_burn_cells
                row["cumulative_land_loss_usd"] = cents_to_usd(int(acc["land"]))
                row["cumulative_road_loss_usd"] = cents_to_usd(int(acc["road"]))
                row["cumulative_building_loss_usd"] = cents_to_usd(int(acc["building"]))
                row["cumulative_exposed_population"] = repr(acc["exposed"])
                row["cumulative_new_burn_cells"] = str(int(acc["cells"]))
            writer.writerow([row[col] for col in header])


def read_report(path: str | Path) -> list[dict[str, str]]:
    """Report rows as dicts of strings (for checks and the report command)."""
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_POP_RAMP = ("#ffffcc", "#a1dab4", "#41b6c4", "#2c7fb8", "#253494")
_DAY_COLORS = ("#e41a1c", "#ff7f00", "#ffd92f", "#4daf4a", "#377eb8", "#984ea3",
               "#a65628", "#f781bf")


def render_svg(
    path: str | Path,
    grid: AnalysisGrid,
    popgrid: RealRaster | None = None,
    perimeters: dict[str, list[DailyPerimeter]] | None = None,
    districts: list[District] | None = None,
) -> None:
    """Simple map: population choropleth, per-day new-burn outlines, legend.

    The choropleth uses a fixed 5-stop ramp over the quantiles of the
    positive population values. Output is deterministic for fixed inputs.
    """
    if popgrid is None and not perimeters and not districts:
        raise ValidationError("render_svg needs at least one layer")
    scale = 800.0 / max(grid.n_cols * grid.cell_size, grid.n_rows * grid.cell_size)
    width = grid.n_cols * grid.cell_size * scale
    height = grid.n_rows * grid.cell_size * scale
    dates = _legend_dates(perimeters)
    legend_h = 20.0 * (1 + len(dates))

    def sx(x: float) -> float:
        return (x - grid.origin_x) * scale

    def sy(y: float) -> float:
        return (grid.max_y - y) * scale

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height + legend_h:.2f}" '
        f'viewBox="0 0 {width:.2f} {height + legend_h:.2f}">'
    )
    parts.append(f'<rect width="{width:.2f}" height="{height:.2f}" fill="#f7f7f7"/>')

    if popgrid is not None:
        rows, cols = np.nonzero(popgrid.cells > 0)
        if rows.size:
            positive = popgrid.cells[rows, cols]
            breaks = np.quantile(positive, [0.2, 0.4, 0.6, 0.8])
            levels = np.searchsorted(breaks, positive, side="right")
            cell_px = grid.cell_size * scale
            for r, c, level in zip(rows.tolist(), cols.tolist(), levels.tolist()):
                color = _POP_RAMP[level]
                x = c * cell_px
                y = r * cell_px
                parts.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_px:.2f}" '
                    f'height="{cell_px:.2f}" fill="{color}"/>'
                )

    if districts:
        for d in districts:
            for poly in d.perimeter:
                parts.append(
                    f'<path d="{_poly_path(poly, sx, sy)}" fill="none" '
                    f'stroke="#555555" stroke-width="1.5" stroke-dasharray="4 2"/>'
                )

    if perimeters:
        for name in sorted(perimeters):
            for day in perimeters[name]:
                color = _DAY_COLORS[dates.index(day.date) % len(_DAY_COLORS)]
                for poly in trace_mask_boundary(day.new_burn):
                    parts.append(
                        f'<path d="{_poly_path(poly, sx, sy)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.2"/>'
                    )

    y_leg = height + 14.0
    parts.append(
        f'<text x="4.00" y="{y_leg:.2f}" font-family="sans-serif" '
        f'font-size="11">new burns by day</text>'
    )
    for i, date in enumerate(dates):
        y = y_leg + 18.0 * (i + 1)
        color = _DAY_COLORS[i % len(_DAY_COLORS)]
        parts.append(
            f'<rect x="4.00" y="{y - 9:.2f}" width="12.00" height="12.00" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="22.00" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="11">{date.isoformat()}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _legend_dates(perimeters: dict[str, list[DailyPerimeter]] | None) -> list[dt.date]:
    if not perimeters:
        return []
    dates = sorted({day.date for days in perimeters.values() for day in days})
    return dates


def _poly_path(poly: Polygon, sx, sy) -> str:
    chunks = []
    for ring in poly.rings():
        coords = " L ".join(f"{sx(p.x):.2f} {sy(p.y):.2f}" for p in ring[:-1])
        chunks.append(f"M {coords} Z")
    return " ".join(chunks)
