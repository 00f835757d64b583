"""End-to-end assembly: manifest -> layers -> per-district daily records.

Kept separate from the CLI so each stage is callable from tests and the
subcommands stay thin. Every function here is deterministic for fixed
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dasymetric import (
    Blocks,
    CensusBlock,
    DownscaleReport,
    MassReport,
    PopulationGrid,
    WeightTable,
    downscale,
    validate_mass,
)
from .errors import ValidationError
from .geometry import PolygonLayer, points_in_polygon, segment_sums
from .grid import CategoryRaster, Mask
from .impact import (
    BuildingFeature,
    BuildingIndex,
    CostModel,
    DailyImpactRecord,
    Demographics,
    District,
    PoiFeature,
    RoadFeature,
    TractDemographics,
    building_loss_by_day,
    demographic_breakdown,
    land_use_loss,
    poi_exposure,
    population_exposure,
    road_loss,
)
from .io_formats import (
    FileManifest,
    read_ascii_grid,
    read_blocks,
    read_buildings,
    read_costs,
    read_demographics,
    read_detections,
    read_districts,
    read_pois,
    read_roads,
    read_weights,
)
from .perimeters import (
    DailyPerimeter,
    Detection,
    Detections,
    KdeParams,
    event_dates,
    extract_daily_perimeters,
)


@dataclass
class Layers:
    """Everything a run needs, loaded from the manifest's declared files."""

    manifest: FileManifest
    detections: Detections | list[Detection] = field(default_factory=list)
    landcover: CategoryRaster | None = None
    blocks: list[CensusBlock] | Blocks = field(default_factory=list)
    roads: list[RoadFeature] = field(default_factory=list)
    buildings: list[BuildingFeature] | PolygonLayer = field(default_factory=list)
    pois: list[PoiFeature] = field(default_factory=list)
    districts: list[District] = field(default_factory=list)
    weights: WeightTable = field(default_factory=WeightTable.default)
    costs: CostModel = field(default_factory=CostModel.demo)
    demographics: dict[str, TractDemographics] | None = None


def load_layers(manifest: FileManifest, roles: set[str]) -> Layers:
    """Load the requested roles; weights and costs fall back to defaults."""
    layers = Layers(manifest=manifest)
    paths = manifest.paths
    lon, lat = manifest.origin_lon, manifest.origin_lat

    def need(role: str) -> None:
        if role not in paths:
            raise ValidationError(f"manifest does not declare a {role!r} file")

    if "detections" in roles:
        need("detections")
        layers.detections = read_detections(
            paths["detections"], lon, lat, manifest.start_date, manifest.end_date
        )
    if "landcover" in roles:
        need("landcover")
        raster = read_ascii_grid(paths["landcover"])
        layers.landcover = resample_landcover(raster, manifest)
    if "blocks" in roles:
        need("blocks")
        layers.blocks = read_blocks(paths["blocks"], lon, lat)
    if "roads" in roles:
        need("roads")
        layers.roads = read_roads(paths["roads"], lon, lat)
    if "buildings" in roles:
        need("buildings")
        layers.buildings = read_buildings(paths["buildings"], lon, lat)
    if "pois" in roles:
        need("pois")
        layers.pois = read_pois(paths["pois"], lon, lat)
    if "official_perimeter" in roles:
        need("official_perimeter")
        layers.districts = read_districts(paths["official_perimeter"], lon, lat)
    if "weights" in roles and "weights" in paths:
        layers.weights = read_weights(paths["weights"])
    if "costs" in roles and "costs" in paths:
        layers.costs = read_costs(paths["costs"])
    if "demographics" in roles and "demographics" in paths:
        layers.demographics = read_demographics(paths["demographics"])
    return layers


def resample_landcover(
    raster: CategoryRaster, manifest: FileManifest
) -> CategoryRaster:
    """Bring a land cover raster onto the analysis grid if it is not on it."""
    from .grid import resample_nearest

    if raster.grid == manifest.grid:
        return raster
    return resample_nearest(raster, manifest.grid)


def compute_perimeters(
    layers: Layers, params: KdeParams
) -> dict[str, list[DailyPerimeter]]:
    """Per-district daily perimeters from the district's own detections.

    A detection belongs to a district when it falls inside the district's
    official perimeter; all districts share one event date range so their
    daily sequences line up. A district whose perimeter captures no cell
    center of the grid is a ValidationError naming it.
    """
    if not layers.districts:
        raise ValidationError("no districts in the official perimeter file")
    detections = Detections.of(layers.detections)
    dates = event_dates(detections)
    out: dict[str, list[DailyPerimeter]] = {}
    for district in layers.districts:
        inside = np.zeros(len(detections), dtype=bool)
        for part in district.perimeter:
            inside |= points_in_polygon(detections.x, detections.y, part)
        try:
            out[district.name] = extract_daily_perimeters(
                detections[inside].by_date(),
                district.perimeter,
                layers.manifest.grid,
                params,
                dates=dates,
            )
        except ValidationError as exc:
            raise type(exc)(f"district {district.name!r}: {exc}") from None
    return out


def compute_population(
    layers: Layers,
) -> tuple[PopulationGrid, DownscaleReport, MassReport]:
    if layers.landcover is None:
        raise ValidationError("population downscaling needs a landcover layer")
    blocks = Blocks.of(layers.blocks)
    popgrid, report = downscale(blocks, layers.landcover, layers.weights, layers.manifest.grid)
    mass = validate_mass(blocks, popgrid, report)
    failures = mass.failures()
    if failures:
        worst = max(failures, key=lambda e: e.rel_err)
        raise ValidationError(
            f"mass preservation failed: block {worst.block_id} off by {worst.rel_err:g}"
        )
    return popgrid, report, mass


def assess(
    layers: Layers,
    params: KdeParams,
    active_extent: bool = False,
) -> list[DailyImpactRecord]:
    """Full tri-environment accounting, one record per (date, district).

    Dollar losses always attribute to a cell's first burned day; with
    ``active_extent`` the exposure figures (population, POIs,
    demographics) use the day's whole active mask instead of the new burn.
    """
    perimeters = compute_perimeters(layers, params)
    popgrid, ds_report, _ = compute_population(layers)
    blocks = Blocks.of(layers.blocks)
    block_tracts = dict(zip(blocks.ids, blocks.tracts))
    grid = layers.manifest.grid
    buildings = BuildingIndex.build(layers.buildings, grid, layers.costs)

    records: list[DailyImpactRecord] = []
    for name in sorted(perimeters):
        days = perimeters[name]
        if not days:
            continue
        b_cents, b_count = building_loss_by_day(buildings, days[0].first_burn, len(days))
        for i, day in enumerate(days):
            new_burn = day.new_burn
            exposure_mask = day.active if active_extent else new_burn
            land = land_use_loss(new_burn, layers.landcover, layers.costs)
            road_cents, road_m = road_loss(new_burn, layers.roads, layers.costs)
            pois = poi_exposure(exposure_mask, layers.pois)
            exposed = population_exposure(exposure_mask, popgrid)
            if layers.demographics is not None:
                by_block = exposure_by_block(exposure_mask, ds_report)
                demo = demographic_breakdown(
                    by_block, block_tracts, layers.demographics
                )
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


def exposure_by_block(mask: Mask, report: DownscaleReport) -> dict[str, float]:
    """Exposed persons per block with a cell in the mask, in block order.

    ``report`` is the one :func:`fireimpact.dasymetric.downscale` filled.
    Each block's exposure is its own shares of the cells in the mask, with
    the bits of summing them in allocation order with ``ndarray.sum``; a
    block whose cells in the mask hold no one is kept, at 0.0. A centroid
    cell that several fallback blocks share charges each of them its own
    population, not the cell's total.
    """
    hit = mask.bits.ravel()[report.rows * mask.grid.n_cols + report.cols]
    counts = np.add.reduceat(hit, report.starts, dtype=np.int64)  # no run is empty
    touched = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[touched]
    exposed = segment_sums(report.pop[hit], starts, counts[touched])
    return dict(zip([report.block_ids[k] for k in touched.tolist()], exposed.tolist()))
