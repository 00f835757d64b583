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
    DownscaleReport,
    MassReport,
    PopulationGrid,
    WeightTable,
    downscale,
    validate_mass,
)
from .errors import ValidationError
from .geometry import PolygonLayer, points_in_polygon, ragged_cell_indices, segment_sums
from .grid import CategoryRaster, Mask
from .impact import (
    BuildingIndex,
    CostModel,
    DailyImpactRecord,
    Demographics,
    Districts,
    PoiIndex,
    Pois,
    RoadIndex,
    Roads,
    TractDemographics,
    building_loss_by_day,
    demographic_breakdown_by_day,
    item_days,
    items_by_day,
    land_use_loss_by_day,
    poi_exposure_by_day,
    population_exposure_by_day,
    road_loss_by_day,
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
    Detections,
    KdeParams,
    event_dates,
    extract_daily_perimeters,
)


@dataclass
class Layers:
    """Everything a run needs, loaded from the manifest's declared files;
    a layer that no requested role loads is None."""

    manifest: FileManifest
    detections: Detections | None = None
    landcover: CategoryRaster | None = None
    blocks: Blocks | None = None
    roads: Roads | None = None
    buildings: PolygonLayer | None = None
    pois: Pois | None = None
    districts: Districts | None = None
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
    center of the grid is a ValidationError naming it, and so are two
    districts that capture one cell center, which would be charged twice.
    """
    if not layers.districts:
        raise ValidationError("no districts in the official perimeter file")
    detections = layers.detections
    districts = layers.districts
    grid = layers.manifest.grid
    dates = event_dates(detections)
    inside = points_in_polygon(detections.x, detections.y, districts.parts)
    cells, cell_offsets = ragged_cell_indices(*districts.parts, grid)
    _check_disjoint(districts.names, cells, cell_offsets, grid.n_rows * grid.n_cols)
    out: dict[str, list[DailyPerimeter]] = {}
    for k, name in enumerate(districts.names):
        clip = np.zeros(grid.shape, dtype=bool)
        clip.ravel()[cells[cell_offsets[k]:cell_offsets[k + 1]]] = True
        try:
            out[name] = extract_daily_perimeters(
                detections[inside[k]].by_date(), Mask(grid, clip), params, dates=dates
            )
        except ValidationError as exc:
            raise type(exc)(f"district {name!r}: {exc}") from None
    return out


def _check_disjoint(names: list[str], cells: np.ndarray, offsets: np.ndarray,
                    n_cells: int) -> None:
    """A ValidationError if a cell is in two districts (each lists a cell
    once): it names the first district in file order that shares a cell,
    the first later one it shares cells with, and how many they share."""
    claims = np.bincount(cells, minlength=n_cells)
    if claims.max(initial=0) < 2:
        return
    first = int(np.searchsorted(offsets, np.argmax(claims[cells] > 1), side="right")) - 1
    theirs = np.zeros(n_cells, dtype=bool)
    theirs[cells[offsets[first]:offsets[first + 1]]] = True
    for k in range(first + 1, len(names)):
        shared = np.count_nonzero(theirs[cells[offsets[k]:offsets[k + 1]]])
        if shared:
            raise ValidationError(
                f"districts {names[first]!r} and {names[k]!r} overlap: "
                f"{shared} grid cell(s) in both"
            )


def compute_population(
    layers: Layers,
) -> tuple[PopulationGrid, DownscaleReport, MassReport]:
    if layers.landcover is None:
        raise ValidationError("population downscaling needs a landcover layer")
    blocks = layers.blocks
    popgrid, report = downscale(blocks, layers.landcover, layers.weights, layers.manifest.grid)
    mass = validate_mass(blocks, popgrid, report)
    failures = mass.failures()
    if failures.size:
        worst = failures[np.argmax(mass.rel_err[failures])]  # the first largest
        raise ValidationError(
            f"mass preservation failed: block {mass.block_ids[worst]} "
            f"off by {float(mass.rel_err[worst]):g}"
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
    Each accountant reduces all of a district's days at once from indexes
    built once per run, and the day loop builds the records; a missing
    price or tract raises where accounting day by day would meet it.
    """
    perimeters = compute_perimeters(layers, params)
    popgrid, ds_report, _ = compute_population(layers)
    block_tracts = dict(zip(layers.blocks.ids, layers.blocks.tracts))
    grid = layers.manifest.grid
    buildings = BuildingIndex.build(layers.buildings, grid, layers.costs)
    roads = RoadIndex.build(layers.roads, grid, layers.costs)
    pois = PoiIndex.build(layers.pois, grid)

    records: list[DailyImpactRecord] = []
    for name in sorted(perimeters):
        days = perimeters[name]
        if not days:
            continue
        n = len(days)
        first = days[0].first_burn
        exposure = [day.active.bits for day in days] if active_extent else first
        b_cents, b_count = building_loss_by_day(buildings, first, n)
        new_cells = np.bincount(first[first >= 0], minlength=n).tolist()
        poi_counts = poi_exposure_by_day(pois, exposure, n)
        exposed = population_exposure_by_day(popgrid, exposure, n).tolist()
        if layers.demographics is not None:
            demos = demographic_breakdown_by_day(
                *block_exposures(ds_report, exposure, n, grid.n_cols), n,
                block_tracts, layers.demographics,
            )
        else:
            demos = (Demographics.zeros() for _ in days)
        # Land, road and demographic figures come day by day, so that a
        # missing price or tract raises on the day the per-day order meets it.
        daily = zip(
            days,
            land_use_loss_by_day(first, n, layers.landcover, layers.costs),
            road_loss_by_day(roads, first, n),
            demos,
        )
        for i, (day, land, (road_cents, road_m), demo) in enumerate(daily):
            records.append(
                DailyImpactRecord(
                    date=day.date,
                    district=name,
                    land_loss_cents=land,
                    road_loss_cents=road_cents,
                    road_length_m=road_m,
                    building_loss_cents=int(b_cents[i]),
                    building_count=int(b_count[i]),
                    poi_count=poi_counts[i],
                    exposed_population=exposed[i],
                    demographics=demo,
                    new_burn_cells=new_cells[i],
                )
            )
    records.sort(key=lambda r: (r.date, r.district))
    return records


def block_exposures(
    report: DownscaleReport, burns: np.ndarray | list[np.ndarray], n_days: int, n_cols: int
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """The day, block id and exposed persons of each block with a cell in a
    day's cells, day by day, blocks in order (see
    :func:`fireimpact.impact.items_by_day` for ``burns``).

    A block's exposure is its own shares of the day's cells, summed in
    allocation order with the bits of ``ndarray.sum``: a centroid cell that
    several fallback blocks share charges each its own population.
    """
    cells = report.rows * n_cols + report.cols
    items, offsets = items_by_day(cells, burns, n_days)
    block = np.repeat(np.arange(len(report.starts)), np.diff(report.starts, append=cells.size))
    block, day = block[items], item_days(offsets)
    new_run = np.ones(len(items), dtype=bool)
    new_run[1:] = (block[1:] != block[:-1]) | (day[1:] != day[:-1])
    starts = np.flatnonzero(new_run)
    ids = list(map(report.block_ids.__getitem__, block[starts].tolist()))
    return day[starts], ids, segment_sums(report.pop[items], starts)

