"""Daily impact accounting over new-burn masks.

Converts each day's newly burned cells into dollar losses for land,
roads, and buildings, exposure counts for POIs and population, and a
demographic breakdown. Dollar amounts are carried as exact integer
cents so that any partition of a mask accounts to the same totals.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MissingTractError, UnpricedClassError, ValidationError
from .geometry import (
    Point,
    PolygonLayer,
    PolyLine,
    Polygon,
    polygon_area,
    ragged_cell_indices,
    rasterize_polyline,
)
from .grid import AnalysisGrid, CategoryRaster, Mask, RealRaster

GENDER_KEYS = ("female", "male")
AGE_KEYS = ("age_0_17", "age_18_64", "age_65_plus")
RACE_KEYS = ("white", "asian", "black", "multiracial", "other")
# Each demographic group, named as its TractDemographics/Demographics field.
DEMOGRAPHIC_GROUPS = {"gender": GENDER_KEYS, "age": AGE_KEYS, "race": RACE_KEYS}


def to_cents(dollars: float | np.ndarray) -> int | np.ndarray:
    """Nearest integer cents; ties round half away from zero.

    An array of dollar amounts gives an int64 array of cents.
    """
    scaled = np.asarray(dollars, dtype=np.float64) * 100.0
    cents = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    return int(cents) if cents.ndim == 0 else cents.astype(np.int64)


def cents_to_usd(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


# A report amount has at most two decimals.
_AMOUNT = re.compile(r"-?\d+(\.\d{1,2})?", re.ASCII)


def usd_to_cents(text: str) -> int:
    """Inverse of :func:`cents_to_usd`: exact cents of a decimal dollar amount."""
    if not _AMOUNT.fullmatch(text):
        raise ValueError(text)
    whole, _, frac = text.removeprefix("-").partition(".")
    value = int(whole) * 100 + int(frac.ljust(2, "0"))
    return -value if text.startswith("-") else value


@dataclass(frozen=True)
class CostModel:
    """Unit costs: $/m² per land class, $/m per road class, $/m² of footprint."""

    land_cost: dict[int, float]
    road_cost: dict[str, float]
    building_cost: float

    def __post_init__(self) -> None:
        if self.building_cost < 0:
            raise ValidationError("building_cost must be >= 0")
        if any(v < 0 for v in self.land_cost.values()):
            raise ValidationError("land costs must be >= 0")
        if any(v < 0 for v in self.road_cost.values()):
            raise ValidationError("road costs must be >= 0")

    @classmethod
    def demo(cls) -> "CostModel":
        """Illustrative unit costs for synthetic runs; not calibrated."""
        return cls(
            land_cost={
                11: 0.0, 21: 8.0, 22: 12.0, 23: 18.0, 24: 30.0, 31: 0.5,
                41: 2.0, 42: 2.0, 43: 2.0, 52: 1.0, 71: 1.0, 81: 1.5,
                82: 3.0, 90: 1.0, 95: 1.0,
            },
            road_cost={
                "residential": 50.0, "primary": 120.0, "service": 30.0,
                "track": 10.0, "pedestrian": 15.0, "unclassified": 20.0,
            },
            building_cost=3000.0,
        )


@dataclass(frozen=True)
class RoadFeature:
    line: PolyLine
    road_class: str

    def __post_init__(self) -> None:
        if not self.road_class:
            raise ValidationError("road feature needs a class")


@dataclass(frozen=True)
class BuildingFeature:
    footprints: list[Polygon]
    building_id: str

    def __post_init__(self) -> None:
        check_building(self.building_id, len(self.footprints))

    def area(self) -> float:
        return math.fsum(polygon_area(p) for p in self.footprints)


@dataclass(frozen=True)
class PoiFeature:
    location: Point
    category: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValidationError("poi has non-finite coordinates")
        if not self.category:
            raise ValidationError("poi feature needs a category")


@dataclass(frozen=True)
class District:
    """A named assessment region bounded by its official fire perimeter."""

    name: str
    perimeter: list[Polygon]

    def __post_init__(self) -> None:
        check_district(self.name, len(self.perimeter))


def check_building(building_id: str, n_parts: int) -> None:
    """The checks of a :class:`BuildingFeature`, on a building's values."""
    if not n_parts:
        raise ValidationError(f"building {building_id} has no footprint")


def check_district(name: str, n_parts: int) -> None:
    """The checks of a :class:`District`, on a district's values."""
    if not name:
        raise ValidationError("district needs a name")
    if not n_parts:
        raise ValidationError(f"district {name} has no perimeter")


@dataclass(frozen=True)
class TractDemographics:
    """Population shares per tract; each group sums to 1 within 1e-6."""

    tract_id: str
    gender: dict[str, float]
    age: dict[str, float]
    race: dict[str, float]

    def __post_init__(self) -> None:
        for name, keys in DEMOGRAPHIC_GROUPS.items():
            shares = getattr(self, name)
            if set(shares) != set(keys):
                raise ValidationError(
                    f"tract {self.tract_id}: {name} shares must have keys {keys}"
                )
            if any(not (0 <= v <= 1) for v in shares.values()):
                raise ValidationError(f"tract {self.tract_id}: {name} share out of [0,1]")
            total = math.fsum(shares.values())
            if abs(total - 1.0) > 1e-6:
                raise ValidationError(
                    f"tract {self.tract_id}: {name} shares sum to {total}, not 1"
                )


@dataclass(frozen=True)
class Demographics:
    """Absolute exposed-person counts per demographic group."""

    gender: dict[str, float]
    age: dict[str, float]
    race: dict[str, float]

    @classmethod
    def zeros(cls) -> "Demographics":
        return cls(**{g: dict.fromkeys(keys, 0.0) for g, keys in DEMOGRAPHIC_GROUPS.items()})


@dataclass(frozen=True)
class DailyImpactRecord:
    """Impact accounting for one (date, district) pair."""

    date: dt.date
    district: str
    land_loss_cents: dict[int, int]
    road_loss_cents: dict[str, int]
    road_length_m: dict[str, float]
    building_loss_cents: int
    building_count: int
    poi_count: dict[str, int]
    exposed_population: float
    demographics: Demographics
    new_burn_cells: int

    @property
    def land_total_cents(self) -> int:
        return sum(self.land_loss_cents.values())

    @property
    def road_total_cents(self) -> int:
        return sum(self.road_loss_cents.values())

    @property
    def poi_total(self) -> int:
        return sum(self.poi_count.values())

    @property
    def grand_total_cents(self) -> int:
        return self.land_total_cents + self.road_total_cents + self.building_loss_cents


def land_use_loss(
    new_burn: Mask, landcover: CategoryRaster, costs: CostModel
) -> dict[int, int]:
    """Cents lost per land class: burned cell count x cell area x unit cost."""
    if landcover.grid != new_burn.grid:
        raise ValidationError("landcover and mask are not on the same grid")
    burned = landcover.cells[new_burn.bits]
    codes, counts = np.unique(burned, return_counts=True)
    out: dict[int, int] = {}
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


def road_loss(
    new_burn: Mask, roads: list[RoadFeature], costs: CostModel
) -> tuple[dict[str, int], dict[str, float]]:
    """Burned road length and cents per road class.

    Length inside the burn is the exactly rounded sum of per-cell clipped
    lengths over burned cells; each cell's cents are rounded once so
    partitions of the mask account exactly. Neither depends on the order
    of ``roads``; both dicts are keyed in sorted class order.
    """
    cents: dict[str, int] = {}
    lengths: dict[str, list[float]] = {}
    for road in roads:
        if road.road_class not in costs.road_cost:
            raise UnpricedClassError(f"no road cost for class {road.road_class!r}")
        rate = costs.road_cost[road.road_class]
        for (r, c), length in rasterize_polyline(road.line, new_burn.grid).items():
            if new_burn.bits[r, c]:
                lengths.setdefault(road.road_class, []).append(length)
                cents[road.road_class] = (
                    cents.get(road.road_class, 0) + to_cents(length * rate)
                )
    classes = sorted(lengths)
    return {k: cents[k] for k in classes}, {k: math.fsum(lengths[k]) for k in classes}


@dataclass(frozen=True)
class BuildingIndex:
    """Footprint cells and charges of every building that covers a cell.

    Built once per run. Building j's flat cell ids (row * n_cols + col)
    are ``cells[starts[j]:starts[j + 1]]`` (the last runs to the end) and
    its charge is ``cents[j]``; buildings whose footprints capture no
    cell center are left out, since no burn can reach them.
    """

    cells: np.ndarray
    starts: np.ndarray
    cents: np.ndarray

    @classmethod
    def build(
        cls,
        buildings: list[BuildingFeature] | PolygonLayer,
        grid: AnalysisGrid,
        costs: CostModel,
    ) -> "BuildingIndex":
        """The index of buildings given as objects or as a layer of footprints.

        A building's charge is ``to_cents(area() * building_cost)``, with
        :meth:`BuildingFeature.area`'s bits.
        """
        if not isinstance(buildings, PolygonLayer):
            buildings = PolygonLayer.of([b.footprints for b in buildings])
        cells, offsets = ragged_cell_indices(*buildings, grid)
        covered = np.diff(offsets) > 0
        cents = to_cents(buildings.areas()[covered] * costs.building_cost)
        return cls(cells, offsets[:-1][covered], cents)


def building_loss_by_day(
    index: BuildingIndex, first_burn: np.ndarray, n_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cents and count of buildings charged on each of ``n_days`` days.

    A building is charged once, on the first day any of its footprint
    cells burns: the minimum of ``first_burn`` over its cells.
    """
    cents = np.zeros(n_days, dtype=np.int64)
    if index.starts.size == 0:
        return cents, np.zeros(n_days, dtype=np.int64)
    day = first_burn.ravel()[index.cells].astype(np.int64)
    day[day < 0] = n_days
    charge_day = np.minimum.reduceat(day, index.starts)
    burned = charge_day < n_days
    np.add.at(cents, charge_day[burned], index.cents[burned])
    return cents, np.bincount(charge_day[burned], minlength=n_days)


def building_loss(
    cumulative_before: Mask,
    new_burn: Mask,
    buildings: list[BuildingFeature],
    costs: CostModel,
) -> tuple[int, int]:
    """Cents and count of buildings first touched by fire today.

    A building is charged once, on the first date any of its footprint
    cells (center rule) is newly burned; later days skip it.
    """
    index = BuildingIndex.build(buildings, new_burn.grid, costs)
    # A cell burned before today stays day 0 even if today's mask covers it too.
    first = np.where(cumulative_before.bits, 0, np.where(new_burn.bits, 1, -1))
    cents, counts = building_loss_by_day(index, first, 2)
    return int(cents[1]), int(counts[1])


def poi_exposure(new_burn: Mask, pois: list[PoiFeature]) -> dict[str, int]:
    """Counts of POIs whose containing cell is newly burned, per category.

    Keyed in sorted category order, whatever the order of ``pois``.
    """
    out: dict[str, int] = {}
    for poi in pois:
        cell = new_burn.grid.cell_of(poi.location.x, poi.location.y)
        if cell is not None and new_burn.bits[cell]:
            out[poi.category] = out.get(poi.category, 0) + 1
    return dict(sorted(out.items()))


def population_exposure(new_burn: Mask, popgrid: RealRaster) -> float:
    """Persons in newly burned cells."""
    if popgrid.grid != new_burn.grid:
        raise ValidationError("population grid and mask are not on the same grid")
    return float(popgrid.cells[new_burn.bits].sum())


def demographic_breakdown(
    exposure_by_block: dict[str, float],
    block_tracts: dict[str, str],
    tract_demo: dict[str, TractDemographics],
) -> Demographics:
    """Split exposed persons into gender/age/race counts via tract shares.

    Each group's counts sum back to the total exposure (to rounding),
    because every tract's shares sum to one. A tract's exposure is the
    exactly rounded sum of its blocks' exposures, and tracts are weighted
    in sorted order, so the counts do not depend on the order of the blocks.
    """
    exposed_by_tract: dict[str, list[float]] = {}
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


@dataclass(frozen=True)
class CategorySummary:
    total: float
    peak_date: dt.date | None
    peak_value: float


@dataclass(frozen=True)
class DistrictSummary:
    name: str
    peaks: dict[str, CategorySummary]
    land_pct_by_class: dict[int, float]
    road_pct_by_class: dict[str, float]
    poi_pct_by_category: dict[str, float]


@dataclass(frozen=True)
class EventSummary:
    districts: list[DistrictSummary]
    grand_total_cents: int
    total_exposed: float


# The daily metric behind each peak category, named as its report.csv column.
PEAK_METRICS: dict[str, Callable[[DailyImpactRecord], float]] = {
    "land_loss_usd": lambda r: r.land_total_cents / 100.0,
    "road_loss_usd": lambda r: r.road_total_cents / 100.0,
    "building_loss_usd": lambda r: r.building_loss_cents / 100.0,
    "poi_count": lambda r: float(r.poi_total),
    "exposed_population": lambda r: r.exposed_population,
    "new_burn_cells": lambda r: float(r.new_burn_cells),
}


def _percentages(totals: dict) -> dict:
    whole = math.fsum(totals.values())
    if whole <= 0:
        return {}
    return {k: 100.0 * v / whole for k, v in totals.items()}


def summarize(records: list[DailyImpactRecord]) -> EventSummary:
    """Event totals, per-district per-category peak days, and compositions.

    Composition percentages are shares of dollars for land, of burned
    meters for roads, and of counts for POIs; each set sums to 100.
    """
    if not records:
        raise ValidationError("summarize needs at least one record")
    by_district: dict[str, list[DailyImpactRecord]] = {}
    for rec in records:
        by_district.setdefault(rec.district, []).append(rec)

    districts = []
    for name in sorted(by_district):
        recs = sorted(by_district[name], key=lambda r: r.date)
        peaks: dict[str, CategorySummary] = {}
        for cat, metric in PEAK_METRICS.items():
            values = [metric(r) for r in recs]
            total = math.fsum(values)
            best = max(range(len(recs)), key=lambda i: (values[i], -i))
            peak_date = recs[best].date if values[best] > 0 else None
            peaks[cat] = CategorySummary(total, peak_date, values[best])
        land_tot: dict[int, float] = {}
        road_tot: dict[str, float] = {}
        poi_tot: dict[str, float] = {}
        for rec in recs:
            for k, v in rec.land_loss_cents.items():
                land_tot[k] = land_tot.get(k, 0.0) + v / 100.0
            for k, v in rec.road_length_m.items():
                road_tot[k] = road_tot.get(k, 0.0) + v
            for k, v in rec.poi_count.items():
                poi_tot[k] = poi_tot.get(k, 0.0) + v
        districts.append(
            DistrictSummary(
                name=name,
                peaks=peaks,
                land_pct_by_class=_percentages(land_tot),
                road_pct_by_class=_percentages(road_tot),
                poi_pct_by_category=_percentages(poi_tot),
            )
        )
    return EventSummary(
        districts=districts,
        grand_total_cents=sum(r.grand_total_cents for r in records),
        total_exposed=math.fsum(r.exposed_population for r in records),
    )
