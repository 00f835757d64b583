"""Daily impact accounting over new-burn masks.

Converts each day's newly burned cells into dollar losses for land,
roads, and buildings, exposure counts for POIs and population, and a
demographic breakdown. Dollar amounts are carried as exact integer
cents so that any partition of a mask accounts to the same totals.
The ``*_by_day`` accountants reduce a whole run of days at once, from
indexes built once per run.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import MissingTractError, UnpricedClassError, ValidationError
from .geometry import (
    PolygonLayer,
    ragged_cell_indices,
    rasterize_polyline,
    run_offsets,
    segment_sums,
)
from .grid import AnalysisGrid, CategoryRaster, RealRaster

GENDER_KEYS = ("female", "male")
AGE_KEYS = ("age_0_17", "age_18_64", "age_65_plus")
RACE_KEYS = ("white", "asian", "black", "multiracial", "other")
# Each demographic group, named as its TractDemographics/Demographics field.
DEMOGRAPHIC_GROUPS = {"gender": GENDER_KEYS, "age": AGE_KEYS, "race": RACE_KEYS}


# Every charge and every sum of charges is an int64 count of cents.
INT64_CENTS = 2**63


def to_cents(dollars: float | np.ndarray) -> int | np.ndarray:
    """Nearest integer cents; ties round half away from zero.

    An array of dollar amounts gives an int64 array of cents. An amount of
    2^63 cents or more either way is a ValidationError.
    """
    scaled = np.asarray(dollars, dtype=np.float64) * 100.0
    cents = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    outside = ~(np.abs(cents) < INT64_CENTS)
    if outside.any():
        amount = float(scaled[outside][0]) / 100.0
        raise ValidationError(f"a charge of {amount!r} dollars is beyond the int64 range of cents")
    return int(cents) if cents.ndim == 0 else cents.astype(np.int64)


def sum_cents(cents: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``reduce(cents)``, an int64 sum of charges per group, worked exactly.

    The high and the low 32 bits of the charges are reduced apart, so
    neither reduction can wrap below 2^31 charges, and recombined in
    Python ints. A sum of 2^63 cents or more either way is a
    ValidationError.
    """
    high = reduce(cents >> 32).tolist()
    low = reduce(cents & 0xFFFFFFFF).tolist()
    sums = [(h << 32) + lo for h, lo in zip(high, low)]
    if any(abs(total) >= INT64_CENTS for total in sums):
        raise ValidationError("a day's charges sum beyond the int64 range of cents")
    return np.array(sums, dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class Districts:
    """Named assessment regions as columns: district k is ``names[k]``,
    bounded by its official fire perimeter, feature k of ``parts``. Rows
    are assumed valid, as :func:`check_district` checks them.
    """

    names: list[str]
    parts: PolygonLayer

    def __len__(self) -> int:
        return len(self.names)


def check_road(road_class: str) -> None:
    """The checks of a road, on its values; :func:`check_line` checks its line."""
    if not road_class:
        raise ValidationError("road feature needs a class")


def check_building(building_id: str, n_parts: int) -> None:
    """The checks of a building, on its values."""
    if not n_parts:
        raise ValidationError(f"building {building_id} has no footprint")


def check_poi(x: float, y: float, category: str) -> None:
    """The checks of a POI, on its values."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError("poi has non-finite coordinates")
    if not category:
        raise ValidationError("poi feature needs a category")


def check_district(name: str, n_parts: int) -> None:
    """The checks of a district, on its values."""
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


def category_codes(names: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``names`` in sorted order, and each name's index among them."""
    categories = sorted(set(names))
    code = {name: k for k, name in enumerate(categories)}
    return categories, np.fromiter(map(code.__getitem__, names), np.int64, len(names))


@dataclass(frozen=True, eq=False)
class Roads:
    """Roads as columns: road k runs through the vertices
    ``xs, ys[offsets[k]:offsets[k + 1]]`` and has class ``classes[codes[k]]``,
    ``classes`` being sorted. Rows are assumed valid, as :func:`check_line`
    and :func:`check_road` check them.
    """

    xs: np.ndarray
    ys: np.ndarray
    offsets: np.ndarray
    classes: list[str]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True, eq=False)
class Pois:
    """POIs as columns: POI k lies at ``xs[k], ys[k]`` and has category
    ``categories[codes[k]]``, ``categories`` being sorted. Rows are assumed
    valid, as :func:`check_poi` checks them.
    """

    xs: np.ndarray
    ys: np.ndarray
    categories: list[str]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class RoadIndex:
    """The pieces of road that a burn can charge, from one rasterization of each road.

    Built once per run. Piece j is road length ``lengths[j]`` in flat cell
    ``cells[j]``, as :func:`rasterize_polyline` gives it for one road and
    cell, of class ``classes[codes[j]]``, charged ``cents[j]``. If a road's
    class has no cost, ``unpriced`` names the first such road's class and
    the index holds no pieces.
    """

    cells: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    cents: np.ndarray
    classes: list[str]
    unpriced: str | None = None

    @classmethod
    def build(cls, roads: Roads, grid: AnalysisGrid, costs: CostModel) -> "RoadIndex":
        """The index of ``roads``; each piece is charged ``to_cents(length * cost)``."""
        priced = np.array([c in costs.road_cost for c in roads.classes], dtype=bool)
        unpriced = np.flatnonzero(~priced[roads.codes])
        none = np.zeros(0, dtype=np.int64)
        if unpriced.size:
            name = roads.classes[roads.codes[unpriced[0]]]
            return cls(none, np.zeros(0), none, none, roads.classes, name)
        cells: list[int] = []
        lengths: list[float] = []
        counts: list[int] = []
        bounds = roads.offsets.tolist()
        for a, b in zip(bounds, bounds[1:]):
            pieces = rasterize_polyline(roads.xs[a:b], roads.ys[a:b], grid)
            cells.extend(r * grid.n_cols + c for r, c in pieces)
            lengths.extend(pieces.values())
            counts.append(len(pieces))
        codes = np.repeat(roads.codes, counts)
        length = np.array(lengths, dtype=np.float64)
        rates = np.array([costs.road_cost[c] for c in roads.classes], dtype=np.float64)
        cents = to_cents(length * rates[codes])
        return cls(np.array(cells, dtype=np.int64), length, codes, cents, roads.classes)


@dataclass(frozen=True)
class PoiIndex:
    """The cell and category of every POI on the grid.

    Built once per run. POI j of the index lies in flat cell ``cells[j]``,
    by :meth:`AnalysisGrid.cell_of`'s half-open rule, and has category
    ``categories[codes[j]]``; POIs on no cell are left out.
    """

    cells: np.ndarray
    codes: np.ndarray
    categories: list[str]

    @classmethod
    def build(cls, pois: Pois, grid: AnalysisGrid) -> "PoiIndex":
        cells = grid.flat_cells_of(pois.xs, pois.ys)
        on_grid = cells >= 0
        return cls(cells[on_grid], pois.codes[on_grid], pois.categories)


def items_by_day(
    cells: np.ndarray, burns: np.ndarray | list[np.ndarray], n_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """The items whose cell burns on each day, day by day.

    ``cells[k]`` is item k's flat cell id (row * n_cols + col). ``burns``,
    here and in the ``*_by_day`` accountants, gives each day's cells: the
    first-burn-day raster (the day index each cell first burned, -1 where
    none did) or one boolean mask per day, such as the active extents. Day
    i's items are ``items[offsets[i]:offsets[i + 1]]``, ascending.
    """
    if isinstance(burns, np.ndarray):
        day = burns.ravel()[cells]
        items = np.flatnonzero(day >= 0)
        items = items[np.argsort(day[items], kind="stable")]
        counts = np.bincount(day[items], minlength=n_days)
    else:
        hits = [np.flatnonzero(bits.ravel()[cells]) for bits in burns]
        items = np.concatenate([np.zeros(0, dtype=np.int64), *hits])
        counts = [len(h) for h in hits]
    return items, run_offsets(counts)


def item_days(offsets: np.ndarray) -> np.ndarray:
    """The day of each item of :func:`items_by_day`, from its offsets."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _fsum_runs(values: np.ndarray, starts: np.ndarray) -> list[float]:
    """The ``math.fsum`` of each run of ``values`` from one start to the next."""
    values = values.tolist()
    bounds = np.append(starts, len(values)).tolist()
    return [math.fsum(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def land_use_loss_by_day(
    burns: np.ndarray | list[np.ndarray],
    n_days: int,
    landcover: CategoryRaster,
    costs: CostModel,
) -> Iterator[dict[int, int]]:
    """Cents lost per land class in each day's cells, yielded day by day.

    Cents are rounded once per cell, ``to_cents(cost * cell area)``; keys
    come in sorted class order, and nodata cells cost nothing. A burned
    class with no land cost raises when the first day that burns it is
    reached, naming the smallest such class of that day.
    """
    cells, offsets = items_by_day(np.arange(landcover.cells.size), burns, n_days)
    classes, index = np.unique(landcover.cells.ravel()[cells], return_inverse=True)
    n = len(classes)
    counts = np.bincount(item_days(offsets) * n + index, minlength=n_days * n).reshape(n_days, n)
    area = landcover.grid.cell_area
    for row in counts:
        out: dict[int, int] = {}
        burned = np.flatnonzero(row)
        for code, count in zip(classes[burned].tolist(), row[burned].tolist()):
            if code == landcover.nodata:
                continue
            if code not in costs.land_cost:
                raise UnpricedClassError(f"no land cost for class {code}")
            out[code] = to_cents(costs.land_cost[code] * area) * count
        yield out


def road_loss_by_day(
    index: RoadIndex, burns: np.ndarray | list[np.ndarray], n_days: int
) -> Iterator[tuple[dict[str, int], dict[str, float]]]:
    """Burned road cents and length per class in each day's cells, day by day.

    Cents are rounded once per piece and summed exactly, lengths with
    ``math.fsum``: neither depends on the order of the roads, and both
    dicts are keyed in sorted class order. An unpriced road class raises
    on the first day, whatever burns.
    """
    if index.unpriced is not None:
        raise UnpricedClassError(f"no road cost for class {index.unpriced!r}")
    items, offsets = items_by_day(index.cells, burns, n_days)
    n = len(index.classes)
    key = item_days(offsets) * n + index.codes[items]
    order = np.argsort(key, kind="stable")
    key, items = key[order], items[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    cents = (
        sum_cents(index.cents[items], lambda c: np.add.reduceat(c, starts)).tolist()
        if starts.size else []
    )
    metres = _fsum_runs(index.lengths[items], starts)
    day, code = np.divmod(key[starts], n)
    cuts = np.searchsorted(day, np.arange(n_days + 1)).tolist()
    for a, b in zip(cuts, cuts[1:]):
        names = [index.classes[c] for c in code[a:b].tolist()]
        yield dict(zip(names, cents[a:b])), dict(zip(names, metres[a:b]))


def poi_exposure_by_day(
    index: PoiIndex, burns: np.ndarray | list[np.ndarray], n_days: int
) -> list[dict[str, int]]:
    """Counts of the POIs in each day's cells per category, keyed in sorted
    order whatever the order of the POIs."""
    items, offsets = items_by_day(index.cells, burns, n_days)
    n = len(index.categories)
    key = item_days(offsets) * n + index.codes[items]
    counts = np.bincount(key, minlength=n_days * n).reshape(n_days, n)
    return [
        {index.categories[k]: count for k, count in enumerate(row) if count}
        for row in counts.tolist()
    ]


def population_exposure_by_day(
    popgrid: RealRaster, burns: np.ndarray | list[np.ndarray], n_days: int
) -> np.ndarray:
    """Persons in each day's cells.

    Each day's cells are summed in row-major order, with the bits of that
    day's ``ndarray.sum()``.
    """
    cells, offsets = items_by_day(np.arange(popgrid.cells.size), burns, n_days)
    return segment_sums(popgrid.cells.ravel()[cells], offsets[:-1], np.diff(offsets))


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
        cls, buildings: PolygonLayer, grid: AnalysisGrid, costs: CostModel
    ) -> "BuildingIndex":
        """The index of the buildings whose footprints are the features of
        ``buildings``; a building's charge is ``to_cents(area * building_cost)``,
        with the area :meth:`PolygonLayer.areas` gives.
        """
        cells, offsets = ragged_cell_indices(*buildings, grid)
        covered = np.diff(offsets) > 0
        cents = to_cents(buildings.areas()[covered] * costs.building_cost)
        return cls(cells, offsets[:-1][covered], cents)


def building_loss_by_day(
    index: BuildingIndex, first_burn: np.ndarray, n_days: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cents and count of buildings charged on each of ``n_days`` days.

    A building is charged once, on the first day any of its footprint
    cells burns: the minimum of ``first_burn`` over its cells. Cents are
    rounded once per building and summed exactly, in any building order.
    """
    if index.starts.size == 0:
        return np.zeros(n_days, dtype=np.int64), np.zeros(n_days, dtype=np.int64)
    day = first_burn.ravel()[index.cells].astype(np.int64)
    day[day < 0] = n_days
    charge_day = np.minimum.reduceat(day, index.starts)
    burned = charge_day < n_days

    def by_day(part: np.ndarray) -> np.ndarray:
        sums = np.zeros(n_days, dtype=np.int64)
        np.add.at(sums, charge_day[burned], part)
        return sums

    return sum_cents(index.cents[burned], by_day), np.bincount(charge_day[burned], minlength=n_days)


def demographic_breakdown_by_day(
    day: np.ndarray,
    block_ids: list[str],
    exposed: np.ndarray,
    n_days: int,
    block_tracts: dict[str, str],
    tract_demo: dict[str, TractDemographics],
) -> Iterator[Demographics]:
    """Each day's exposed persons by gender, age and race, day by day.

    Block ``block_ids[j]`` exposes ``exposed[j]`` persons on day
    ``day[j]``, each day's blocks in order. Each (day, tract) is summed
    with ``math.fsum``, whatever the order of its blocks, and the tracts
    are weighted by their shares in sorted order for all days at once: a
    tract absent on a day adds 0.0, which leaves a total of non-negative
    terms as it is. A block with no tract, then a tract with no
    demographics, raises when the first day that exposes it is reached.
    """
    hit = exposed != 0.0
    day, exposed = day[hit], exposed[hit]
    ids = list(itertools.compress(block_ids, hit))
    tracts = list(map(block_tracts.get, ids))
    names = sorted(set(tracts) - {None})
    code = {name: k for k, name in enumerate(names)}
    tract = np.fromiter(map(code.get, tracts, itertools.repeat(-1)), np.int64, len(ids))
    unmapped = np.flatnonzero(tract < 0)
    key = day * len(names) + tract
    order = np.flatnonzero(tract >= 0)
    order = order[np.argsort(key[order], kind="stable")]
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    per_tract = np.zeros((n_days, len(names)))
    per_tract.flat[key[starts]] = _fsum_runs(exposed[order], starts)
    present = np.zeros((n_days, len(names)), dtype=bool)
    present.flat[key[starts]] = True
    lacking = np.array([name not in tract_demo for name in names], dtype=bool)
    width = sum(map(len, DEMOGRAPHIC_GROUPS.values()))
    shares = [
        [getattr(tract_demo[name], group)[k] for group, keys in DEMOGRAPHIC_GROUPS.items()
         for k in keys] if name in tract_demo else [0.0] * width
        for name in names
    ]
    totals = np.zeros((n_days, width))
    for t, row in enumerate(shares):
        totals += per_tract[:, t, None] * np.array(row)
    unmapped_day = day[unmapped]
    for i, row in enumerate(totals.tolist()):
        u = np.searchsorted(unmapped_day, i)
        if u < len(unmapped) and unmapped_day[u] == i:
            raise MissingTractError(f"block {ids[unmapped[u]]} has no tract mapping")
        missing = np.flatnonzero(present[i] & lacking)
        if missing.size:
            raise MissingTractError(f"no demographics for tract {names[missing[0]]}")
        counts = iter(row)
        yield Demographics(
            **{group: dict(zip(keys, counts)) for group, keys in DEMOGRAPHIC_GROUPS.items()}
        )


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
