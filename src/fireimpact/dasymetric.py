"""Land-cover-weighted downscaling of block populations to the grid.

Each census block's population is spread over the cells its boundary
captures, proportionally to the relative weight of each cell's land
cover class, so a block's total is preserved exactly (the pycnophylactic
property) and uninhabitable classes receive nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownClassError, ValidationError
from .geometry import PolygonLayer, ragged_cell_indices, segment_sums
from .grid import AnalysisGrid, CategoryRaster, RealRaster, value_index

# Persons per cell; semantically distinct from other real rasters.
PopulationGrid = RealRaster

# NLCD legend code -> relative weight. Water and barren land hold nobody;
# developed classes dominate.
DEFAULT_NLCD_WEIGHTS: dict[int, float] = {
    11: 0,  # open water
    21: 26,  # developed, open space
    22: 10,  # developed, low intensity
    23: 15,  # developed, medium intensity
    24: 46,  # developed, high intensity
    31: 0,  # barren land
    41: 3,  # deciduous forest
    42: 3,  # evergreen forest
    43: 4,  # mixed forest
    52: 3,  # shrub/scrub
    71: 4,  # grassland/herbaceous
    81: 5,  # pasture/hay
    82: 10,  # cultivated crops
    90: 1,  # woody wetlands
    95: 1,  # emergent herbaceous wetlands
}

_UNINHABITABLE_CODES = (11, 31)


@dataclass(frozen=True)
class WeightTable:
    """Relative allocation weight per land cover class code."""

    weights: dict[int, float]

    def __post_init__(self) -> None:
        w = {int(k): float(v) for k, v in self.weights.items()}
        if not w:
            raise ValidationError("weight table is empty")
        if all(v <= 0 for v in w.values()):
            raise ValidationError("weight table needs at least one positive weight")
        for code, v in w.items():
            if v < 0:
                raise ValidationError(f"negative weight {v} for class {code}")
        for code in _UNINHABITABLE_CODES:
            if w.get(code, 0) != 0:
                raise ValidationError(
                    f"class {code} (water/barren) must carry weight 0, got {w[code]}"
                )
        object.__setattr__(self, "weights", w)

    @classmethod
    def default(cls) -> "WeightTable":
        return cls(dict(DEFAULT_NLCD_WEIGHTS))


@dataclass(frozen=True, eq=False)
class Blocks:
    """Census blocks as columns: block k is ``ids[k]``, ``pop[k]``,
    ``tracts[k]`` and feature k of ``parts``. Rows are assumed valid, as
    ``io_formats.read_blocks`` checks them.
    """

    ids: list[str]
    pop: np.ndarray
    tracts: list[str]
    parts: PolygonLayer

    def __len__(self) -> int:
        return len(self.ids)


# DownscaleReport.fallback codes: none, centroid cell, uniform spread.
FALLBACKS = (None, "centroid", "uniform")
CENTROID, UNIFORM = 1, 2


@dataclass
class BlockAllocation:
    """How one block was placed on the grid."""

    block_id: str
    rows: np.ndarray
    cols: np.ndarray
    fallback: str | None = None  # None | "uniform" | "centroid"


@dataclass
class DownscaleReport:
    """Side record of a downscale run: placements, fallbacks, overlaps.

    Block k's cells are ``rows[starts[k]:starts[k + 1]]`` and the same
    slice of ``cols``, the last block's running to the end; no block's run
    is empty. ``fallback[k]`` indexes :data:`FALLBACKS`.
    """

    block_ids: list[str] = field(default_factory=list)
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cols: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    starts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fallback: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    overlap_cells: int = 0
    # Aligned with rows and cols, filled by `downscale`: the persons each
    # block put in each of its cells. A centroid fallback block's one entry
    # is its own pop, whichever other fallback blocks share the cell.
    pop: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def allocations(self) -> list[BlockAllocation]:
        """One record per block, built from the columns on each access."""
        bounds = np.append(self.starts, self.rows.size).tolist()
        return [
            BlockAllocation(block_id, self.rows[a:b], self.cols[a:b], FALLBACKS[kind])
            for block_id, a, b, kind in zip(
                self.block_ids, bounds, bounds[1:], self.fallback.tolist()
            )
        ]

    def fallback_ids(self) -> set[str]:
        return {self.block_ids[k] for k in np.flatnonzero(self.fallback).tolist()}


def allocation_factor_raster(
    landcover: CategoryRaster, w: WeightTable
) -> RealRaster:
    """Per-cell relative weight from the class code; nodata cells get 0."""
    codes, index = value_index(landcover.cells.astype(np.int64))
    lut = np.zeros(len(codes))
    present = np.flatnonzero(np.bincount(index.ravel(), minlength=len(codes)))
    for k, code in zip(present.tolist(), codes[present].tolist()):
        if code == landcover.nodata:
            continue
        if code not in w.weights:
            raise UnknownClassError(f"land cover class {code} has no weight entry")
        lut[k] = w.weights[code]
    return RealRaster(landcover.grid, lut[index].reshape(landcover.grid.shape))


def rasterize_blocks(blocks: Blocks, grid: AnalysisGrid) -> DownscaleReport:
    """Assign grid cells to blocks by the cell-center rule, first wins.

    A cell whose center several blocks capture goes to the earliest of
    them, through one owner raster of block indices; the cells the others
    lose are ``overlap_cells``. A block left with no cell falls back to the
    one cell containing its centroid (clamped into the grid), so no
    population is lost at the grid resolution. No other block keeps that
    cell, whatever the order, so each block's cells hold its population
    alone; a block that so loses its last cell falls back in turn.
    """
    n = len(blocks)
    cells, offsets = ragged_cell_indices(*blocks.parts, grid)
    block = np.repeat(np.arange(n, dtype=np.int32), np.diff(offsets))
    owner = np.full(grid.n_rows * grid.n_cols, n, dtype=np.int32)
    np.minimum.at(owner, cells, block)
    kept = owner[cells] == block
    overlap_cells = kept.size - int(np.count_nonzero(kept))
    extra = np.full(n, -1, dtype=np.int64)  # each fallback block's centroid cell
    centroid_cells = None
    while True:
        sizes = np.bincount(block[kept], minlength=n)
        fallback = np.flatnonzero((sizes == 0) & (extra < 0))
        if fallback.size == 0:
            break
        if centroid_cells is None:
            centroid_cells = _centroid_cells(blocks.parts, grid)
        extra[fallback] = centroid_cells[fallback]
        owner[extra[fallback]] = -1  # no block keeps a centroid cell
        kept = owner[cells] == block
    # Free each array once done: a run of `assess` reaches its memory peak here.
    del owner, block
    cells = cells[kept]
    del kept
    fallback = np.flatnonzero(extra >= 0)
    cells = np.insert(cells, (np.cumsum(sizes) - sizes)[fallback], extra[fallback])
    sizes[fallback] = 1
    rows, cols = np.divmod(cells, grid.n_cols)
    del cells
    return DownscaleReport(
        blocks.ids, rows, cols, np.cumsum(sizes) - sizes,
        np.where(extra >= 0, CENTROID, 0).astype(np.int8), overlap_cells,
    )


def _centroid_cells(parts: PolygonLayer, grid: AnalysisGrid) -> np.ndarray:
    """The flat cell of each feature's centroid, clamped into the grid."""
    cx, cy = parts.centroids()
    with np.errstate(invalid="ignore"):  # a feature without polygons has no centroid
        col = np.clip((cx - grid.origin_x) // grid.cell_size, 0, grid.n_cols - 1)
        band = np.clip((cy - grid.origin_y) // grid.cell_size, 0, grid.n_rows - 1)
        return (grid.n_rows - 1 - band.astype(np.int64)) * grid.n_cols + col.astype(np.int64)


def downscale(
    blocks: Blocks,
    landcover: CategoryRaster,
    w: WeightTable,
    grid: AnalysisGrid,
) -> tuple[PopulationGrid, DownscaleReport]:
    """Allocate block populations over cells by relative land-cover weight.

    Within a block, cell i receives pop * RA(i) / sum(RA over the block);
    blocks whose weights sum to zero fall back to a uniform spread so no
    population is dropped (flagged in the report). A centroid cell, which
    no other block keeps, gets the exactly rounded sum of the populations
    of the fallback blocks in it, in any block order.
    """
    if landcover.grid != grid:
        raise ValidationError("landcover raster is not on the analysis grid")
    ra = allocation_factor_raster(landcover, w)
    report = rasterize_blocks(blocks, grid)
    sizes = np.diff(report.starts, append=report.rows.size)
    share = ra.cells[report.rows, report.cols]
    total = segment_sums(share, report.starts)
    centroid = report.fallback == CENTROID
    report.fallback[~centroid & ~(total > 0.0)] = UNIFORM
    with np.errstate(divide="ignore", invalid="ignore"):
        share /= np.repeat(total, sizes)
    share *= np.repeat(blocks.pop, sizes)  # pop * (RA / total), one rounding each
    other = report.fallback != 0
    share[np.repeat(other, sizes)] = np.repeat(
        np.where(centroid, blocks.pop, blocks.pop / sizes)[other], sizes[other]
    )
    report.pop = share
    out = np.zeros(grid.shape)
    out[report.rows, report.cols] = share  # no two blocks share a cell but a centroid one
    centroid_pops: dict[tuple[int, int], list[float]] = {}
    for k in np.flatnonzero(centroid).tolist():
        cell = int(report.rows[report.starts[k]]), int(report.cols[report.starts[k]])
        centroid_pops.setdefault(cell, []).append(float(blocks.pop[k]))
    for cell, pops in centroid_pops.items():
        out[cell] = math.fsum(pops)
    return RealRaster(grid, out), report


@dataclass(frozen=True, eq=False)
class MassReport:
    """Per-block mass check as columns; ``fallback`` indexes :data:`FALLBACKS`."""

    block_ids: list[str]
    pop: np.ndarray
    allocated: np.ndarray
    rel_err: np.ndarray
    fallback: np.ndarray

    def max_rel_err(self) -> float:
        """Largest relative error over non-fallback blocks."""
        errs = self.rel_err[self.fallback == 0]
        return float(errs.max()) if errs.size else 0.0

    def failures(self) -> np.ndarray:
        """The indices of the non-fallback blocks whose relative error exceeds 1e-9."""
        return np.flatnonzero((self.fallback == 0) & (self.rel_err > 1e-9))


def validate_mass(
    blocks: Blocks,
    popgrid: PopulationGrid,
    report: DownscaleReport,
) -> MassReport:
    """Per-block |allocated - pop| / max(pop, 1) over the block's cells.

    ``report`` is the one :func:`downscale` returned with ``popgrid``: it
    names each block's cells and exempts its fallback blocks. Each block's
    ``allocated`` has the bits of summing its own cells with ``ndarray.sum``.
    """
    pop = blocks.pop
    allocated = segment_sums(popgrid.cells[report.rows, report.cols], report.starts)
    rel_err = np.abs(allocated - pop) / np.maximum(pop, 1.0)
    return MassReport(report.block_ids, pop, allocated, rel_err, report.fallback.copy())
