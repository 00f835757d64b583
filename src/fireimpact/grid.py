"""Analysis grid and raster containers.

Every raster, mask, and overlay in the pipeline lives on a shared
:class:`AnalysisGrid`: a north-up rectangular grid of square cells in a
local planar frame. Rasters are stored row-major with row 0 the
northernmost row (ESRI ASCII ordering). Cell membership everywhere uses
the cell-center rule with half-open intervals, so a point exactly on a
cell boundary belongs to the cell to its east / north of it exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ValidationError


@dataclass(frozen=True)
class AnalysisGrid:
    """Georeferencing of the analysis grid.

    ``origin_x`` / ``origin_y`` are the coordinates of the lower-left
    (south-west) grid corner in meters, matching the ESRI ASCII
    ``xllcorner`` / ``yllcorner`` convention.
    """

    origin_x: float
    origin_y: float
    cell_size: float = 20.0
    n_rows: int = 1
    n_cols: int = 1

    def __post_init__(self) -> None:
        if not (self.cell_size > 0):
            raise ValidationError(f"cell_size must be > 0, got {self.cell_size}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValidationError(
                f"grid must have at least one cell, got {self.n_rows}x{self.n_cols}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def cell_area(self) -> float:
        """Cell area in square meters (400 at the default 20 m size)."""
        return self.cell_size * self.cell_size

    @property
    def max_x(self) -> float:
        return self.origin_x + self.n_cols * self.cell_size

    @property
    def max_y(self) -> float:
        return self.origin_y + self.n_rows * self.cell_size

    def center_x(self, col: int) -> float:
        return self.origin_x + (col + 0.5) * self.cell_size

    def center_y(self, row: int) -> float:
        return self.origin_y + (self.n_rows - row - 0.5) * self.cell_size

    def center_xs(self) -> np.ndarray:
        """x coordinates of all cell-center columns, west to east."""
        return self.origin_x + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def center_ys(self) -> np.ndarray:
        """y coordinates of all cell-center rows, north (row 0) to south."""
        rows = np.arange(self.n_rows)
        return self.origin_y + (self.n_rows - rows - 0.5) * self.cell_size

    def cell_of(self, x: float, y: float) -> tuple[int, int] | None:
        """Return (row, col) of the cell containing (x, y), or None outside.

        Half-open in both axes: a point on the shared boundary of two
        cells belongs to the cell with the larger x (resp. larger y).
        """
        col = math.floor((x - self.origin_x) / self.cell_size)
        band = math.floor((y - self.origin_y) / self.cell_size)
        row = self.n_rows - 1 - band
        if 0 <= row < self.n_rows and 0 <= col < self.n_cols:
            return (row, col)
        return None

    def flat_cells_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`cell_of` of each point as a flat cell id (row * n_cols + col), -1 outside."""
        col = np.floor((xs - self.origin_x) / self.cell_size)
        band = np.floor((ys - self.origin_y) / self.cell_size)
        inside = (0 <= col) & (col < self.n_cols) & (0 <= band) & (band < self.n_rows)
        cells = np.full(len(col), -1, dtype=np.int64)
        row = self.n_rows - 1 - band[inside].astype(np.int64)
        cells[inside] = row * self.n_cols + col[inside].astype(np.int64)
        return cells

    def corner_x(self, j: int) -> float:
        """x coordinate of the vertical grid line with corner index j."""
        return self.origin_x + j * self.cell_size

    def corner_y(self, i: int) -> float:
        """y coordinate of the horizontal grid line with corner index i (0 = north edge)."""
        return self.origin_y + (self.n_rows - i) * self.cell_size

    def corner_xs(self) -> np.ndarray:
        """:meth:`corner_x` of every corner index j = 0 .. n_cols."""
        return self.origin_x + np.arange(self.n_cols + 1) * self.cell_size

    def corner_ys(self) -> np.ndarray:
        """:meth:`corner_y` of every corner index i = 0 .. n_rows."""
        return self.origin_y + (self.n_rows - np.arange(self.n_rows + 1)) * self.cell_size


@dataclass(frozen=True)
class CategoryRaster:
    """Integer class codes per cell (NLCD legend codes plus a nodata code)."""

    grid: AnalysisGrid
    cells: np.ndarray
    nodata: int = -1

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int32)
        if cells.shape != self.grid.shape:
            raise AlignmentError(
                f"cells shape {cells.shape} does not match grid {self.grid.shape}"
            )
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class RealRaster:
    """Real value per cell; units are context-dependent (density, persons)."""

    grid: AnalysisGrid
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.float64)
        if cells.shape != self.grid.shape:
            raise AlignmentError(
                f"cells shape {cells.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(cells)):
            raise ValidationError("real raster contains non-finite values")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class Mask:
    """Boolean membership per cell."""

    grid: AnalysisGrid
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != self.grid.shape:
            raise AlignmentError(
                f"bits shape {bits.shape} does not match grid {self.grid.shape}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def empty(cls, grid: AnalysisGrid) -> "Mask":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: AnalysisGrid) -> "Mask":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    def popcount(self) -> int:
        return int(np.count_nonzero(self.bits))


def value_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending int64 values and each key's index into them (``values[index] == keys``).

    While the keys span no more values than there are keys, the values are
    that whole span, absent ones included, and no sort runs; otherwise
    they are the distinct keys.
    """
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo < keys.size:
        return np.arange(lo, hi + 1), keys - lo
    return np.unique(keys, return_inverse=True)


def resample_nearest(src: CategoryRaster, target: AnalysisGrid) -> CategoryRaster:
    """Resample a categorical raster onto ``target`` by cell-center lookup.

    Each target cell takes the class of the source cell containing the
    target cell's center; target cells whose centers fall outside the
    source extent get the source nodata code.
    """
    sg = src.grid
    xs = target.center_xs()
    ys = target.center_ys()
    cols = np.floor((xs - sg.origin_x) / sg.cell_size).astype(np.int64)
    bands = np.floor((ys - sg.origin_y) / sg.cell_size).astype(np.int64)
    rows = sg.n_rows - 1 - bands

    out = np.full(target.shape, src.nodata, dtype=np.int32)
    ok_col = (cols >= 0) & (cols < sg.n_cols)
    ok_row = (rows >= 0) & (rows < sg.n_rows)
    valid = np.outer(ok_row, ok_col)
    rr = np.clip(rows, 0, sg.n_rows - 1)
    cc = np.clip(cols, 0, sg.n_cols - 1)
    sampled = src.cells[np.ix_(rr, cc)]
    out[valid] = sampled[valid]
    return CategoryRaster(target, out, nodata=src.nodata)

