"""Daily fire extent reconstruction from thermal-detection points.

Detections for each date are smoothed into a Gaussian density surface,
thresholded, and clipped to the official perimeter. One first-burn-day
raster per sequence gives the disjoint per-day new-burn masks and the
cumulative extents; each day's active extent is kept packed, one bit a
cell.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .errors import ValidationError
from .geometry import Point
from .grid import AnalysisGrid, Mask, RealRaster

ThresholdMode = Literal["relative_to_daily_max", "absolute"]

Confidence = Literal["low", "nominal", "high"]
CONFIDENCE_CODES: tuple[Confidence, ...] = ("low", "nominal", "high")


@dataclass(frozen=True)
class Detection:
    """One satellite thermal-anomaly point, projected to the grid frame."""

    location: Point
    date: dt.date
    frp: float | None = None
    confidence: Confidence | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.location.x) and math.isfinite(self.location.y)):
            raise ValidationError("detection has non-finite coordinates")
        if self.frp is not None and not (self.frp >= 0):
            raise ValidationError(f"frp must be >= 0, got {self.frp}")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as columns, one row per detection in file order.

    ``day`` holds ``date.toordinal()``, ``frp`` NaN where a detection has
    none, and ``confidence`` an index into :data:`CONFIDENCE_CODES`, -1
    where it has none. Rows are assumed valid, as :class:`Detection`
    checks them. Indexing with a slice, mask or index array selects rows;
    iterating yields :class:`Detection` objects.
    """

    x: np.ndarray
    y: np.ndarray
    day: np.ndarray
    frp: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, rows) -> Detections:
        return Detections(
            self.x[rows], self.y[rows], self.day[rows], self.frp[rows], self.confidence[rows]
        )

    def __iter__(self) -> Iterator[Detection]:
        for x, y, day, frp, code in zip(
            self.x.tolist(), self.y.tolist(), self.day.tolist(), self.frp.tolist(),
            self.confidence.tolist(),
        ):
            yield Detection(
                Point(x, y),
                dt.date.fromordinal(day),
                None if math.isnan(frp) else frp,
                None if code < 0 else CONFIDENCE_CODES[code],
            )

    def by_date(self) -> dict[dt.date, Detections]:
        """The rows of each date, in their order."""
        order = np.argsort(self.day, kind="stable")
        days = self.day[order]
        bounds = np.flatnonzero(np.diff(days, prepend=-1, append=-1))
        return {
            dt.date.fromordinal(int(days[lo])): self[order[lo:hi]]
            for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        }


@dataclass(frozen=True)
class KdeParams:
    """Gaussian KDE and thresholding parameters.

    The default bandwidth of 750 m is twice the 375 m sensor footprint;
    the default threshold keeps cells at or above 5% of the day's peak
    density, which stays meaningful across days with very different
    detection counts.
    """

    bandwidth_m: float = 750.0
    cutoff_sigmas: float = 4.0
    threshold_mode: ThresholdMode = "relative_to_daily_max"
    threshold_value: float = 0.05
    frp_weighted: bool = False

    def __post_init__(self) -> None:
        if not (self.bandwidth_m > 0):
            raise ValidationError(f"bandwidth_m must be > 0, got {self.bandwidth_m}")
        if not (self.cutoff_sigmas >= 3):
            raise ValidationError(
                f"cutoff_sigmas must be >= 3, got {self.cutoff_sigmas}"
            )
        if self.threshold_mode == "relative_to_daily_max":
            if not (0 < self.threshold_value < 1):
                raise ValidationError(
                    "relative threshold must lie in (0, 1), "
                    f"got {self.threshold_value}"
                )
        elif self.threshold_value < 0:
            raise ValidationError("absolute threshold must be >= 0")


@dataclass(frozen=True)
class DailyPerimeter:
    """Fire extent bookkeeping for one date on ``grid``.

    ``first_burn`` is shared, read-only, by every day of the sequence: the
    int16 index of the day each cell first burned, -1 where none did.
    ``index`` is this day's position in the sequence. ``packed_active``
    holds the day's full thresholded-and-clipped mask as ``np.packbits`` of
    its cells in row-major order, one bit a cell; :attr:`active` unpacks
    it, and :meth:`from_active` packs it. Outlines are traced from
    ``new_burn`` only where they are written
    (:func:`fireimpact.geometry.trace_mask_rings`).
    """

    date: dt.date
    index: int
    first_burn: np.ndarray
    grid: AnalysisGrid
    packed_active: np.ndarray

    @classmethod
    def from_active(
        cls, date: dt.date, index: int, first_burn: np.ndarray, active: Mask
    ) -> DailyPerimeter:
        """The day whose full thresholded-and-clipped mask is ``active``."""
        return cls(date, index, first_burn, active.grid, np.packbits(active.bits))

    @property
    def active(self) -> Mask:
        """The day's full thresholded-and-clipped mask."""
        g = self.grid
        bits = np.unpackbits(self.packed_active, count=g.n_rows * g.n_cols).view(bool)
        return Mask(g, bits.reshape(g.shape))

    @property
    def new_burn(self) -> Mask:
        """Cells first burned on this date."""
        return Mask(self.grid, self.first_burn == self.index)

    @property
    def cumulative(self) -> Mask:
        """Cells burned on this date or earlier: the union of new burns to date."""
        first = self.first_burn
        return Mask(self.grid, (first >= 0) & (first <= self.index))


# When any KDE window holds more cells than this, every point is added on
# its own, by one slice update; otherwise points are added in batches.
SMALL_WINDOW_CELLS = 1024
# A batch's points times the largest window rows times the largest window
# columns stays within this many cells, bounding the padded temporaries.
BATCH_CELLS = 32 * 1024


def _batch_bounds(n_rows: np.ndarray, n_cols: np.ndarray) -> np.ndarray:
    """Bounds ``[0, ..., n]`` of the consecutive batches the points are added in.

    If the largest window holds more than :data:`SMALL_WINDOW_CELLS` cells,
    every point is a batch of its own. Otherwise every batch but the last
    holds ``BATCH_CELLS // (largest rows * largest columns)`` points, at
    least one.
    """
    n = len(n_rows)
    step = 1
    if n and int((n_rows * n_cols).max()) <= SMALL_WINDOW_CELLS:
        step = max(1, BATCH_CELLS // (int(n_rows.max()) * int(n_cols.max())))
    return np.append(np.arange(0, n, step), n)


def kde_surface(points: Detections, grid: AnalysisGrid, params: KdeParams) -> RealRaster:
    """Gaussian kernel density of detection points at cell centers, per m².

    Each point contributes w / (2*pi*h^2) * exp(-d^2 / (2*h^2)) out to
    ``cutoff_sigmas * h``; beyond that the contribution is dropped. With
    ``frp_weighted`` the weights are frp / mean(frp), otherwise 1.

    Points are added in consecutive batches (:func:`_batch_bounds`): when
    windows are wide, one slice update per point, otherwise one padded
    kernel block and one ``np.add.at`` per batch. ``np.add.at`` adds
    repeated cells one after another in index order, so every cell sums
    its terms in file order from 0.0, and the surface is bit for bit the
    one a loop adding one point at a time gives.
    """
    values = np.zeros(grid.shape)
    if not len(points):
        return RealRaster(grid, values)

    if params.frp_weighted:
        if np.isnan(points.frp).any():
            raise ValidationError("frp_weighted requires frp on every detection")
        mean_frp = math.fsum(points.frp.tolist()) / len(points)
        if mean_frp <= 0:
            raise ValidationError("frp_weighted requires a positive mean frp")
        weights = points.frp / mean_frp
    else:
        weights = np.ones(len(points))

    h = params.bandwidth_m
    radius = params.cutoff_sigmas * h
    norm = 1.0 / (2.0 * math.pi * h * h)
    xs = grid.center_xs()
    ys = grid.center_ys()
    inv_2h2 = 1.0 / (2.0 * h * h)
    r2 = radius * radius

    # Every point's window of rows and columns; ys decreases with row index.
    pxs, pys = points.x, points.y
    ys_up = ys[::-1]
    c_lo = np.searchsorted(xs, pxs - radius, side="left")
    c_hi = np.searchsorted(xs, pxs + radius, side="right")
    r_lo = grid.n_rows - np.searchsorted(ys_up, pys + radius, side="right")
    r_hi = grid.n_rows - np.searchsorted(ys_up, pys - radius, side="left")
    hit = (c_lo < c_hi) & (r_lo < r_hi)
    pxs, pys, wn = pxs[hit], pys[hit], weights[hit] * norm
    c_lo, c_hi, r_lo, r_hi = c_lo[hit], c_hi[hit], r_lo[hit], r_hi[hit]
    n_c, n_r = c_hi - c_lo, r_hi - r_lo

    flat = values.reshape(-1)
    bounds = _batch_bounds(n_r, n_c)
    # Python scalars for the one-point batches, in order: they pay per-point overhead.
    lone = bounds[:-1][np.diff(bounds) == 1]
    one = zip(*(a[lone].tolist() for a in (pxs, pys, wn, c_lo, c_hi, r_lo, r_hi)))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if hi - lo == 1:
            px, py, w, c0, c1, r0, r1 = next(one)
            dx2 = (xs[c0:c1] - px) ** 2
            dy2 = (ys[r0:r1] - py) ** 2
            d2 = dy2[:, None] + dx2[None, :]
            kernel = w * np.exp(-d2 * inv_2h2)
            kernel[d2 > r2] = 0.0
            values[r0:r1, c0:c1] += kernel
            continue
        # Pad every window to the batch's largest; padded rows and columns
        # repeat the last real one and add 0.0.
        steps_r = np.arange(n_r[lo:hi].max())
        steps_c = np.arange(n_c[lo:hi].max())
        pad_r = steps_r >= n_r[lo:hi, None]
        pad_c = steps_c >= n_c[lo:hi, None]
        rows = np.minimum(r_lo[lo:hi, None] + steps_r, r_hi[lo:hi, None] - 1)
        cols = np.minimum(c_lo[lo:hi, None] + steps_c, c_hi[lo:hi, None] - 1)
        dx2 = (xs[cols] - pxs[lo:hi, None]) ** 2
        dy2 = (ys[rows] - pys[lo:hi, None]) ** 2
        d2 = dy2[:, :, None] + dx2[:, None, :]
        kernel = wn[lo:hi, None, None] * np.exp(-d2 * inv_2h2)
        kernel[(d2 > r2) | pad_r[:, :, None] | pad_c[:, None, :]] = 0.0
        cells = rows[:, :, None] * grid.n_cols + cols[:, None, :]
        np.add.at(flat, cells.ravel(), kernel.ravel())

    return RealRaster(grid, values)


def threshold_surface(surface: RealRaster, params: KdeParams) -> Mask:
    """Cells at or above the threshold; zero density never reads as burned."""
    if params.threshold_mode == "relative_to_daily_max":
        peak = float(surface.cells.max())
        if peak <= 0.0:
            return Mask.empty(surface.grid)
        cut = params.threshold_value * peak
    else:
        cut = params.threshold_value
    return Mask(surface.grid, (surface.cells >= cut) & (surface.cells > 0.0))


def _check_day_count(n_days: int) -> None:
    """The int16 first-burn-day raster indexes at most 32767 days."""
    if n_days > np.iinfo(np.int16).max:
        raise ValidationError(f"{n_days} days exceed the first-burn-day raster")


def event_dates(detections: Detections) -> list[dt.date]:
    """Contiguous calendar range spanning all detections.

    A span longer than the first-burn-day raster can index is rejected
    before any date is built.
    """
    days = detections.day
    if not days.size:
        return []
    first, last = int(days.min()), int(days.max())
    _check_day_count(last - first + 1)
    return [dt.date.fromordinal(d) for d in range(first, last + 1)]


def extract_daily_perimeters(
    detections_by_date: dict[dt.date, Detections],
    clip: Mask,
    params: KdeParams,
    dates: list[dt.date],
) -> list[DailyPerimeter]:
    """Build the daily new-burn / cumulative sequence on ``clip``'s grid,
    clipped to it (the cells of the official perimeter).

    ``dates`` fixes the output sequence, so that several runs line up on
    one event window (:func:`event_dates` of all their detections). Dates
    with no detections yield empty masks but stay in the sequence. An
    empty ``clip``, a perimeter that captures no cell center of the grid,
    is a ValidationError: nothing in it can burn.
    """
    if sorted(dates) != list(dates):
        raise ValidationError("dates must be sorted ascending")
    _check_day_count(len(dates))

    grid = clip.grid
    if not clip.bits.any():
        raise ValidationError("official perimeter captures no cell center of the analysis grid")
    first = np.full(grid.shape, -1, dtype=np.int16)
    out: list[DailyPerimeter] = []
    for i, day in enumerate(dates):
        points = detections_by_date.get(day)
        if points is None:  # no detections, no burn
            active = np.zeros(grid.shape, dtype=bool)
        else:
            active = threshold_surface(kde_surface(points, grid, params), params).bits & clip.bits
        first[active & (first < 0)] = i
        out.append(DailyPerimeter.from_active(day, i, first, Mask(grid, active)))
    first.setflags(write=False)
    return out
