"""Planar geometry primitives and the vector/raster bridge.

All vector-on-raster overlays reduce to the cell-center rule: a cell
belongs to a polygon iff its center does (even-odd crossing count with
the PNPOLY half-open convention on edges), and polylines distribute
their length over the cells their segments traverse. Boundary tracing
inverts rasterization exactly: rasterizing the traced polygons
reproduces the source mask bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .grid import AnalysisGrid, Mask

EARTH_RADIUS_M = 6_371_000.0


class Point(NamedTuple):
    x: float
    y: float


def project_lonlat(
    lon: float, lat: float, origin_lon: float, origin_lat: float
) -> Point:
    """Equirectangular local projection of lon/lat degrees to meters.

    x scales by cos(origin_lat) so east-west distances are correct near
    the origin; accuracy is well under 0.1% at county scale.
    """
    k = math.pi / 180.0
    x = EARTH_RADIUS_M * (lon - origin_lon) * k * math.cos(origin_lat * k)
    y = EARTH_RADIUS_M * (lat - origin_lat) * k
    return Point(x, y)


def unproject_to_lonlat(
    p: Point, origin_lon: float, origin_lat: float
) -> tuple[float, float]:
    """Inverse of :func:`project_lonlat`; returns (lon, lat) degrees."""
    k = math.pi / 180.0
    lon = origin_lon + p.x / (EARTH_RADIUS_M * k * math.cos(origin_lat * k))
    lat = origin_lat + p.y / (EARTH_RADIUS_M * k)
    return (lon, lat)


def _normalize_ring(ring: list[Point]) -> list[Point]:
    """Close the ring (first == last) and reject degenerate rings."""
    pts = [Point(float(p[0]), float(p[1])) for p in ring]
    for p in pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise GeometryError("ring has non-finite coordinates")
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(set(pts)) < 3:
        raise GeometryError(f"ring needs >= 3 distinct vertices, got {len(set(pts))}")
    return pts + [pts[0]]


@dataclass(frozen=True)
class Polygon:
    """Closed exterior ring plus zero or more interior (hole) rings."""

    exterior: list[Point]
    holes: list[list[Point]] = field(default_factory=list)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exterior", _normalize_ring(self.exterior))
        object.__setattr__(self, "holes", [_normalize_ring(h) for h in self.holes])

    def rings(self) -> list[list[Point]]:
        return [self.exterior, *self.holes]


@dataclass(frozen=True)
class PolyLine:
    """Open chain of at least two points; consecutive vertices distinct."""

    vertices: list[Point]

    def __post_init__(self) -> None:
        pts = [Point(float(p[0]), float(p[1])) for p in self.vertices]
        if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in pts):
            raise GeometryError("polyline has non-finite coordinates")
        if len(pts) < 2:
            raise GeometryError("polyline needs >= 2 vertices")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise GeometryError("polyline has repeated consecutive vertices")
        object.__setattr__(self, "vertices", pts)

    def length(self) -> float:
        return sum(math.dist(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


def _ring_area_signed(ring: list[Point]) -> float:
    """Shoelace area; positive for counterclockwise rings (y up)."""
    s = 0.0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def polygon_area(poly: Polygon) -> float:
    """Area in square meters: |exterior| minus the holes."""
    area = abs(_ring_area_signed(poly.exterior))
    for hole in poly.holes:
        area -= abs(_ring_area_signed(hole))
    return area


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Even-odd membership of many points; interior rings subtract.

    The PNPOLY crossing test, one ring edge at a time over all points.
    Points exactly on a boundary resolve by the crossing count, which is
    deterministic and half-open: of two polygons sharing an edge, the
    point belongs to exactly one.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    inside = np.zeros(xs.shape, dtype=bool)
    for ring in poly.rings():
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            if y1 == y2:  # a horizontal edge crosses no point's ray
                continue
            crossed = (y1 > ys) != (y2 > ys)
            inside ^= crossed & (xs < x1 + (ys - y1) * (x2 - x1) / (y2 - y1))
    return inside


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Even-odd membership of one point (see :func:`points_in_polygon`)."""
    return bool(points_in_polygon(np.array([p.x]), np.array([p.y]), poly)[0])


def rasterize_polygons(polys: list[Polygon], grid: AnalysisGrid) -> Mask:
    """Mask of cells whose centers lie inside any of the polygons (even-odd)."""
    cells, _ = features_cell_indices([polys], grid)
    bits = np.zeros(grid.shape, dtype=bool)
    bits.ravel()[cells] = True
    return Mask(grid, bits)


# Features scanned together; bounds the transient per-crossing arrays.
FEATURE_BATCH = 256


def features_cell_indices(
    features: list[list[Polygon]], grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell ids (row * n_cols + col) of many features, in CSR form.

    A feature is a list of polygons (a building's footprints, a block's
    parts). Feature k's cells are ``cells[offsets[k]:offsets[k + 1]]``:
    the cells whose centers lie inside any of its polygons, ascending and
    without duplicates. Features are scanned in fixed batches, so one
    call rasterizes a whole layer with bounded transient memory.
    """
    counts = np.zeros(len(features), dtype=np.int64)
    chunks = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(features), FEATURE_BATCH):
        batch = features[start:start + FEATURE_BATCH]
        owner, cells = _scan_features(batch, grid)
        counts[start:start + len(batch)] = np.bincount(owner, minlength=len(batch))
        chunks.append(cells)
    offsets = np.zeros(len(features) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return np.concatenate(chunks), offsets


def _scan_features(
    features: list[list[Polygon]], grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(feature, flat cell) pairs inside the features, sorted and unique.

    Each polygon is scanned over the rows whose center y lies within its
    vertical extent. An edge is tested only on the rows its own extent
    spans, padded by one row against rounding, and kept only where the
    PNPOLY test ``(y1 > y) != (y2 > y)`` holds. Crossings are sorted by
    (polygon, row, x) and paired; centers between a pair are inside.
    """
    coords: list[Point] = []
    ring_sizes: list[int] = []
    ring_poly: list[int] = []
    poly_feature: list[int] = []
    for k, polys in enumerate(features):
        for poly in polys:
            for ring in poly.rings():
                coords.extend(ring)
                ring_sizes.append(len(ring))
                ring_poly.append(len(poly_feature))
            poly_feature.append(k)
    if not coords:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    pts = np.array(coords, dtype=np.float64)
    sizes = np.array(ring_sizes, dtype=np.int64)
    point_poly = np.repeat(np.array(ring_poly, dtype=np.int64), sizes)
    poly_first = np.flatnonzero(np.diff(point_poly, prepend=-1))

    # Polygon extents and their candidate rows.
    xs, ys = pts[:, 0], pts[:, 1]
    off_grid = (np.maximum.reduceat(xs, poly_first) < grid.origin_x) | (
        np.minimum.reduceat(xs, poly_first) > grid.max_x
    )
    r_lo, r_hi = _row_range(
        np.minimum.reduceat(ys, poly_first), np.maximum.reduceat(ys, poly_first), grid
    )
    r_hi[off_grid] = -1

    # Each ring point except its closing one starts an edge; horizontal
    # edges never cross a row of centers.
    starts = np.ones(len(pts), dtype=bool)
    starts[np.cumsum(sizes) - 1] = False
    e = np.flatnonzero(starts)
    x1, y1, x2, y2 = xs[e], ys[e], xs[e + 1], ys[e + 1]
    poly = point_poly[e]
    sloped = y1 != y2
    x1, y1, x2, y2, poly = x1[sloped], y1[sloped], x2[sloped], y2[sloped], poly[sloped]
    slope = (x2 - x1) / (y2 - y1)
    e_lo, e_hi = _row_range(np.minimum(y1, y2), np.maximum(y1, y2), grid)
    e_lo = np.maximum(e_lo - 1, r_lo[poly])
    e_hi = np.minimum(e_hi + 1, r_hi[poly])

    # One entry per (edge, candidate row); keep the rows the edge crosses.
    n_rows_per_edge = np.maximum(e_hi - e_lo + 1, 0)
    edge = np.repeat(np.arange(len(e_lo)), n_rows_per_edge)
    row = e_lo[edge] + _ramp(n_rows_per_edge)
    y = grid.origin_y + (grid.n_rows - row - 0.5) * grid.cell_size
    hit = (y1[edge] > y) != (y2[edge] > y)
    edge, row, y = edge[hit], row[hit], y[hit]
    x = x1[edge] + (y - y1[edge]) * slope[edge]
    poly = poly[edge]

    # Even-odd pairs of crossings along each (polygon, row).
    order = np.lexsort((x, row, poly))
    x, row, poly = x[order], row[order][0::2], poly[order][0::2]
    centers_x = grid.center_xs()
    lo = np.searchsorted(centers_x, x[0::2], side="left")
    hi = np.searchsorted(centers_x, x[1::2], side="left")
    span = lo < hi
    lo, hi, row, poly = lo[span], hi[span], row[span], poly[span]

    width = hi - lo
    n_cells = grid.n_rows * grid.n_cols
    first = np.array(poly_feature, dtype=np.int64)[poly] * n_cells + row * grid.n_cols + lo
    keys = np.sort(np.repeat(first, width) + _ramp(width))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    owner = keys // n_cells
    return owner, keys - owner * n_cells


def _row_range(
    lo_y: np.ndarray, hi_y: np.ndarray, grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Rows whose center y may fall in [lo_y, hi_y], clipped to the grid."""
    top = grid.n_rows - 1 - np.ceil((hi_y - grid.origin_y) / grid.cell_size - 0.5)
    bottom = grid.n_rows - 1 - np.floor((lo_y - grid.origin_y) / grid.cell_size - 0.5)
    r_lo = np.clip(top, 0, grid.n_rows).astype(np.int64)
    r_hi = np.clip(bottom, -1, grid.n_rows - 1).astype(np.int64)
    return r_lo, r_hi


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in ``lengths``, concatenated."""
    total = int(lengths.sum())
    return np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def polygon_centroid(poly: Polygon) -> Point:
    """Area-weighted centroid; holes subtract."""
    num_x = num_y = den = 0.0
    for k, ring in enumerate(poly.rings()):
        a = _ring_area_signed(ring)
        if a == 0.0:
            continue
        sx = sy = 0.0
        for (xa, ya), (xb, yb) in zip(ring, ring[1:]):
            cross = xa * yb - xb * ya
            sx += (xa + xb) * cross
            sy += (ya + yb) * cross
        cx = sx / (6.0 * a)
        cy = sy / (6.0 * a)
        w = abs(a) if k == 0 else -abs(a)
        num_x += w * cx
        num_y += w * cy
        den += w
    if den == 0.0:
        pts = poly.exterior[:-1]
        return Point(
            sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts)
        )
    return Point(num_x / den, num_y / den)


def rasterize_polyline(
    line: PolyLine, grid: AnalysisGrid
) -> dict[tuple[int, int], float]:
    """Distribute polyline length (meters) over the grid cells it crosses.

    Each segment is cut at grid lines; each piece's length accrues to the
    cell containing its midpoint (half-open rule). Pieces outside the
    grid are dropped, so values sum to the in-grid length.
    """
    out: dict[tuple[int, int], float] = {}
    for a, b in zip(line.vertices, line.vertices[1:]):
        seg_len = math.dist(a, b)
        ts = [0.0, 1.0]
        _axis_cuts(a.x, b.x, grid.origin_x, grid.cell_size, grid.n_cols, ts)
        _axis_cuts(a.y, b.y, grid.origin_y, grid.cell_size, grid.n_rows, ts)
        ts.sort()
        for t0, t1 in zip(ts, ts[1:]):
            if t1 <= t0:
                continue
            tm = 0.5 * (t0 + t1)
            cell = grid.cell_of(a.x + tm * (b.x - a.x), a.y + tm * (b.y - a.y))
            if cell is None:
                continue
            out[cell] = out.get(cell, 0.0) + seg_len * (t1 - t0)
    return out


def _axis_cuts(
    c0: float, c1: float, origin: float, step: float, n: int, ts: list[float]
) -> None:
    """Append parameters in (0, 1) where the segment crosses grid lines."""
    lo, hi = min(c0, c1), max(c0, c1)
    k_min = max(0, math.ceil((lo - origin) / step))
    k_max = min(n, math.floor((hi - origin) / step))
    d = c1 - c0
    if d == 0.0:
        return
    for k in range(k_min, k_max + 1):
        t = (origin + k * step - c0) / d
        if 0.0 < t < 1.0:
            ts.append(t)


# Boundary edge directions on the corner lattice, as (di, dj) with i
# increasing south. Ranked N, W, E, S so that, among the edges leaving
# one corner, rank order is target corner order.
_DI = np.array([-1, 0, 0, 1])
_DJ = np.array([0, -1, 1, 0])


def trace_mask_boundary(m: Mask) -> list[Polygon]:
    """Vectorize a mask into polygons that follow cell edges.

    Each true cell contributes its square; shared edges dissolve. Loops
    are oriented with the true region on the left, so exteriors come out
    counterclockwise and holes clockwise; each hole is attached to the
    smallest exterior that contains it. At corners where two true cells
    touch only diagonally the trace keeps them in separate loops, which
    keeps every ring simple. Rasterizing the result reproduces ``m``.

    Loops are the cycles of a successor map on directed boundary edges
    (left turns at saddle corners), found by pointer doubling and list
    ranking, so no Python loop runs over edges or corners. Loops are
    ordered by (smallest corner, first target) and each starts at its
    smallest corner.
    """
    grid = m.grid
    n_rows, n_cols = m.bits.shape
    width = n_cols + 1
    start, rank = _directed_edges(m.bits)
    n = len(start)
    if n == 0:
        return []
    edge = np.arange(n)

    # Successor: the out-edge of the target corner; at a saddle corner,
    # which has two, the one turning left (positive cross product).
    target = start + _DI[rank] * width + _DJ[rank]
    first = np.searchsorted(start, target, side="left")
    two_out = np.searchsorted(start, target, side="right") - first == 2
    out = rank[first]
    left = _DI[rank] * _DJ[out] - _DJ[rank] * _DI[out] > 0
    succ = first + (two_out & ~left)
    pred = np.empty(n, dtype=np.int64)
    pred[succ] = edge

    # Label each cycle by its smallest edge: the minimum over a window of
    # succ steps doubles each round, until a round changes nothing.
    label, jump = edge, succ
    while True:
        wider = np.minimum(label, label[jump])
        if np.array_equal(wider, label):
            break
        label, jump = wider, jump[jump]

    # List ranking: each edge's distance from its loop's head edge.
    head = label == edge
    dist = (~head).astype(np.int64)
    hop = np.where(head, edge, pred)
    while not head[hop].all():
        dist = dist + dist[hop]
        hop = hop[hop]

    heads = np.flatnonzero(head)
    sizes = np.bincount(label)[heads]
    loop_start = np.cumsum(sizes) - sizes
    order = np.empty(n, dtype=np.int64)
    order[loop_start[np.searchsorted(heads, label)] + dist] = edge

    # Exact doubled areas in cell units (x = j, y = -i); positive for
    # counterclockwise loops, i.e. exteriors.
    i, j = start // width, start % width
    ti, tj = target // width, target % width
    area2 = np.add.reduceat((i * tj - ti * j)[order], loop_start)

    # Ring vertices: loop corners where the direction changes.
    turn = (rank != rank[pred])[order]
    corner = start[order][turn]
    xs = grid.origin_x + (corner % width) * grid.cell_size
    ys = grid.origin_y + (n_rows - corner // width) * grid.cell_size
    n_vertices = np.add.reduceat(turn.astype(np.int64), loop_start)
    ring_end = np.cumsum(n_vertices)
    ring_start = ring_end - n_vertices
    pts = list(zip(xs.tolist(), ys.tolist()))

    def ring(k: int) -> list[tuple[float, float]]:
        return pts[ring_start[k]:ring_end[k]]

    exteriors = np.flatnonzero(area2 > 0)
    exteriors = exteriors[np.argsort(area2[exteriors], kind="stable")]
    holes = np.flatnonzero(area2 < 0)
    polys = [Polygon(ring(k)) for k in exteriors.tolist()]
    if holes.size:
        # Exteriors ascend by area, so the lowest exterior index covering a
        # cell center is the smallest exterior around that cell.
        cells, offsets = features_cell_indices([[p] for p in polys], grid)
        exterior_of_cell = np.repeat(np.arange(len(polys)), np.diff(offsets))
        owner = np.full(n_rows * n_cols, len(polys))
        np.minimum.at(owner, cells, exterior_of_cell)
        # A hole's first edge starts at its smallest corner, so it heads
        # east along the top of the hole's top-left false cell (i, j).
        e0 = heads[holes]
        top_left = i[e0] * n_cols + j[e0]
        rings_of: dict[int, list[list[tuple[float, float]]]] = {}
        for k, ext in zip(holes.tolist(), owner[top_left].tolist()):
            rings_of.setdefault(ext, []).append(ring(k))
        for ext, hs in rings_of.items():
            polys[ext] = Polygon(polys[ext].exterior, hs)

    first_vertex = ring_start[exteriors]
    by_position = np.lexsort((xs[first_vertex], ys[first_vertex]))
    return [polys[k] for k in by_position.tolist()]


def _directed_edges(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed boundary edges as (start corner, direction rank), sorted.

    A cell side survives dissolution iff its neighbor across that side is
    false (or outside); orientation is counterclockwise around the true
    region: bottom sides head east, right sides north, top sides west,
    left sides south. Corners are flat ids ``i * (n_cols + 1) + j``;
    edges are sorted by (start, target).
    """
    padded = np.zeros((bits.shape[0] + 2, bits.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    width = bits.shape[1] + 1
    keys = []
    # (rank, start corner offset from the cell's top-left corner, neighbor
    # across the side) for right, top, bottom and left sides.
    for rank, di, dj, neighbor in (
        (0, 1, 1, padded[1:-1, 2:]),
        (1, 0, 1, padded[:-2, 1:-1]),
        (2, 1, 0, padded[2:, 1:-1]),
        (3, 0, 0, padded[1:-1, :-2]),
    ):
        r, c = np.nonzero(bits & ~neighbor)
        keys.append(((r + di) * width + c + dj) * 4 + rank)
    key = np.sort(np.concatenate(keys))
    return key // 4, key % 4
