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


def _point_in_ring(x: float, y: float, ring: list[Point]) -> bool:
    """PNPOLY crossing test against one closed ring."""
    inside = False
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Even-odd membership; interior rings subtract.

    Points exactly on a boundary resolve by the crossing count, which is
    deterministic and half-open: of two polygons sharing an edge, the
    point belongs to exactly one.
    """
    inside = False
    for ring in poly.rings():
        if _point_in_ring(p.x, p.y, ring):
            inside = not inside
    return inside


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


# Directions on the corner lattice, as (di, dj) with i increasing south.
_E = (0, 1)
_W = (0, -1)
_N = (-1, 0)
_S = (1, 0)


def trace_mask_boundary(m: Mask) -> list[Polygon]:
    """Vectorize a mask into polygons that follow cell edges.

    Each true cell contributes its square; shared edges dissolve. Loops
    are oriented with the true region on the left, so exteriors come out
    counterclockwise and holes clockwise; each hole is attached to the
    smallest exterior that contains it. At corners where two true cells
    touch only diagonally the trace keeps them in separate loops, which
    keeps every ring simple. Rasterizing the result reproduces ``m``.
    """
    grid = m.grid
    edges = _boundary_edges(m.bits)
    if not edges:
        return []
    loops = _link_loops(edges)

    exteriors: list[tuple[float, list[tuple[int, int]]]] = []
    holes: list[list[tuple[int, int]]] = []
    for loop in loops:
        ring_xy = [Point(grid.corner_x(j), grid.corner_y(i)) for i, j in loop]
        area = _ring_area_signed(ring_xy + [ring_xy[0]])
        if area > 0:
            exteriors.append((area, loop))
        else:
            holes.append(loop)

    exteriors.sort(key=lambda item: item[0])
    ext_rings = [
        _corners_to_ring(loop, grid) for _, loop in exteriors
    ]
    ext_holes: list[list[list[Point]]] = [[] for _ in exteriors]
    if holes:
        # Exteriors ascend by area, so the lowest exterior index covering a
        # cell center is the smallest exterior around that cell.
        cells, offsets = features_cell_indices([[Polygon(r)] for r in ext_rings], grid)
        exterior_of_cell = np.repeat(np.arange(len(ext_rings)), np.diff(offsets))
        owner = np.full(grid.n_rows * grid.n_cols, len(ext_rings))
        np.minimum.at(owner, cells, exterior_of_cell)
        for hole in holes:
            # The false cell to the right of the hole's first edge lies
            # inside the hole (the true region is on the left).
            (i0, j0), (i1, j1) = hole[0], hole[1]
            row, col = _right_cell((i0, j0), (i1 - i0, j1 - j0))
            ext_holes[owner[row * grid.n_cols + col]].append(_corners_to_ring(hole, grid))

    polys = [
        Polygon(ring, hs) for ring, hs in zip(ext_rings, ext_holes)
    ]
    polys.sort(key=lambda p: (p.exterior[0].y, p.exterior[0].x))
    return polys


def _boundary_edges(bits: np.ndarray) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Directed boundary edges keyed by start corner, true region on the left.

    A cell side survives dissolution iff its neighbor across that side is
    false (or outside); orientation is counterclockwise around the true
    region: bottom sides head east, right sides north, top sides west,
    left sides south.
    """
    padded = np.zeros((bits.shape[0] + 2, bits.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    below = padded[2:, 1:-1]
    above = padded[:-2, 1:-1]
    right = padded[1:-1, 2:]
    left = padded[1:-1, :-2]

    out: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(a: tuple[int, int], b: tuple[int, int]) -> None:
        out.setdefault(a, []).append(b)

    for r, c in zip(*np.nonzero(bits & ~below)):
        add((int(r) + 1, int(c)), (int(r) + 1, int(c) + 1))
    for r, c in zip(*np.nonzero(bits & ~right)):
        add((int(r) + 1, int(c) + 1), (int(r), int(c) + 1))
    for r, c in zip(*np.nonzero(bits & ~above)):
        add((int(r), int(c) + 1), (int(r), int(c)))
    for r, c in zip(*np.nonzero(bits & ~left)):
        add((int(r), int(c)), (int(r) + 1, int(c)))

    for targets in out.values():
        targets.sort()
    return out


def _link_loops(
    outgoing: dict[tuple[int, int], list[tuple[int, int]]]
) -> list[list[tuple[int, int]]]:
    """Chain directed edges into closed loops, taking left turns at forks."""
    loops: list[list[tuple[int, int]]] = []
    starts = sorted(outgoing)
    for start in starts:
        while outgoing.get(start):
            first = outgoing[start].pop(0)
            loop = [start, first]
            prev, cur = start, first
            while cur != start:
                nxts = outgoing[cur]
                if len(nxts) == 1:
                    nxt = nxts.pop(0)
                else:
                    d_in = (cur[0] - prev[0], cur[1] - prev[1])
                    nxt = _pick_left(cur, d_in, nxts)
                    nxts.remove(nxt)
                loop.append(nxt)
                prev, cur = cur, nxt
            loops.append(loop[:-1])
    return loops


def _pick_left(
    at: tuple[int, int], d_in: tuple[int, int], candidates: list[tuple[int, int]]
) -> tuple[int, int]:
    """Among outgoing corners, the one turning left relative to d_in.

    With i pointing south, (di, dj) maps to planar (dx, dy) = (dj, -di);
    left turns have positive cross product dx_in*dy_out - dy_in*dx_out.
    """
    for cand in candidates:
        d_out = (cand[0] - at[0], cand[1] - at[1])
        cross = d_in[1] * (-d_out[0]) - (-d_in[0]) * d_out[1]
        if cross > 0:
            return cand
    return candidates[0]


def _right_cell(start: tuple[int, int], d: tuple[int, int]) -> tuple[int, int]:
    """Cell (row, col) to the right of a directed lattice edge."""
    i, j = start
    if d == _E:
        return (i, j)
    if d == _W:
        return (i - 1, j - 1)
    if d == _N:
        return (i - 1, j)
    if d == _S:
        return (i, j - 1)
    raise GeometryError(f"not a unit lattice step: {d}")


def _corners_to_ring(loop: list[tuple[int, int]], grid: AnalysisGrid) -> list[Point]:
    """Convert corner indices to coordinates, dropping collinear vertices."""
    kept: list[tuple[int, int]] = []
    n = len(loop)
    for idx, cur in enumerate(loop):
        prv = loop[idx - 1]
        nxt = loop[(idx + 1) % n]
        if (cur[0] - prv[0], cur[1] - prv[1]) != (nxt[0] - cur[0], nxt[1] - cur[1]):
            kept.append(cur)
    return [Point(grid.corner_x(j), grid.corner_y(i)) for i, j in kept]
