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
from typing import Any, NamedTuple

import numpy as np

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
    the origin; accuracy is well under 0.1% at county scale. ``lon`` and
    ``lat`` may be arrays: each element gets the scalar arithmetic.
    """
    k = math.pi / 180.0
    x = EARTH_RADIUS_M * (lon - origin_lon) * k * math.cos(origin_lat * k)
    y = EARTH_RADIUS_M * (lat - origin_lat) * k
    return Point(x, y)


def unproject_to_lonlat(
    p: Point, origin_lon: float, origin_lat: float
) -> tuple[float, float]:
    """Inverse of :func:`project_lonlat`; returns (lon, lat) degrees.

    ``p`` may hold coordinate arrays, as :func:`project_lonlat` allows.
    """
    k = math.pi / 180.0
    lon = origin_lon + p.x / (EARTH_RADIUS_M * k * math.cos(origin_lat * k))
    lat = origin_lat + p.y / (EARTH_RADIUS_M * k)
    return (lon, lat)


def first_problem(
    rules: list[tuple[np.ndarray, str]], /, **columns: Any
) -> tuple[int, str] | None:
    """The first item that breaks one of ``rules``, as (item, the message of
    the first rule it breaks), or None. A rule is which items break it and
    its message, formatted with the item's entry of each of ``columns``."""
    bad = np.flatnonzero(np.any([broken for broken, _ in rules], axis=0))
    if not bad.size:
        return None
    k = int(bad[0])
    message = next(message for broken, message in rules if broken[k])
    return k, message.format_map({name: column[k] for name, column in columns.items()})


def ring_problem(
    xs: np.ndarray, ys: np.ndarray, ring_offsets: np.ndarray
) -> tuple[int, str] | None:
    """The first bad ring, as (ring, its message), or None.

    Ring r is ``xs, ys[ring_offsets[r]:ring_offsets[r + 1]]``, closed or
    not. A ring needs finite coordinates and three distinct vertices.
    Distinct vertices are counted up to three: a ring's first vertex, its
    first vertex unequal to that one, and any vertex unequal to both.
    """
    n = np.diff(ring_offsets)
    starts = ring_offsets[:-1]
    ring = np.repeat(np.arange(len(n)), n)
    nonfinite = np.bincount(ring[~(np.isfinite(xs) & np.isfinite(ys))], minlength=len(n)) > 0
    first = np.repeat(starts, n)
    other = (xs != xs[first]) | (ys != ys[first])
    seconds = np.append(np.flatnonzero(other), len(xs))
    second = seconds[np.searchsorted(seconds, starts)]
    has_second = second < ring_offsets[1:]
    second = np.repeat(np.where(has_second, second, starts), n)
    third = other & ((xs != xs[second]) | (ys != ys[second]))
    has_third = np.bincount(ring[third], minlength=len(n)) > 0
    distinct = np.where(has_third, 3, (n > 0).astype(np.int64) + has_second)
    return first_problem([
        (nonfinite, "ring has non-finite coordinates"),
        (distinct < 3, "ring needs >= 3 distinct vertices, got {distinct}"),
    ], distinct=distinct)


def close_rings(
    xs: np.ndarray, ys: np.ndarray, ring_offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rings closed, as (xs, ys, ring offsets).

    Each ring's closing vertex, if equal to its first, is dropped and the
    first vertex is repeated last. Every ring must pass
    :func:`ring_problem`.
    """
    starts, ends = ring_offsets[:-1], ring_offsets[1:]
    last = ends - 1
    open_sizes = ends - starts - ((xs[starts] == xs[last]) & (ys[starts] == ys[last]))
    sizes = open_sizes + 1
    src = np.repeat(starts, sizes) + _ramp(sizes) % np.repeat(open_sizes, sizes)
    return xs[src], ys[src], run_offsets(sizes)


def line_problem(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray
) -> tuple[int, str] | None:
    """The first bad polyline, as (line, its message), or None.

    Line k is ``xs, ys[offsets[k]:offsets[k + 1]]``. A line needs finite
    coordinates, two or more vertices and each vertex unequal to the one
    before it.
    """
    n = np.diff(offsets)
    line = np.repeat(np.arange(len(n)), n)
    same = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1]) & (line[1:] == line[:-1])
    return first_problem([
        (np.bincount(line[~(np.isfinite(xs) & np.isfinite(ys))], minlength=len(n)) > 0,
         "polyline has non-finite coordinates"),
        (n < 2, "polyline needs >= 2 vertices"),
        (np.bincount(line[1:][same], minlength=len(n)) > 0,
         "polyline has repeated consecutive vertices"),
    ])


class PolygonLayer(NamedTuple):
    """Polygonal features as flat arrays, in GeoArrow's multipolygon layout.

    Ring r is the closed vertex run ``xs, ys[ring_offsets[r]:ring_offsets[r + 1]]``
    (its first vertex repeated last), polygon p holds rings
    ``polygon_offsets[p]:polygon_offsets[p + 1]`` (exterior first) and
    feature k holds polygons ``feature_offsets[k]:feature_offsets[k + 1]``.
    Unpacked, a layer is the first five arguments of
    :func:`ragged_cell_indices`.
    """

    xs: np.ndarray
    ys: np.ndarray
    ring_offsets: np.ndarray
    polygon_offsets: np.ndarray
    feature_offsets: np.ndarray

    def _ring_sums(self, values: np.ndarray) -> np.ndarray:
        """Each ring's sum of ``values[v]`` over its edges (v to v + 1),
        added left to right."""
        ro = self.ring_offsets
        return segment_sums(values, ro[:-1], np.diff(ro) - 1, sequential=True)

    def _polygon_sums(self, values: np.ndarray) -> np.ndarray:
        """Each polygon's sum of its rings' ``values``, added left to right."""
        po = self.polygon_offsets
        return segment_sums(values, po[:-1], np.diff(po), sequential=True)

    def _rings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each ring's shoelace terms (the edge from vertex v to v + 1), its
        signed area (positive counterclockwise, y up), and its absolute
        area, negated for a hole."""
        xs, ys = self.xs, self.ys
        terms = xs[:-1] * ys[1:] - xs[1:] * ys[:-1]
        area = 0.5 * self._ring_sums(terms)
        weight = np.abs(area)
        hole = np.ones(len(weight), dtype=bool)
        hole[self.polygon_offsets[:-1]] = False
        weight[hole] = -weight[hole]
        return terms, area, weight

    def areas(self) -> np.ndarray:
        """Each feature's area: its polygons' areas, summed exactly rounded.

        A polygon's area is its exterior's absolute shoelace area minus its
        holes', each ring's terms and then each polygon's ring areas added
        left to right.
        """
        fo = self.feature_offsets
        poly_area = self._polygon_sums(self._rings()[2])
        # One or two terms: a pairwise sum is exactly rounded, as fsum is.
        area = segment_sums(poly_area, fo[:-1], np.diff(fo))
        for k in np.flatnonzero(np.diff(fo) > 2).tolist():
            area[k] = math.fsum(poly_area[fo[k]:fo[k + 1]].tolist())
        return area

    def centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """Each feature's centroid (x, y): its polygons' centroids weighted by
        their areas, 1.0 for a polygon whose area is not positive.

        A polygon's centroid is its rings' centroids weighted by their areas
        as :meth:`areas` takes them, rings of zero area left out; a polygon
        of zero area takes the mean of its exterior's vertices. Every
        weighted sum adds its terms left to right.
        """
        xs, ys, ro, po, fo = self
        terms, ring_area, weight = self._rings()
        area = self._polygon_sums(weight)
        part_weight = np.where(area > 0, area, 1.0)
        total = segment_sums(part_weight, fo[:-1], np.diff(fo), sequential=True)
        out = []
        for v in (xs, ys):
            with np.errstate(divide="ignore", invalid="ignore"):
                ring_c = self._ring_sums((v[:-1] + v[1:]) * terms) / (6.0 * ring_area)
                c = self._polygon_sums(np.where(ring_area == 0.0, 0.0, weight * ring_c)) / area
            for p in np.flatnonzero(area == 0.0).tolist():
                a, b = ro[po[p]], ro[po[p] + 1] - 1  # the exterior, unclosed
                c[p] = math.fsum(v[a:b].tolist()) / (b - a)
            weighted = segment_sums(part_weight * c, fo[:-1], np.diff(fo), sequential=True)
            with np.errstate(invalid="ignore"):  # a feature without polygons
                out.append(weighted / total)
        return out[0], out[1]


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, layer: PolygonLayer) -> np.ndarray:
    """Which points lie inside each feature of ``layer``, as a (features,
    points) bool array.

    The PNPOLY crossing test, one ring edge at a time over all points:
    crossings within a polygon count even-odd, so holes subtract, and a
    point inside any of a feature's polygons is inside the feature. Points
    exactly on a boundary resolve by the crossing count, which is
    deterministic and half-open: of two polygons sharing an edge, the
    point belongs to exactly one.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    lx, ly, ro, po, fo = layer
    starts = np.ones(len(lx), dtype=bool)  # each ring vertex but its closing one
    starts[ro[1:] - 1] = False
    ring_polygon = np.repeat(np.arange(len(po) - 1), np.diff(po))
    vertex_polygon = np.repeat(ring_polygon, np.diff(ro)).tolist()
    x, y = lx.tolist(), ly.tolist()
    parity = np.zeros((len(po) - 1, len(xs)), dtype=bool)
    for v in np.flatnonzero(starts).tolist():
        x1, y1, x2, y2 = x[v], y[v], x[v + 1], y[v + 1]
        if y1 == y2:  # a horizontal edge crosses no point's ray
            continue
        crossed = (y1 > ys) != (y2 > ys)
        parity[vertex_polygon[v]] ^= crossed & (xs < x1 + (ys - y1) * (x2 - x1) / (y2 - y1))
    inside = np.zeros((len(fo) - 1, len(xs)), dtype=bool)
    for p, k in enumerate(np.repeat(np.arange(len(fo) - 1), np.diff(fo)).tolist()):
        inside[k] |= parity[p]
    return inside


# Features scanned together; bounds the transient per-crossing arrays.
FEATURE_BATCH = 256


def ragged_cell_indices(
    xs: np.ndarray,
    ys: np.ndarray,
    ring_offsets: np.ndarray,
    polygon_offsets: np.ndarray,
    feature_offsets: np.ndarray,
    grid: AnalysisGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell ids (row * n_cols + col) of many features, in CSR form.

    The features are held as a :class:`PolygonLayer`'s arrays. Feature k's
    cells are ``cells[offsets[k]:offsets[k + 1]]``: the cells whose
    centers lie inside any of its polygons, ascending and without
    duplicates. Features are scanned in fixed batches, so one call
    rasterizes a whole layer with bounded transient memory.
    """
    n_features = len(feature_offsets) - 1
    counts = np.zeros(n_features, dtype=np.int64)
    chunks = [np.zeros(0, dtype=np.int64)]
    for start in range(0, n_features, FEATURE_BATCH):
        stop = min(start + FEATURE_BATCH, n_features)
        p0, p1 = feature_offsets[start], feature_offsets[stop]
        r0, r1 = polygon_offsets[p0], polygon_offsets[p1]
        v0, v1 = ring_offsets[r0], ring_offsets[r1]
        owner, cells = _scan_features(
            xs[v0:v1], ys[v0:v1], ring_offsets[r0:r1 + 1] - v0,
            polygon_offsets[p0:p1 + 1] - r0, feature_offsets[start:stop + 1] - p0, grid,
        )
        counts[start:stop] = np.bincount(owner, minlength=stop - start)
        chunks.append(cells)
    return np.concatenate(chunks), run_offsets(counts)


def run_offsets(counts) -> np.ndarray:
    """0 followed by the running totals of ``counts``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def segment_sums(
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray | None = None,
    sequential: bool = False,
) -> np.ndarray:
    """The sum of each segment ``values[starts[k]:starts[k] + lengths[k]]``.

    ``lengths`` defaults to the runs between consecutive starts, the last
    running to the end of ``values``. Each sum has the bits of the
    segment's own ``ndarray.sum()`` (numpy's pairwise summation) or, if
    ``sequential``, of adding its terms left to right (an all-zero sum may
    come out -0.0). Segments of one length are gathered into one
    (count, length) block and reduced along its rows, which numpy does
    with the routine of a 1-D sum; ``np.add.reduceat`` and ``np.bincount``
    add in another order and round differently from eight terms on.
    """
    if lengths is None:
        lengths = np.diff(starts, append=len(values))
    out = np.zeros(len(starts))
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, cuts) if order.size else ():
        n = lengths[group[0]]
        if n:
            rows = values[starts[group, None] + np.arange(n)]
            out[group] = np.cumsum(rows, axis=1)[:, -1] if sequential else rows.sum(axis=1)
    return out


def _scan_features(
    xs: np.ndarray,
    ys: np.ndarray,
    ring_offsets: np.ndarray,
    polygon_offsets: np.ndarray,
    feature_offsets: np.ndarray,
    grid: AnalysisGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """(feature, flat cell) pairs inside the features, sorted and unique.

    An edge from (x1, y1) to (x2, y2) crosses the rows whose center y has
    ``min(y1, y2) <= y < max(y1, y2)``, the PNPOLY test ``(y1 > y) != (y2 >
    y)``; over the ascending center ys those rows are one range, bounded by
    two ``searchsorted`` calls, and a horizontal edge's range is empty.
    Edges of polygons wholly east or west of the grid are skipped.
    Crossings are sorted by (polygon, row, x) and paired; centers between
    a pair are inside.
    """
    if not xs.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    n_polygons = len(polygon_offsets) - 1
    ring_poly = np.repeat(np.arange(n_polygons), np.diff(polygon_offsets))
    point_poly = np.repeat(ring_poly, np.diff(ring_offsets))
    poly_first = ring_offsets[polygon_offsets[:-1]]
    poly_feature = np.repeat(np.arange(len(feature_offsets) - 1), np.diff(feature_offsets))
    off_grid = (np.maximum.reduceat(xs, poly_first) < grid.origin_x) | (
        np.minimum.reduceat(xs, poly_first) > grid.max_x
    )

    # Each ring point except its closing one starts an edge.
    starts = ~off_grid[point_poly]
    starts[ring_offsets[1:] - 1] = False
    e = np.flatnonzero(starts)
    x1, y1, x2, y2 = xs[e], ys[e], xs[e + 1], ys[e + 1]

    # One entry per (edge, row it crosses); index i of the ascending center
    # ys is row n_rows - 1 - i.
    centers_y = grid.center_ys()[::-1]
    lo = np.searchsorted(centers_y, np.minimum(y1, y2), side="left")
    n_rows_per_edge = np.searchsorted(centers_y, np.maximum(y1, y2), side="left") - lo
    edge = np.repeat(np.arange(len(e)), n_rows_per_edge)
    i = lo[edge] + _ramp(n_rows_per_edge)
    row, y = grid.n_rows - 1 - i, centers_y[i]
    x = x1[edge] + (y - y1[edge]) * (x2 - x1)[edge] / (y2 - y1)[edge]  # as in points_in_polygon
    poly = point_poly[e][edge]

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
    first = poly_feature[poly] * n_cells + row * grid.n_cols + lo
    keys = np.sort(np.repeat(first, width) + _ramp(width))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    owner = keys // n_cells
    return owner, keys - owner * n_cells


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in ``lengths``, concatenated."""
    total = int(lengths.sum())
    return np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def polyline_pieces(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The length (meters) of each line in each grid cell it crosses.

    Line k runs through the vertices ``xs, ys[offsets[k]:offsets[k + 1]]``.
    Each segment is cut where it crosses a grid line (Amanatides and Woo's
    traversal, for all segments at once); each piece's length, ``math.dist``
    of the segment times its share of the segment, accrues to the cell of
    its midpoint by :meth:`AnalysisGrid.flat_cells_of`, and pieces off the
    grid are dropped. Returns (line, flat cell, length), one entry per line
    and cell it crosses, ascending, the length the sum of that cell's
    pieces added left to right in (segment, cut) order.
    """
    line_of = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    a = np.flatnonzero(line_of[:-1] == line_of[1:])
    x0, y0, x1, y1 = xs[a], ys[a], xs[a + 1], ys[a + 1]
    seg_len = np.fromiter(
        map(math.dist, zip(x0.tolist(), y0.tolist()), zip(x1.tolist(), y1.tolist())),
        dtype=np.float64, count=len(a),
    )
    every = np.arange(len(a))
    segs, ts = [every, every], [np.zeros(len(a)), np.ones(len(a))]
    for c0, c1, origin, n in ((x0, x1, grid.origin_x, grid.n_cols),
                              (y0, y1, grid.origin_y, grid.n_rows)):
        # The grid lines k = 0..n between the ends, clamped in float so
        # that a far-off segment casts no huge index to int.
        k_lo = np.clip(np.ceil((np.minimum(c0, c1) - origin) / grid.cell_size), 0, n + 1)
        k_hi = np.clip(np.floor((np.maximum(c0, c1) - origin) / grid.cell_size), -1, n)
        d = c1 - c0
        count = np.where(d == 0.0, 0, np.maximum(k_hi - k_lo + 1, 0)).astype(np.int64)
        s = np.repeat(every, count)
        k = k_lo.astype(np.int64)[s] + _ramp(count)
        t = (origin + k * grid.cell_size - c0[s]) / d[s]
        cut = (0.0 < t) & (t < 1.0)
        segs.append(s[cut])
        ts.append(t[cut])
    seg, t = np.concatenate(segs), np.concatenate(ts)
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    # Each segment's cuts run 0 .. 1, so consecutive entries of one
    # segment with distinct t bound a piece and no other pair does.
    piece = np.flatnonzero(t[1:] > t[:-1])
    s, t0, t1 = seg[piece], t[piece], t[piece + 1]
    tm = 0.5 * (t0 + t1)
    cell = grid.flat_cells_of(x0[s] + tm * (x1 - x0)[s], y0[s] + tm * (y1 - y0)[s])
    on = cell >= 0
    line, cell, length = line_of[a[s[on]]], cell[on], (seg_len[s] * (t1 - t0))[on]
    order = np.lexsort((cell, line))
    line, cell, length = line[order], cell[order], length[order]
    starts = np.flatnonzero((np.diff(line, prepend=-1) != 0) | (np.diff(cell, prepend=-1) != 0))
    return line[starts], cell[starts], segment_sums(length, starts, sequential=True)


# Boundary edge directions on the corner lattice, as (di, dj) with i
# increasing south. Ranked N, W, E, S so that, among the edges leaving
# one corner, rank order is target corner order.
_DI = np.array([-1, 0, 0, 1])
_DJ = np.array([0, -1, 1, 0])
# _LEFT[a, b]: turning from direction rank a to rank b is a left turn
# (positive cross product).
_LEFT = _DI[:, None] * _DJ - _DJ[:, None] * _DI > 0


class RingArrays(NamedTuple):
    """Traced polygons as flat arrays, in the GeoArrow polygon layout.

    ``corners`` holds corner ids ``i * (n_cols + 1) + j`` (see
    :meth:`AnalysisGrid.corner_xs` and :meth:`AnalysisGrid.corner_ys`).
    Ring r is ``corners[ring_offsets[r]:ring_offsets[r + 1]]``, closed:
    its first corner is repeated last. Polygon p is the rings
    ``polygon_offsets[p]:polygon_offsets[p + 1]``, exterior first.
    """

    corners: np.ndarray
    ring_offsets: np.ndarray
    polygon_offsets: np.ndarray


def _corner_xy(grid: AnalysisGrid, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of corner ids ``i * (n_cols + 1) + j``."""
    i, j = np.divmod(corners, grid.n_cols + 1)
    return grid.corner_xs()[j], grid.corner_ys()[i]


def trace_mask_rings(m: Mask) -> RingArrays:
    """Vectorize a mask into polygons that follow cell edges.

    Each true cell contributes its square; shared edges dissolve. Loops
    are oriented with the true region on the left, so exteriors come out
    counterclockwise and holes clockwise; each hole is attached to the
    smallest exterior that contains it. At corners where two true cells
    touch only diagonally the trace keeps them in separate loops, which
    keeps every ring simple. Rasterizing the result reproduces ``m``.

    Loops are the cycles of a successor map on directed boundary edges
    (left turns at saddle corners). Edges are read off a dense table of
    (corner, direction) slots, and each edge's successor is found by
    counting the edges that leave earlier corners. Pointer doubling then
    labels each loop and ranks its edges, so no Python loop and no sort or
    search runs over edges or corners. A hole finds its exterior by a ray
    cast up its column. Each ring starts at its loop's smallest corner
    and keeps only the corners where the direction changes. Polygons are
    ordered by the (y, x) of their exterior's first vertex; holes follow
    their exterior in loop order, loops being ordered by (smallest corner,
    first target).
    """
    grid = m.grid
    bits = m.bits
    n_rows, n_cols = bits.shape
    width = n_cols + 1
    slots = _edge_slots(bits)
    key = np.flatnonzero(slots)
    start, rank = key >> 2, key & 3
    n = len(start)
    edge = np.arange(n)

    # Successor: the out-edge of the target corner; at a saddle corner,
    # which has two, the one turning left (positive cross product). Edges
    # are sorted by start corner, so a corner's first out-edge is the
    # number of edges leaving the corners before it.
    count = slots.view(np.uint8)
    degree = count[:, 0] + count[:, 1] + count[:, 2] + count[:, 3]
    first_out = np.cumsum(degree, dtype=np.int64) - degree
    target = start + _DI[rank] * width + _DJ[rank]
    first = first_out[target]
    out = rank[first]
    succ = first + ((degree[target] == 2) & ~_LEFT[rank, out])
    pred = np.empty(n, dtype=np.int64)
    pred[succ] = edge

    # Label each cycle by its smallest edge, its head, and count how many
    # succ steps ahead of each edge the head lies: the window of steps
    # behind each label doubles each round, until a round changes nothing.
    label, ahead, jump, window = edge.copy(), np.zeros(n, dtype=np.int64), succ, 1
    while True:
        further = label[jump]
        smaller = np.flatnonzero(further < label)
        if not smaller.size:
            break
        label[smaller] = further[smaller]
        ahead[smaller] = ahead[jump[smaller]] + window
        jump, window = jump[jump], 2 * window

    # Each loop's edges in succ order from its head.
    head = label == edge
    heads = np.flatnonzero(head)
    loop = (np.cumsum(head) - 1)[label]
    sizes = np.bincount(loop, minlength=len(heads))
    loop_start = np.cumsum(sizes) - sizes
    place = (loop_start + sizes)[loop] - ahead
    place[heads] = loop_start
    order = np.empty(n, dtype=np.int64)
    order[place] = edge

    # Ring vertices: loop corners where the direction changes.
    turn = (rank != rank[pred])[order]
    corner = start[order][turn]
    n_vertices = np.add.reduceat(turn.astype(np.int64), loop_start)
    ring_start = np.cumsum(n_vertices) - n_vertices

    def closed(loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The loops' corners, each ring closed, and their ring offsets."""
        sizes = n_vertices[loops] + 1
        within = _ramp(sizes) % np.repeat(n_vertices[loops], sizes)
        return corner[np.repeat(ring_start[loops], sizes) + within], run_offsets(sizes)

    # A loop's head edge leaves its smallest corner: south down the left
    # side of an exterior's top-left cell, east along the top of a hole's
    # top-left false cell.
    is_exterior = rank[heads] == 3
    exteriors = np.flatnonzero(is_exterior)
    holes = np.flatnonzero(~is_exterior)
    hole_exterior = np.zeros(0, dtype=np.int64)
    if holes.size:
        # Ray casting: a hole's head edge is the bottom side of the true
        # cell (i - 1, j). The top side of that cell's run of true cells up
        # column j is an edge of the same 4-connected component, on its
        # exterior or on a hole whose head lies higher. Following these
        # steps ends at the component's exterior, the smallest exterior
        # around the hole.
        top = bits.copy()
        top[1:] &= ~bits[:-1]
        run_top = np.where(top, np.arange(n_rows)[:, None], -1)
        np.maximum.accumulate(run_top, axis=0, out=run_top)
        i, j = np.divmod(start[heads[holes]], width)
        # The run's top side heads west from its top-right corner. The cell
        # above the run is false, so no edge heads north from that corner:
        # the top side is the corner's first out-edge.
        top_right = run_top[i - 1, j] * width + j + 1
        step = np.arange(len(heads))
        step[holes] = loop[first_out[top_right]]
        while True:
            further = step[step]
            if np.array_equal(further, step):
                break
            step = further
        hole_exterior = (np.cumsum(is_exterior) - 1)[step[holes]]

    # Polygon of each ring: exteriors by the position of their first
    # vertex, then each exterior's holes.
    xs, ys = _corner_xy(grid, start[heads[exteriors]])
    position = np.empty(len(exteriors), dtype=np.int64)
    position[np.lexsort((xs, ys))] = np.arange(len(exteriors))
    polygon = np.concatenate([position, position[hole_exterior]])
    is_hole = np.arange(len(polygon)) >= len(exteriors)
    loops = np.concatenate([exteriors, holes])[np.lexsort((is_hole, polygon))]
    corners, ring_offsets = closed(loops)
    rings_per_polygon = np.bincount(polygon, minlength=len(exteriors))
    return RingArrays(corners, ring_offsets, run_offsets(rings_per_polygon))


def _edge_slots(bits: np.ndarray) -> np.ndarray:
    """Directed boundary edges as a (corner, direction rank) bool table.

    A cell side survives dissolution iff its neighbor across that side is
    false (or outside); orientation is counterclockwise around the true
    region: bottom sides head east, right sides north, top sides west,
    left sides south. Row ``i * (n_cols + 1) + j`` of the table is corner
    (i, j), and a corner starts at most one edge of each rank, so
    ``np.flatnonzero`` of the table lists the edges as ``start * 4 + rank``,
    sorted by (start, target).
    """
    n_rows, n_cols = bits.shape
    padded = np.zeros((n_rows + 2, n_cols + 2), dtype=bool)
    padded[1:-1, 1:-1] = bits
    slots = np.zeros((n_rows + 1, n_cols + 1, 4), dtype=bool)
    # Right sides start at the cell's bottom-right corner, top sides at its
    # top-right, bottom sides at its bottom-left and left sides at its
    # top-left.
    slots[1:, 1:, 0] = bits & ~padded[1:-1, 2:]
    slots[:-1, 1:, 1] = bits & ~padded[:-2, 1:-1]
    slots[1:, :-1, 2] = bits & ~padded[2:, 1:-1]
    slots[:-1, :-1, 3] = bits & ~padded[1:-1, :-2]
    return slots.reshape(-1, 4)
