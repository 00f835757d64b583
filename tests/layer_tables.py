"""Column tables of input layers built from rows written in a test, and
the object geometry that tests build rows from and use as a reference.

``fireimpact`` takes each layer only as the table its reader builds;
these build the same tables from rows. A row is a tuple in the field
order of its NamedTuple here; buildings are ``polygon_layer`` of their
footprints. ``Polygon``, ``PolyLine`` and the functions on them are the
package's former object geometry, kept as written: a polygon's rings as
lists of points, and the even-odd test and area, centroid and cell
routines that take them.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from fireimpact.dasymetric import Blocks
from fireimpact.errors import GeometryError, ValidationError
from fireimpact.geometry import (
    Point,
    PolygonLayer,
    ragged_cell_indices,
    run_offsets,
)
from fireimpact.grid import AnalysisGrid, Mask
from fireimpact.impact import Districts, Pois, Roads, category_codes
from fireimpact.perimeters import CONFIDENCE_CODES, Detection, Detections


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


@dataclass(frozen=True)
class District:
    """A named assessment region bounded by its official fire perimeter."""

    name: str
    perimeter: list[Polygon]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("district needs a name")
        if not self.perimeter:
            raise ValidationError(f"district {self.name} has no perimeter")


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
            math.fsum(p.x for p in pts) / len(pts), math.fsum(p.y for p in pts) / len(pts)
        )
    return Point(num_x / den, num_y / den)


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


def rasterize_polygons(polys: list[Polygon], grid: AnalysisGrid) -> Mask:
    """Mask of cells whose centers lie inside any of the polygons (even-odd)."""
    cells, _ = features_cell_indices([polys], grid)
    bits = np.zeros(grid.shape, dtype=bool)
    bits.ravel()[cells] = True
    return Mask(grid, bits)


def polygon_layer(features: list[list[Polygon]]) -> PolygonLayer:
    """The layer of features given as lists of polygons (a block's parts)."""
    coords: list[Point] = []
    ring_sizes: list[int] = []
    polygon_sizes: list[int] = []
    for polys in features:
        for poly in polys:
            rings = poly.rings()
            for ring in rings:
                coords.extend(ring)
                ring_sizes.append(len(ring))
            polygon_sizes.append(len(rings))
    xy = np.array(coords, dtype=np.float64).reshape(-1, 2)
    return PolygonLayer(
        xy[:, 0].copy(), xy[:, 1].copy(), run_offsets(ring_sizes),
        run_offsets(polygon_sizes), run_offsets([len(polys) for polys in features]),
    )


def features_cell_indices(
    features: list[list[Polygon]], grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ragged_cell_indices` of features given as lists of polygons."""
    return ragged_cell_indices(*polygon_layer(features), grid)


def line_cells(line: PolyLine, grid: AnalysisGrid) -> dict[tuple[int, int], float]:
    """The length of ``line`` in each (row, col) it crosses, one segment and
    one piece at a time: each segment is cut where it crosses a grid line,
    and each piece's length goes to the cell of its midpoint (half-open
    rule). Pieces off the grid are dropped."""
    out: dict[tuple[int, int], float] = {}
    size = grid.cell_size
    for a, b in zip(line.vertices, line.vertices[1:]):
        seg_len = math.dist(a, b)
        ts = [0.0, 1.0]
        for c0, c1, origin, n in ((a.x, b.x, grid.origin_x, grid.n_cols),
                                  (a.y, b.y, grid.origin_y, grid.n_rows)):
            if c1 == c0:
                continue
            k_min = max(0, math.ceil((min(c0, c1) - origin) / size))
            k_max = min(n, math.floor((max(c0, c1) - origin) / size))
            for k in range(k_min, k_max + 1):
                t = (origin + k * size - c0) / (c1 - c0)
                if 0.0 < t < 1.0:
                    ts.append(t)
        ts.sort()
        for t0, t1 in zip(ts, ts[1:]):
            if t1 <= t0:
                continue
            tm = 0.5 * (t0 + t1)
            col = math.floor((a.x + tm * (b.x - a.x) - grid.origin_x) / size)
            row = grid.n_rows - 1 - math.floor((a.y + tm * (b.y - a.y) - grid.origin_y) / size)
            if 0 <= row < grid.n_rows and 0 <= col < grid.n_cols:
                out[row, col] = out.get((row, col), 0.0) + seg_len * (t1 - t0)
    return out


class Block(NamedTuple):
    block_id: str
    parts: list[Polygon]
    pop: float
    tract_id: str


class Road(NamedTuple):
    line: PolyLine
    road_class: str


class Poi(NamedTuple):
    location: Point
    category: str


def detections(rows: Iterable[Detection]) -> Detections:
    rows = list(rows)
    return Detections(
        np.array([d.location.x for d in rows], dtype=np.float64),
        np.array([d.location.y for d in rows], dtype=np.float64),
        np.array([d.date.toordinal() for d in rows], dtype=np.int64),
        np.array([math.nan if d.frp is None else d.frp for d in rows], dtype=np.float64),
        np.array(
            [-1 if d.confidence is None else CONFIDENCE_CODES.index(d.confidence) for d in rows],
            dtype=np.int8,
        ),
    )


def blocks(rows: Iterable[Block]) -> Blocks:
    rows = [Block(*row) for row in rows]
    return Blocks(
        [b.block_id for b in rows],
        np.array([b.pop for b in rows], dtype=np.float64),
        [b.tract_id for b in rows],
        polygon_layer([b.parts for b in rows]),
    )


def roads(rows: Iterable[Road]) -> Roads:
    rows = [Road(*row) for row in rows]
    xy = np.array([p for r in rows for p in r.line.vertices], dtype=np.float64).reshape(-1, 2)
    classes, codes = category_codes([r.road_class for r in rows])
    offsets = run_offsets([len(r.line.vertices) for r in rows])
    return Roads(xy[:, 0].copy(), xy[:, 1].copy(), offsets, classes, codes)


def pois(rows: Iterable[Poi]) -> Pois:
    rows = [Poi(*row) for row in rows]
    xy = np.array([p.location for p in rows], dtype=np.float64).reshape(-1, 2)
    categories, codes = category_codes([p.category for p in rows])
    return Pois(xy[:, 0].copy(), xy[:, 1].copy(), categories, codes)


def districts(rows: Iterable[District]) -> Districts:
    rows = list(rows)
    return Districts([d.name for d in rows], polygon_layer([d.perimeter for d in rows]))
