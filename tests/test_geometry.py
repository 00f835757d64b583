import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact import geometry
from fireimpact.errors import GeometryError
from fireimpact.geometry import (
    _DI,
    _DJ,
    Point,
    PolygonLayer,
    RingArrays,
    _corner_xy,
    _ramp,
    points_in_polygon,
    project_lonlat,
    ragged_cell_indices,
    run_offsets,
    segment_sums,
    trace_mask_rings,
    unproject_to_lonlat,
)
from fireimpact.grid import AnalysisGrid, Mask

import layer_tables as tables
from layer_tables import (
    PolyLine,
    Polygon,
    features_cell_indices,
    line_cells,
    polygon_area,
    polygon_layer,
    rasterize_polygons,
)


def unit_square(size=1.0):
    return Polygon([Point(0, 0), Point(size, 0), Point(size, size), Point(0, size)])


def rect(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


def members(xs, ys, parts):
    """Which of the points :func:`points_in_polygon` puts inside the one
    feature made of the polygons ``parts``."""
    [inside] = points_in_polygon(xs, ys, polygon_layer([parts]))
    return inside


def winding_number_inside(p, ring):
    """Independent winding-number membership for non-self-intersecting rings."""
    wn = 0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if y1 <= p.y:
            if y2 > p.y and (x2 - x1) * (p.y - y1) - (p.x - x1) * (y2 - y1) > 0:
                wn += 1
        elif y2 <= p.y and (x2 - x1) * (p.y - y1) - (p.x - x1) * (y2 - y1) < 0:
            wn -= 1
    return wn != 0


class TestProjection:
    def test_origin_maps_to_origin(self):
        assert project_lonlat(-118.2, 34.1, -118.2, 34.1) == Point(0.0, 0.0)

    def test_latitude_offset(self):
        p = project_lonlat(-118.2, 34.11, -118.2, 34.1)
        assert p.x == 0.0
        assert p.y == pytest.approx(6_371_000 * 0.01 * math.pi / 180, abs=1e-6)
        assert p.y == pytest.approx(1111.95, abs=0.01)

    def test_longitude_offset_scales_with_cos(self):
        p = project_lonlat(10.01, 60.0, 10.0, 60.0)
        assert p.y == 0.0
        assert p.x == pytest.approx(1111.9493 * math.cos(math.radians(60)), abs=1e-3)

    def test_unproject_round_trip(self):
        lon, lat = unproject_to_lonlat(Point(1234.5, -987.6), -118.2, 34.1)
        p = project_lonlat(lon, lat, -118.2, 34.1)
        assert p.x == pytest.approx(1234.5, abs=1e-8)
        assert p.y == pytest.approx(-987.6, abs=1e-8)


class TestPointInPolygon:
    def test_center_of_unit_square(self):
        assert members([0.5], [0.5], [unit_square()]).tolist() == [True]

    def test_obvious_exterior(self):
        assert members([2], [2], [unit_square()]).tolist() == [False]

    def test_point_inside_hole_is_outside(self):
        poly = Polygon(
            [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)],
            holes=[[Point(1, 1), Point(3, 1), Point(3, 3), Point(1, 3)]],
        )
        assert members([2, 0.5], [2, 2], [poly]).tolist() == [False, True]

    def test_degenerate_ring_rejected(self):
        with pytest.raises(GeometryError):
            Polygon([Point(0, 0), Point(1, 1), Point(0, 0)])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_winding_number_on_convex(self, seed):
        rng = np.random.default_rng(seed)
        # Random convex polygon: points on a circle, sorted by angle.
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=rng.integers(3, 9)))
        if len(np.unique(angles)) < 3:
            return
        ring = [Point(5 + 3 * math.cos(a), 5 + 3 * math.sin(a)) for a in angles]
        try:
            poly = Polygon(ring)
        except GeometryError:
            return
        pts = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(20)]
        got = members([p.x for p in pts], [p.y for p in pts], [poly])
        assert got.tolist() == [winding_number_inside(p, poly.exterior) for p in pts]


def area(poly):
    return float(polygon_layer([[poly]]).areas()[0])


class TestPolygonArea:
    def test_unit_square(self):
        assert area(unit_square()) == 1.0

    def test_20m_square_is_the_cell_area(self):
        assert area(unit_square(20.0)) == 400.0

    def test_3_4_5_triangle(self):
        tri = Polygon([Point(0, 0), Point(4, 0), Point(0, 3)])
        assert area(tri) == 6.0

    def test_holes_subtract(self):
        poly = Polygon(
            [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)],
            holes=[[Point(1, 1), Point(2, 1), Point(2, 2), Point(1, 2)]],
        )
        assert area(poly) == 15.0


class TestRasterizePolygon:
    def test_polygon_covering_whole_grid(self):
        g = AnalysisGrid(0, 0, 20, 5, 5)
        poly = Polygon([Point(-1, -1), Point(101, -1), Point(101, 101), Point(-1, 101)])
        assert rasterize_polygons([poly], g).popcount() == 25

    def test_axis_aligned_rectangle_hits_exact_center_range(self):
        g = AnalysisGrid(0, 0, 20, 10, 10)
        # Covers centers of cols 2..5 and rows 3..7 and nothing else.
        # Col c center x = 20c+10; row r center y = 200-20r-10.
        poly = Polygon([Point(45, 45), Point(115, 45), Point(115, 135), Point(45, 135)])
        mask = rasterize_polygons([poly], g)
        want = np.zeros((10, 10), dtype=bool)
        want[3:8, 2:6] = True
        assert np.array_equal(mask.bits, want)

    def test_triangle_matches_per_cell_loop(self):
        g = AnalysisGrid(0, 0, 20, 10, 10)
        tri = Polygon([Point(10, 10), Point(190, 30), Point(70, 180)])
        mask = rasterize_polygons([tri], g)
        xs, ys = np.meshgrid(g.center_xs(), g.center_ys())
        assert np.array_equal(mask.bits, tables.points_in_polygon(xs, ys, tri))

    def test_polygon_outside_grid_gives_empty_mask(self):
        g = AnalysisGrid(0, 0, 20, 4, 4)
        poly = Polygon([Point(500, 500), Point(600, 500), Point(600, 600)])
        assert rasterize_polygons([poly], g).popcount() == 0

    def test_shared_edge_partitions_cells(self):
        # Two rectangles sharing the x=50 edge: every center claimed once.
        g = AnalysisGrid(0, 0, 20, 5, 5)
        left = Polygon([Point(-1, -1), Point(50, -1), Point(50, 101), Point(-1, 101)])
        right = Polygon([Point(50, -1), Point(101, -1), Point(101, 101), Point(50, 101)])
        lm = rasterize_polygons([left], g)
        rm = rasterize_polygons([right], g)
        assert not np.any(lm.bits & rm.bits)
        assert np.all(lm.bits | rm.bits)

    def test_hole_matches_per_cell_loop(self):
        g = AnalysisGrid(0, 0, 20, 10, 10)
        poly = Polygon(
            [Point(5, 5), Point(195, 5), Point(195, 195), Point(5, 195)],
            holes=[[Point(45, 45), Point(135, 45), Point(135, 135), Point(45, 135)]],
        )
        mask = rasterize_polygons([poly], g)
        xs, ys = np.meshgrid(g.center_xs(), g.center_ys())
        assert np.array_equal(mask.bits, tables.points_in_polygon(xs, ys, poly))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_points_in_polygon_on_edges_through_centers(self, seed):
        rng = np.random.default_rng(seed)
        size = float(rng.choice([0.1, 1.0, 3.0, 20.0]))
        n_rows, n_cols = (int(n) for n in rng.integers(4, 17, 2))
        # Near origins, and far ones where (y - origin_y) / cell_size rounds.
        reach = int(rng.choice([20, 2**24]))
        x0, y0 = (float(v) for v in rng.integers(-reach, reach + 1, 2) * size)
        g = AnalysisGrid(x0, y0, size, n_rows, n_cols)

        def ring():
            # A walk between cell centers: a step of k * (a, b) cells passes
            # through k - 1 more centers; rings may cross themselves.
            c, r = int(rng.integers(0, n_cols)), int(rng.integers(0, n_rows))
            pts = []
            for _ in range(int(rng.integers(3, 7))):
                pts.append(Point(g.center_x(c), g.center_y(r)))
                a, b = rng.integers(-4, 5, 2) * rng.integers(2, 6)
                c, r = c + int(a), r + int(b)
            return pts

        polys = []  # one multipolygon, parts with up to two holes
        for _ in range(int(rng.integers(1, 5))):
            try:
                polys.append(Polygon(ring(), [ring() for _ in range(int(rng.integers(0, 3)))]))
            except GeometryError:  # a walk with fewer than three distinct centers
                pass
        xs, ys = np.meshgrid(g.center_xs(), g.center_ys())
        want = np.zeros(g.shape, dtype=bool)
        for poly in polys:
            want |= tables.points_in_polygon(xs, ys, poly)
        assert np.array_equal(rasterize_polygons(polys, g).bits, want)


def row_scan_cells(polys, g):
    """Flat cell ids from the per-row scanline that tests every edge on every row.

    An independent per-row oracle: on every row within a polygon's y
    extent it tests each edge with PNPOLY's ``(y1 > y) != (y2 > y)``, one
    polygon and one row at a time.
    """
    out = set()
    centers_x = g.center_xs()
    for poly in polys:
        rings = poly.rings()
        x1 = np.array([p.x for ring in rings for p in ring[:-1]])
        y1 = np.array([p.y for ring in rings for p in ring[:-1]])
        x2 = np.array([p.x for ring in rings for p in ring[1:]])
        y2 = np.array([p.y for ring in rings for p in ring[1:]])
        min_y, max_y = min(y1.min(), y2.min()), max(y1.max(), y2.max())
        r_hi = g.n_rows - 1 - math.floor((min_y - g.origin_y) / g.cell_size - 0.5)
        r_lo = g.n_rows - 1 - math.ceil((max_y - g.origin_y) / g.cell_size - 0.5)
        dx, dy = x2 - x1, y2 - y1
        for row in range(max(r_lo, 0), min(r_hi, g.n_rows - 1) + 1):
            y = g.center_y(row)
            hit = (y1 > y) != (y2 > y)
            crossings = np.sort(x1[hit] + (y - y1[hit]) * dx[hit] / dy[hit])
            a = np.searchsorted(centers_x, crossings[0::2], side="left")
            b = np.searchsorted(centers_x, crossings[1::2], side="left")
            for lo, hi in zip(a.tolist(), b.tolist()):
                out.update(row * g.n_cols + c for c in range(lo, hi))
    return sorted(out)


def center_rule_cells(polys, g):
    """Flat cell ids whose centers the object even-odd test puts inside a polygon."""
    xs = np.array([g.center_x(c) for r in range(g.n_rows) for c in range(g.n_cols)])
    ys = np.array([g.center_y(r) for r in range(g.n_rows) for c in range(g.n_cols)])
    inside = np.zeros(xs.size, dtype=bool)
    for p in polys:
        inside |= tables.points_in_polygon(xs, ys, p)
    return np.flatnonzero(inside).tolist()


def random_part(rng, g):
    """One polygon, possibly with a hole, possibly partly or wholly off the grid.

    Slanted rings snapped to the half-cell lattice put crossings exactly on
    cell centers. Returns None if snapping collapsed a ring.
    """
    half = g.cell_size / 2
    cx = g.origin_x + rng.uniform(-0.5, 1.5) * g.n_cols * g.cell_size
    cy = g.origin_y + rng.uniform(-0.5, 1.5) * g.n_rows * g.cell_size
    kind = rng.integers(0, 3)
    if kind == 0:
        # Rectilinear, vertices on cell centers and cell edges.
        cx, cy = round(cx / half) * half, round(cy / half) * half
        w, h = rng.integers(1, 12, size=2) * half
        outer = [(cx - w, cy - h), (cx + w, cy - h), (cx + w, cy + h), (cx - w, cy + h)]
        hole = None
        if w > half and h > half and rng.random() < 0.5:
            hw, hh = w - half, h - half
            hole = [(cx - hw, cy - hh), (cx + hw, cy - hh), (cx + hw, cy + hh), (cx - hw, cy + hh)]
    else:
        n = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0, 2 * math.pi, n))
        radii = rng.uniform(0.5, 6.0, n) * g.cell_size
        outer = [(cx + r * math.cos(a), cy + r * math.sin(a)) for r, a in zip(radii, angles)]
        hole = [(cx + 0.4 * (x - cx), cy + 0.4 * (y - cy)) for x, y in outer]
        if kind == 2:
            outer = [(round(x / half) * half, round(y / half) * half) for x, y in outer]
            hole = [(round(x / half) * half, round(y / half) * half) for x, y in hole]
        if rng.random() < 0.5:
            hole = None
    holes = [[Point(*q) for q in hole]] if hole else []
    try:
        return Polygon([Point(*q) for q in outer], holes)
    except GeometryError:
        return None


def random_features(rng, g, n):
    features = []
    for _ in range(n):
        parts = (random_part(rng, g) for _ in range(int(rng.integers(0, 4))))
        features.append([p for p in parts if p is not None])
    return features


def random_grid(rng):
    return AnalysisGrid(
        float(rng.uniform(-100, 100)),
        float(rng.uniform(-100, 100)),
        float(rng.choice([1.0, 20.0, 0.3])),
        int(rng.integers(1, 16)),
        int(rng.integers(1, 16)),
    )


def slices(cells, offsets):
    return [cells[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]


class TestFeaturesCellIndices:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_slices_match_cell_center_oracles(self, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        features = random_features(rng, g, int(rng.integers(1, 7)))
        cells, offsets = features_cell_indices(features, g)
        assert offsets[0] == 0 and offsets[-1] == cells.size
        for parts, got in zip(features, slices(cells, offsets)):
            assert got == row_scan_cells(parts, g)
            assert got == center_rule_cells(parts, g)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_slices_ignore_neighbours_and_batches(self, seed, batch):
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        features = random_features(rng, g, int(rng.integers(1, 12)))
        alone = [features_cell_indices([f], g)[0].tolist() for f in features]
        with mock.patch.object(geometry, "FEATURE_BATCH", batch):
            batched = slices(*features_cell_indices(features, g))
        assert batched == alone
        order = rng.permutation(len(features))
        shuffled = slices(*features_cell_indices([features[k] for k in order], g))
        assert shuffled == [alone[k] for k in order]

    def test_empty_and_off_grid_features_give_empty_slices(self):
        g = AnalysisGrid(0, 0, 20, 5, 5)
        cells, offsets = features_cell_indices([], g)
        assert cells.size == 0 and offsets.tolist() == [0]
        inside = Polygon([Point(25, 25), Point(75, 25), Point(75, 75), Point(25, 75)])
        west = Polygon([Point(-90, 10), Point(-10, 10), Point(-10, 90)])
        south = Polygon([Point(10, -90), Point(90, -90), Point(50, -10)])
        between_centers = Polygon([Point(21, 21), Point(29, 21), Point(29, 29), Point(21, 29)])
        features = [[], [west], [inside], [west, south], [between_centers], []]
        got = slices(*features_cell_indices(features, g))
        assert got == [[], [], [6, 7, 8, 11, 12, 13, 16, 17, 18], [], [], []]


@st.composite
def quarter_cell_scenes(draw):
    """Grid shape and south-west corner (whole cells), features and points,
    every coordinate an integer number of quarter cells. Features are
    MultiPolygons whose polygons have up to two holes; rings may cross."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    i0, j0 = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
    vertex = st.tuples(st.integers(4 * i0 - 8, 4 * (i0 + n_cols) + 8),
                       st.integers(4 * j0 - 8, 4 * (j0 + n_rows) + 8))
    ring = st.lists(vertex, min_size=3, max_size=6)
    polygon = st.lists(ring, min_size=1, max_size=3)  # exterior, then holes
    features = draw(st.lists(st.lists(polygon, max_size=3), min_size=1, max_size=4))
    points = draw(st.lists(vertex, max_size=40))
    return (n_rows, n_cols, i0, j0), features, points


class TestWholeCellTranslation:
    """Moving the grid and every feature by whole cells changes no cell and
    no membership: every coordinate and every difference is exact."""

    @given(
        quarter_cell_scenes(),
        st.sampled_from([0.25, 1.0, 4.0, 20.0]),
        st.integers(-(2**20), 2**20) | st.sampled_from([-(2**20), 2**20]),
        st.integers(-(2**20), 2**20) | st.sampled_from([-(2**20), 2**20]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_cells_offsets_and_points_inside(self, scene, size, di, dj):
        (n_rows, n_cols, i0, j0), features, points = scene
        rings = [r for f in features for p in f for r in p]
        closed = np.array([q for r in rings for q in [*r, r[0]]], dtype=np.int64).reshape(-1, 2)
        pts = np.array(points, dtype=np.int64).reshape(-1, 2)
        offsets = (
            run_offsets([len(r) + 1 for r in rings]),
            run_offsets([len(p) for f in features for p in f]),
            run_offsets([len(f) for f in features]),
        )
        quarter = size / 4

        def overlays(i, j):
            grid = AnalysisGrid((i0 + i) * size, (j0 + j) * size, size, n_rows, n_cols)
            xy = (closed + [4 * i, 4 * j]) * quarter
            layer = PolygonLayer(xy[:, 0].copy(), xy[:, 1].copy(), *offsets)
            px, py = ((pts + [4 * i, 4 * j]) * quarter).T
            cells, cell_offsets = ragged_cell_indices(*layer, grid)
            return cells.tolist(), cell_offsets.tolist(), points_in_polygon(px, py, layer).tolist()

        assert overlays(di, dj) == overlays(0, 0)


class TestSegmentSums:
    # Lengths cross numpy's 8-lane unrolled loop and its 128-term pairwise
    # block; a sequential np.add.reduceat rounds differently from 8 terms on.
    @given(
        st.lists(st.integers(0, 300) | st.sampled_from([0, 7, 8, 9, 127, 128, 129]), max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_sum_has_the_bits_of_its_own_sum(self, lengths, seed):
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        starts = np.cumsum(lengths, dtype=np.int64) - lengths
        want = [values[a:a + k].sum() for a, k in zip(starts.tolist(), lengths)]
        assert segment_sums(values, starts).tobytes() == np.array(want).tobytes()

    @given(st.lists(st.integers(0, 40), max_size=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_explicit_lengths_in_any_order(self, lengths, seed):
        # Segments listed out of order, with gaps between them.
        rng = np.random.default_rng(seed)
        gaps = rng.integers(0, 3, len(lengths))
        starts = np.cumsum(np.add(lengths, gaps), dtype=np.int64) - lengths
        values = rng.standard_normal(int(starts[-1]) + lengths[-1] + 2 if lengths else 0)
        order = rng.permutation(len(lengths))
        starts, lengths = starts[order], np.array(lengths, dtype=np.int64)[order]
        pairwise = [values[a:a + k].sum() for a, k in zip(starts.tolist(), lengths.tolist())]
        sequential = []
        for a, k in zip(starts.tolist(), lengths.tolist()):
            total = 0.0
            for v in values[a:a + k].tolist():
                total += v
            sequential.append(total)
        got = segment_sums(values, starts, lengths)
        assert got.tobytes() == np.array(pairwise, dtype=np.float64).tobytes()
        got = segment_sums(values, starts, lengths, sequential=True)
        assert got.tobytes() == np.array(sequential, dtype=np.float64).tobytes()


class TestPolygonLayer:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_areas_have_the_bits_of_polygon_area(self, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        features = random_features(rng, g, int(rng.integers(1, 12)))
        features.append([random_part(rng, g) or unit_square() for _ in range(4)])
        want = [math.fsum(polygon_area(p) for p in parts) for parts in features]
        got = polygon_layer(features).areas()
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()


class TestRasterizePolyline:
    def test_horizontal_segment_across_three_cells(self):
        g = AnalysisGrid(0, 0, 20, 3, 3)
        line = PolyLine([Point(0, 30), Point(60, 30)])
        lengths = line_cells(line, g)
        assert lengths == {
            (1, 0): pytest.approx(20.0),
            (1, 1): pytest.approx(20.0),
            (1, 2): pytest.approx(20.0),
        }

    def test_segment_within_one_cell(self):
        g = AnalysisGrid(0, 0, 20, 3, 3)
        line = PolyLine([Point(2, 2), Point(9, 2)])
        lengths = line_cells(line, g)
        assert lengths == {(2, 0): pytest.approx(7.0)}

    def test_diagonal_segment_analytic(self):
        g = AnalysisGrid(0, 0, 20, 2, 2)
        line = PolyLine([Point(0, 0), Point(40, 40)])
        lengths = line_cells(line, g)
        # Diagonal through cells (1,0) and (0,1): sqrt(2)*20 each.
        assert lengths[(1, 0)] == pytest.approx(20 * math.sqrt(2), rel=1e-12)
        assert lengths[(0, 1)] == pytest.approx(20 * math.sqrt(2), rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_length_conservation(self, seed):
        rng = np.random.default_rng(seed)
        g = AnalysisGrid(0, 0, 20, 8, 8)
        n = int(rng.integers(2, 6))
        pts = [Point(rng.uniform(5, 155), rng.uniform(5, 155)) for _ in range(n)]
        pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        if len(pts) < 2:
            return
        line = PolyLine(pts)
        total = sum(line_cells(line, g).values())
        assert total == pytest.approx(line.length(), rel=1e-9)

    def test_length_split_out_of_grid(self):
        g = AnalysisGrid(0, 0, 20, 2, 2)
        line = PolyLine([Point(-20, 10), Point(20, 10)])
        lengths = line_cells(line, g)
        assert sum(lengths.values()) == pytest.approx(20.0, rel=1e-12)


class TestTraceMaskBoundary:
    def test_empty_mask(self):
        g = AnalysisGrid(0, 0, 20, 4, 4)
        rings = trace_mask_rings(Mask.empty(g))
        assert [a.tolist() for a in rings] == [[], [0], [0]]

    def test_single_cell_square(self):
        g = AnalysisGrid(0, 0, 20, 3, 3)
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        rings = trace_mask_rings(Mask(g, bits))
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        assert layer.areas().tolist() == pytest.approx([400.0])
        assert rings.ring_offsets.tolist() == [0, 5]  # one exterior of 5 corners, no hole
        assert rings.polygon_offsets.tolist() == [0, 1]

    def test_diagonal_cells_stay_separate(self):
        g = AnalysisGrid(0, 0, 20, 2, 2)
        bits = np.array([[True, False], [False, True]])
        rings = trace_mask_rings(Mask(g, bits))
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        cells, _ = ragged_cell_indices(*layer, g)
        assert layer.areas().tolist() == pytest.approx([400.0, 400.0])
        assert np.array_equal(np.unique(cells), np.flatnonzero(bits))

    def test_ring_with_hole(self):
        g = AnalysisGrid(0, 0, 20, 3, 3)
        bits = np.ones((3, 3), dtype=bool)
        bits[1, 1] = False
        rings = trace_mask_rings(Mask(g, bits))
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        cells, _ = ragged_cell_indices(*layer, g)
        assert np.array_equal(np.unique(cells), np.flatnonzero(bits))
        assert layer.areas().sum() == pytest.approx(8 * 400.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random_masks(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        g = AnalysisGrid(0, 0, 20, n, n)
        bits = rng.random((n, n)) < density
        rings = trace_mask_rings(Mask(g, bits))
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        cells, _ = ragged_cell_indices(*layer, g)
        assert np.array_equal(np.unique(cells), np.flatnonzero(bits))

    def test_round_trip_pinched_region_with_hole(self):
        g = AnalysisGrid(0, 0, 20, 3, 4)
        bits = np.array(
            [
                [True, True, True, True],
                [True, True, False, True],
                [False, False, True, True],
            ]
        )
        rings = trace_mask_rings(Mask(g, bits))
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        cells, _ = ragged_cell_indices(*layer, g)
        assert np.array_equal(np.unique(cells), np.flatnonzero(bits))

    def test_round_trip_exhaustive_small_grids(self):
        # All 16 2x2 masks and all 512 3x3 masks.
        for n in (2, 3):
            g = AnalysisGrid(0, 0, 20, n, n)
            for code in range(2 ** (n * n)):
                bits = np.array(
                    [(code >> i) & 1 for i in range(n * n)], dtype=bool
                ).reshape(n, n)
                rings = trace_mask_rings(Mask(g, bits))
                layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                                     rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
                cells, _ = ragged_cell_indices(*layer, g)
                assert np.array_equal(np.unique(cells), np.flatnonzero(bits)), code


# The tracer's former loop building and hole matching, kept verbatim as the
# reference the array tracer must equal polygon for polygon.


def _point_in_ring(x: float, y: float, ring: list[Point]) -> bool:
    """PNPOLY crossing test against one closed ring."""
    inside = False
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return inside


# Directions on the corner lattice, as (di, dj) with i increasing south.
_E = (0, 1)
_W = (0, -1)
_N = (-1, 0)
_S = (1, 0)


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


def reference_trace_mask_boundary(m, owner_raster=False):
    """The tracer built from its former loop helpers.

    Each hole goes to the first exterior, in ascending area, whose ring
    contains the center of the false cell to the right of the hole's first
    edge: found by a PNPOLY scan per hole or, with ``owner_raster``, as the
    lowest exterior index covering that cell in one batched rasterization
    of the exteriors (the scan is too slow for large masks).
    """
    grid = m.grid
    edges = _boundary_edges(m.bits)
    if not edges:
        return []
    loops = _link_loops(edges)

    exteriors = []
    holes = []
    for loop in loops:
        ring_xy = [Point(grid.corner_x(j), grid.corner_y(i)) for i, j in loop]
        area = tables._ring_area_signed(ring_xy + [ring_xy[0]])
        if area > 0:
            exteriors.append((area, loop))
        else:
            holes.append(loop)

    exteriors.sort(key=lambda item: item[0])
    ext_rings = [
        _corners_to_ring(loop, grid) for _, loop in exteriors
    ]
    ext_holes = [[] for _ in exteriors]
    if owner_raster and holes:
        cells, offsets = features_cell_indices([[Polygon(r)] for r in ext_rings], grid)
        exterior_of_cell = np.repeat(np.arange(len(ext_rings)), np.diff(offsets))
        owner = np.full(grid.n_rows * grid.n_cols, len(ext_rings))
        np.minimum.at(owner, cells, exterior_of_cell)
    for hole in holes:
        (i0, j0), (i1, j1) = hole[0], hole[1]
        cell = _right_cell((i0, j0), (i1 - i0, j1 - j0))
        if owner_raster:
            idx = owner[cell[0] * grid.n_cols + cell[1]]
            ext_holes[idx].append(_corners_to_ring(hole, grid))
            continue
        px = grid.center_x(cell[1])
        py = grid.center_y(cell[0])
        for idx, ring in enumerate(ext_rings):
            if _point_in_ring(px, py, ring):
                ext_holes[idx].append(_corners_to_ring(hole, grid))
                break

    polys = [
        Polygon(ring, hs) for ring, hs in zip(ext_rings, ext_holes)
    ]
    polys.sort(key=lambda p: (p.exterior[0].y, p.exterior[0].x))
    return polys


def assert_same_polygons(rings, polys, grid):
    """``rings`` hold the corners of ``polys``, ring for ring and polygon
    for polygon."""
    want = polygon_layer([polys])
    xs, ys = _corner_xy(grid, rings.corners)
    assert np.array_equal(xs, want.xs) and np.array_equal(ys, want.ys)
    assert np.array_equal(rings.ring_offsets, want.ring_offsets)
    assert np.array_equal(rings.polygon_offsets, want.polygon_offsets)


def nested_squares(n):
    """Concentric square bands alternating true / false from the border in."""
    r, c = np.indices((n, n))
    return np.minimum.reduce([r, c, n - 1 - r, n - 1 - c]) % 2 == 0


class TestHoleMatching:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_masks(self, seed, n_rows, n_cols, density):
        rng = np.random.default_rng(seed)
        g = AnalysisGrid(
            float(rng.uniform(-100, 100)),
            float(rng.uniform(-100, 100)),
            float(rng.choice([1.0, 20.0, 0.3])),
            n_rows,
            n_cols,
        )
        m = Mask(g, rng.random((n_rows, n_cols)) < density)
        assert_same_polygons(trace_mask_rings(m), reference_trace_mask_boundary(m), g)

    def test_nested_islands_and_holes(self):
        # Exterior > hole > island > hole > island, one cell at the center.
        g = AnalysisGrid(0, 0, 20, 9, 9)
        m = Mask(g, nested_squares(9))
        rings = trace_mask_rings(m)
        layer = PolygonLayer(*_corner_xy(g, rings.corners), rings.ring_offsets,
                             rings.polygon_offsets, np.arange(len(rings.polygon_offsets)))
        cells, _ = ragged_cell_indices(*layer, g)
        assert_same_polygons(rings, reference_trace_mask_boundary(m), g)
        holes = np.diff(rings.polygon_offsets) - 1
        got = sorted(zip((layer.areas() / g.cell_area).tolist(), holes.tolist()))
        assert got == [(1.0, 0), (16.0, 1), (32.0, 1)]
        assert np.array_equal(np.unique(cells), np.flatnonzero(m.bits))

    def test_dense_mask_with_many_holes(self):
        rng = np.random.default_rng(62)
        g = AnalysisGrid(0, 0, 20, 100, 100)
        m = Mask(g, rng.random((100, 100)) < 0.62)
        rings = trace_mask_rings(m)
        assert_same_polygons(rings, reference_trace_mask_boundary(m), g)
        assert len(rings.ring_offsets) - len(rings.polygon_offsets) >= 100  # holes

    def test_no_rasterizer_call_and_no_pnpoly(self):
        g = AnalysisGrid(0, 0, 20, 9, 9)
        m = Mask(g, nested_squares(9))
        with mock.patch.object(
            geometry, "ragged_cell_indices", wraps=geometry.ragged_cell_indices
        ) as rasterizer, mock.patch.object(
            geometry, "points_in_polygon", side_effect=AssertionError("PNPOLY scan")
        ):
            rings = trace_mask_rings(m)
        assert rasterizer.call_count == 0
        assert len(rings.ring_offsets) - len(rings.polygon_offsets) == 2  # holes


class TestArrayTracer:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.0, 0.3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_saddle_heavy_masks(self, seed, n_rows, n_cols, flip):
        # A checkerboard has a saddle at every interior corner; flipping a
        # few cells keeps the density near 0.5 and mixes in larger regions.
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        g = AnalysisGrid(g.origin_x, g.origin_y, g.cell_size, n_rows, n_cols)
        r, c = np.indices((n_rows, n_cols))
        m = Mask(g, ((r + c) % 2 == 0) ^ (rng.random((n_rows, n_cols)) < flip))
        assert_same_polygons(trace_mask_rings(m), reference_trace_mask_boundary(m), g)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_matches_reference_on_benchmark_sized_dense_mask(self, seed):
        # The size of the benchmark's grids, above the percolation density.
        rng = np.random.default_rng(seed)
        g = AnalysisGrid(0, 0, 20, 208, 416)
        m = Mask(g, rng.random((208, 416)) < 0.62)
        rings = trace_mask_rings(m)
        assert_same_polygons(rings, reference_trace_mask_boundary(m, owner_raster=True), g)
        assert len(rings.ring_offsets) - len(rings.polygon_offsets) > 1000  # holes


def reference_trace_mask_rings(m: Mask) -> RingArrays:
    """The former array tracer, whose holes find their exterior through one
    rasterization of every exterior (an owner raster).

    Vectorize a mask into polygons that follow cell edges.

    Each true cell contributes its square; shared edges dissolve. Loops
    are oriented with the true region on the left, so exteriors come out
    counterclockwise and holes clockwise; each hole is attached to the
    smallest exterior that contains it. At corners where two true cells
    touch only diagonally the trace keeps them in separate loops, which
    keeps every ring simple. Rasterizing the result reproduces ``m``.

    Loops are the cycles of a successor map on directed boundary edges
    (left turns at saddle corners), found by pointer doubling and list
    ranking, so no Python loop runs over edges or corners. Each ring
    starts at its loop's smallest corner and keeps only the corners where
    the direction changes. Polygons are ordered by the (y, x) of their
    exterior's first vertex; holes follow their exterior in loop order,
    loops being ordered by (smallest corner, first target).
    """
    grid = m.grid
    n_rows, n_cols = m.bits.shape
    width = n_cols + 1
    start, rank = reference_directed_edges(m.bits)
    n = len(start)
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
    n_vertices = np.add.reduceat(turn.astype(np.int64), loop_start)
    ring_start = np.cumsum(n_vertices) - n_vertices

    def closed(loops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The loops' corners, each ring closed, and their ring offsets."""
        sizes = n_vertices[loops] + 1
        within = _ramp(sizes) % np.repeat(n_vertices[loops], sizes)
        return corner[np.repeat(ring_start[loops], sizes) + within], run_offsets(sizes)

    exteriors = np.flatnonzero(area2 > 0)
    exteriors = exteriors[np.argsort(area2[exteriors], kind="stable")]
    holes = np.flatnonzero(area2 < 0)
    hole_exterior = np.zeros(0, dtype=np.int64)
    if holes.size:
        # Exteriors ascend by area, so the lowest exterior index covering a
        # cell center is the smallest exterior around that cell.
        ext_corners, ext_offsets = closed(exteriors)
        each = np.arange(len(exteriors) + 1)
        cells, offsets = ragged_cell_indices(
            *_corner_xy(grid, ext_corners), ext_offsets, each, each, grid
        )
        exterior_of_cell = np.repeat(np.arange(len(exteriors)), np.diff(offsets))
        owner = np.full(n_rows * n_cols, len(exteriors))
        np.minimum.at(owner, cells, exterior_of_cell)
        # A hole's first edge starts at its smallest corner, so it heads
        # east along the top of the hole's top-left false cell (i, j).
        e0 = heads[holes]
        hole_exterior = owner[i[e0] * n_cols + j[e0]]

    # Polygon of each ring: exteriors by the position of their first
    # vertex, then each exterior's holes.
    xs, ys = _corner_xy(grid, corner[ring_start[exteriors]])
    position = np.empty(len(exteriors), dtype=np.int64)
    position[np.lexsort((xs, ys))] = np.arange(len(exteriors))
    polygon = np.concatenate([position, position[hole_exterior]])
    is_hole = np.arange(len(polygon)) >= len(exteriors)
    loops = np.concatenate([exteriors, holes])[np.lexsort((is_hole, polygon))]
    corners, ring_offsets = closed(loops)
    rings_per_polygon = np.bincount(polygon, minlength=len(exteriors))
    return RingArrays(corners, ring_offsets, run_offsets(rings_per_polygon))


def reference_directed_edges(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


@st.composite
def tracer_masks(draw):
    """Masks of every shape the tracer's cases turn on: random densities,
    saddles at most corners, nested islands and holes, true cells on the
    grid border, single rows and columns, and empty and full masks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "saddle", "nested", "border", "empty", "full"]))
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["any", "row", "column"]))
    if shape == "row":
        n_rows = 1
    elif shape == "column":
        n_cols = 1
    if kind == "nested":
        n_rows = n_cols = max(n_rows, n_cols)
    r, c = np.indices((n_rows, n_cols))
    noise = rng.random((n_rows, n_cols)) < draw(st.floats(0.0, 1.0))
    bits = {
        "random": noise,
        "saddle": ((r + c) % 2 == 0) ^ (rng.random((n_rows, n_cols)) < 0.1),
        "nested": nested_squares(n_rows),
        "border": noise | (r == 0) | (c == 0) | (r == n_rows - 1) | (c == n_cols - 1),
        "empty": np.zeros((n_rows, n_cols), dtype=bool),
        "full": np.ones((n_rows, n_cols), dtype=bool),
    }[kind]
    g = random_grid(rng)
    return Mask(AnalysisGrid(g.origin_x, g.origin_y, g.cell_size, n_rows, n_cols), bits)


class TestRingArraysMatchReference:
    @given(tracer_masks())
    @settings(max_examples=300, deadline=None)
    def test_equal_ring_arrays(self, m):
        got, want = trace_mask_rings(m), reference_trace_mask_rings(m)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_benchmark_sized_dense_mask(self):
        rng = np.random.default_rng(11)
        m = Mask(AnalysisGrid(0, 0, 20, 208, 416), rng.random((208, 416)) < 0.62)
        got, want = trace_mask_rings(m), reference_trace_mask_rings(m)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def reference_point_in_polygon(p, poly):
    """The former scalar even-odd test, one ring at a time."""
    inside = False
    for ring in poly.rings():
        if _point_in_ring(p.x, p.y, ring):
            inside = not inside
    return inside


class TestPointsInPolygon:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_test_on_and_off_the_boundary(self, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        poly = None
        while poly is None:
            poly = random_part(rng, g)
        ring_pts = np.array([q for ring in poly.rings() for q in ring[:-1]])
        ends = np.array([q for ring in poly.rings() for q in ring[1:]])
        t = rng.random((len(ring_pts), 1))
        lo, hi = ring_pts.min(axis=0) - g.cell_size, ring_pts.max(axis=0) + g.cell_size
        pts = np.concatenate([
            ring_pts,                          # vertices
            (ring_pts + ends) / 2,             # edge midpoints
            ring_pts + t * (ends - ring_pts),  # other points on edges
            rng.uniform(lo, hi, (100, 2)),
        ])
        got = members(pts[:, 0], pts[:, 1], [poly])
        want = [reference_point_in_polygon(Point(x, y), poly) for x, y in pts.tolist()]
        assert got.tolist() == want
        vertices = pts[:len(ring_pts)].tolist()
        one_at_a_time = [members([x], [y], [poly])[0] for x, y in vertices]
        assert one_at_a_time == want[:len(vertices)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_features_equal_the_object_test_of_their_parts(self, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        features = random_features(rng, g, int(rng.integers(0, 6)))
        corners = [q for parts in features for p in parts for ring in p.rings() for q in ring]
        lo = (g.origin_x - g.cell_size, g.origin_y - g.cell_size)
        hi = (g.max_x + g.cell_size, g.max_y + g.cell_size)
        pts = np.concatenate([np.array(corners).reshape(-1, 2), rng.uniform(lo, hi, (60, 2))])
        pts = pts[rng.permutation(len(pts))]
        got = points_in_polygon(pts[:, 0], pts[:, 1], polygon_layer(features))
        assert got.shape == (len(features), len(pts))
        for parts, inside in zip(features, got):
            want = np.zeros(len(pts), dtype=bool)
            for poly in parts:
                want |= tables.points_in_polygon(pts[:, 0], pts[:, 1], poly)
            assert np.array_equal(inside, want)

    def test_no_points(self):
        layer = polygon_layer([[unit_square()]])
        assert points_in_polygon(np.zeros(0), np.zeros(0), layer).shape == (1, 0)


def half_open_rect(xs, ys, x0, y0, x1, y1):
    """Which points PNPOLY puts inside the axis-aligned rectangle: its
    west and south edges are in, its east and north edges out."""
    return (x0 <= xs) & (xs < x1) & (y0 <= ys) & (ys < y1)


class TestSplitDistrict:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_two_part_split_keeps_membership(self, seed, on_lattice):
        # A rectangle and the same rectangle cut at an interior x into a
        # two-polygon feature, with corners, and now and then the cut, on
        # the half-cell lattice, so that edges pass through cell centers.
        rng = np.random.default_rng(seed)
        g = random_grid(rng)
        half = g.cell_size / 2
        i0, i1 = sorted(rng.choice(np.arange(-3, 2 * g.n_cols + 4), 2, replace=False))
        j0, j1 = sorted(rng.choice(np.arange(-3, 2 * g.n_rows + 4), 2, replace=False))
        x0, x1 = g.origin_x + i0 * half, g.origin_x + i1 * half
        y0, y1 = g.origin_y + j0 * half, g.origin_y + j1 * half
        if on_lattice and i1 - i0 >= 2:
            cut = g.origin_x + int(rng.integers(i0 + 1, i1)) * half
        else:
            cut = float(x0 + (x1 - x0) * rng.uniform(0.01, 0.99))
        assert x0 < cut < x1
        whole = [rect(x0, y0, x1, y1)]
        split = [rect(x0, y0, cut, y1), rect(cut, y0, x1, y1)]
        layer = polygon_layer([whole, split])

        # Vertices, points on the cut, on each edge, and anywhere around.
        ty = rng.uniform(y0, y1, 8)
        tx = rng.uniform(x0, x1, 8)
        pts = np.concatenate([
            [(x, y) for x in (x0, cut, x1) for y in (y0, y1)],
            np.column_stack([np.full(8, cut), ty]),
            np.column_stack([np.full(8, x0), ty]),
            np.column_stack([np.full(8, x1), ty]),
            np.column_stack([tx, np.full(8, y0)]),
            np.column_stack([tx, np.full(8, y1)]),
            rng.uniform((x0 - half, y0 - half), (x1 + half, y1 + half), (40, 2)),
        ])
        pts = pts[rng.permutation(len(pts))]
        xs, ys = pts[:, 0], pts[:, 1]
        whole_in, split_in = points_in_polygon(xs, ys, layer)
        want = half_open_rect(xs, ys, x0, y0, x1, y1)
        assert np.array_equal(whole_in, want) and np.array_equal(split_in, want)

        cells = slices(*ragged_cell_indices(*layer, g))
        cx, cy = np.meshgrid(g.center_xs(), g.center_ys())
        want = np.flatnonzero(half_open_rect(cx.ravel(), cy.ravel(), x0, y0, x1, y1))
        assert cells[0] == cells[1] == want.tolist()
