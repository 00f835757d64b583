import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fireimpact import perimeters
from fireimpact.errors import ValidationError
from fireimpact.geometry import Point
from fireimpact.grid import AnalysisGrid, Mask
from fireimpact.perimeters import (
    DailyPerimeter,
    Detection,
    KdeParams,
    event_dates,
    extract_daily_perimeters,
    kde_surface,
    threshold_surface,
)

import layer_tables as tables
from layer_tables import Polygon, points_in_polygon, rasterize_polygons

D0 = dt.date(2025, 1, 7)


def det(x, y, day=0, frp=None):
    return Detection(Point(x, y), D0 + dt.timedelta(days=day), frp=frp)


def first_days(n):
    """The ``n`` dates from D0 on."""
    return [D0 + dt.timedelta(days=i) for i in range(n)]


def tables_by_date(points_by_date):
    """Each date's detections as a table."""
    return {day: tables.detections(points) for day, points in points_by_date.items()}


def brute_force_kde(points, grid, h, weights=None):
    """Untruncated double-loop oracle for the Gaussian KDE surface."""
    if weights is None:
        weights = [1.0] * len(points)
    out = np.zeros(grid.shape)
    norm = 1.0 / (2.0 * math.pi * h * h)
    for r in range(grid.n_rows):
        for c in range(grid.n_cols):
            x, y = grid.center_x(c), grid.center_y(r)
            total = 0.0
            for p, w in zip(points, weights):
                d2 = (p.location.x - x) ** 2 + (p.location.y - y) ** 2
                total += w * norm * math.exp(-d2 / (2 * h * h))
            out[r, c] = total
    return out


class TestKdeSurface:
    def test_peak_value_at_point_cell(self):
        g = AnalysisGrid(0, 0, 20, 11, 11)
        params = KdeParams(bandwidth_m=100.0)
        surface = kde_surface(tables.detections([det(g.center_x(5), g.center_y(5))]), g, params)
        assert surface.cells[5, 5] == pytest.approx(1 / (2 * math.pi * 1e4), rel=1e-12)
        assert surface.cells[5, 5] == pytest.approx(1.59155e-5, rel=1e-5)

    def test_value_at_one_bandwidth_distance(self):
        g = AnalysisGrid(0, 0, 20, 11, 11)
        params = KdeParams(bandwidth_m=100.0)
        surface = kde_surface(tables.detections([det(g.center_x(5), g.center_y(5))]), g, params)
        # Cell (5, 10) is exactly 5 cells = 100 m east.
        peak = 1 / (2 * math.pi * 1e4)
        assert surface.cells[5, 10] == pytest.approx(peak * math.exp(-0.5), rel=1e-12)
        assert surface.cells[5, 10] == pytest.approx(9.6532e-6, rel=1e-4)

    def test_cells_exactly_at_the_cutoff_are_kept(self):
        # 4 sigma of 25 m is exactly 5 cells: the window edges fall on the
        # centers of cells (5, 0), (5, 10), (0, 5) and (10, 5).
        g = AnalysisGrid(0, 0, 20, 11, 11)
        params = KdeParams(bandwidth_m=25.0)
        point = tables.detections([det(g.center_x(5), g.center_y(5))])
        cells = kde_surface(point, g, params).cells
        at_cutoff = math.exp(-8.0) / (2 * math.pi * 625.0)
        for r, c in ((5, 0), (5, 10), (0, 5), (10, 5)):
            assert cells[r, c] == pytest.approx(at_cutoff, rel=1e-12)
        assert cells[4, 0] == cells[0, 4] == 0.0

    def test_two_symmetric_points_superpose(self):
        g = AnalysisGrid(0, 0, 20, 9, 9)
        params = KdeParams(bandwidth_m=150.0)
        mid = Point(g.center_x(4), g.center_y(4))
        single = kde_surface(tables.detections([det(mid.x - 60, mid.y)]), g, params)
        pair = kde_surface(
            tables.detections([det(mid.x - 60, mid.y), det(mid.x + 60, mid.y)]), g, params
        )
        assert pair.cells[4, 4] == pytest.approx(2 * single.cells[4, 4], rel=1e-12)

    def test_empty_points_all_zero(self):
        g = AnalysisGrid(0, 0, 20, 4, 4)
        assert np.all(kde_surface(tables.detections([]), g, KdeParams()).cells == 0.0)

    def test_matches_untruncated_brute_force_within_tolerance(self):
        rng = np.random.default_rng(11)
        g = AnalysisGrid(0, 0, 20, 30, 30)
        pts = [det(rng.uniform(0, 600), rng.uniform(0, 600)) for _ in range(12)]
        params = KdeParams(bandwidth_m=750.0)
        engine = kde_surface(tables.detections(pts), g, params).cells
        oracle = brute_force_kde(pts, g, 750.0)
        assert np.max(np.abs(engine - oracle) / oracle) < 1e-4

    def test_frp_weighting(self):
        g = AnalysisGrid(0, 0, 20, 5, 5)
        params = KdeParams(bandwidth_m=100.0, frp_weighted=True)
        p1 = det(g.center_x(2), g.center_y(2), frp=300.0)
        p2 = det(g.center_x(2), g.center_y(2), frp=100.0)
        surface = kde_surface(tables.detections([p1, p2]), g, params)
        # Weights 1.5 and 0.5 sum to 2 at the shared cell.
        peak = 1 / (2 * math.pi * 1e4)
        assert surface.cells[2, 2] == pytest.approx(2 * peak, rel=1e-12)

    def test_frp_weighting_requires_frp(self):
        g = AnalysisGrid(0, 0, 20, 3, 3)
        with pytest.raises(ValidationError):
            kde_surface(tables.detections([det(10, 10)]), g, KdeParams(frp_weighted=True))

    def test_mass_approaches_point_count_on_padded_grid(self):
        rng = np.random.default_rng(5)
        h = 200.0
        pad = 4 * h
        g = AnalysisGrid(-pad, -pad, 20, int((400 + 2 * pad) / 20), int((400 + 2 * pad) / 20))
        pts = [det(rng.uniform(0, 400), rng.uniform(0, 400)) for _ in range(25)]
        surface = kde_surface(tables.detections(pts), g, KdeParams(bandwidth_m=h))
        mass = float(surface.cells.sum()) * g.cell_area
        assert abs(mass - 25) / 25 < 0.02


def reference_kde(points, grid, params):
    """One slice update per point, in file order: the bits ``kde_surface`` must give."""
    values = np.zeros(grid.shape)
    if not len(points):
        return values

    if params.frp_weighted:
        if np.isnan(points.frp).any():
            raise ValidationError("frp_weighted requires frp on every detection")
        mean_frp = math.fsum(points.frp.tolist()) / len(points)
        if mean_frp <= 0:
            raise ValidationError("frp_weighted requires a positive mean frp")
        weights = (points.frp / mean_frp).tolist()
    else:
        weights = [1.0] * len(points)

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
    windows = zip(
        pxs.tolist(),
        pys.tolist(),
        weights,
        np.searchsorted(xs, pxs - radius, side="left").tolist(),
        np.searchsorted(xs, pxs + radius, side="right").tolist(),
        (grid.n_rows - np.searchsorted(ys_up, pys + radius, side="right")).tolist(),
        (grid.n_rows - np.searchsorted(ys_up, pys - radius, side="left")).tolist(),
    )
    for px, py, w, c_lo, c_hi, r_lo, r_hi in windows:
        if c_lo >= c_hi or r_lo >= r_hi:
            continue
        dx2 = (xs[c_lo:c_hi] - px) ** 2
        dy2 = (ys[r_lo:r_hi] - py) ** 2
        d2 = dy2[:, None] + dx2[None, :]
        kernel = (w * norm) * np.exp(-d2 * inv_2h2)
        kernel[d2 > r2] = 0.0
        values[r_lo:r_hi, c_lo:c_hi] += kernel

    return values


# 40 x 40 cells of 20 m: at 100 m an interior window (41 x 41, clipped to
# 40 x 40) is over the small-window limit, one near an edge under it.
KDE_GRID = AnalysisGrid(-1234.5, 4321.25, 20, 40, 40)
BANDWIDTHS = (4.0, 30.0, 100.0, 750.0)


@st.composite
def kde_points(draw):
    """Detections off the grid, near its edges, on cell edges and coincident."""
    g = KDE_GRID
    anywhere_x = st.floats(g.origin_x - 3500, g.max_x + 3500)
    anywhere_y = st.floats(g.origin_y - 3500, g.max_y + 3500)
    edge_x = st.integers(-2, g.n_cols + 2).map(lambda c: g.origin_x + c * g.cell_size)
    edge_y = st.integers(-2, g.n_rows + 2).map(lambda r: g.origin_y + r * g.cell_size)
    near_x = st.sampled_from([g.origin_x, g.max_x]).flatmap(
        lambda e: st.floats(e - 450, e + 450))
    near_y = st.sampled_from([g.origin_y, g.max_y]).flatmap(
        lambda e: st.floats(e - 450, e + 450))
    frp = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
    point = st.tuples(
        st.one_of(anywhere_x, edge_x, near_x), st.one_of(anywhere_y, edge_y, near_y), frp)
    points = draw(st.lists(point, max_size=30))
    if points:
        for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=8)):
            points.insert(draw(st.integers(0, len(points))), points[i])
    return [det(x, y, frp=f) for x, y, f in points]


def kde_matches_reference(points, params, grid=KDE_GRID):
    points = tables.detections(points)
    try:
        want = reference_kde(points, grid, params)
    except ValidationError:
        with pytest.raises(ValidationError):
            kde_surface(points, grid, params)
        return
    assert kde_surface(points, grid, params).cells.tobytes() == want.tobytes()


class TestKdeBitIdentity:
    """The batched ``kde_surface`` gives the bits of one slice update per point."""

    @given(kde_points(), st.sampled_from(BANDWIDTHS), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, points, bandwidth, frp_weighted):
        kde_matches_reference(points, KdeParams(bandwidth_m=bandwidth, frp_weighted=frp_weighted))

    def test_empty_input(self):
        for bandwidth in BANDWIDTHS:
            kde_matches_reference([], KdeParams(bandwidth_m=bandwidth))

    @pytest.mark.parametrize("name, value", [
        ("BATCH_CELLS", 1), ("BATCH_CELLS", 2**40),
        ("SMALL_WINDOW_CELLS", 0), ("SMALL_WINDOW_CELLS", 2**40),
    ])
    def test_batch_limits_change_no_bit(self, monkeypatch, name, value):
        rng = np.random.default_rng(3)
        g = KDE_GRID
        n = 400
        xs = rng.uniform(g.origin_x - 500, g.max_x + 500, n)
        ys = rng.uniform(g.origin_y - 500, g.max_y + 500, n)
        # Every 7th point on a cell edge; point 5k + 1 on point 5k.
        xs[::7] = g.origin_x + rng.integers(0, g.n_cols, xs[::7].size) * g.cell_size
        xs[1::5], ys[1::5] = xs[::5], ys[::5]
        points = [det(x, y, frp=f) for x, y, f in zip(xs, ys, rng.exponential(20.0, n))]
        monkeypatch.setattr(perimeters, name, value)
        for bandwidth in BANDWIDTHS:
            for frp_weighted in (False, True):
                kde_matches_reference(
                    points, KdeParams(bandwidth_m=bandwidth, frp_weighted=frp_weighted))

    def test_coincident_points_add_in_file_order_across_batches(self, monkeypatch):
        # At 4 m every window is the point's own cell. A budget of two cells
        # ends the first batch with `a`; `b` and `c` share the second one.
        g = AnalysisGrid(0, 0, 20, 1, 2)
        params = KdeParams(bandwidth_m=4.0, frp_weighted=True)
        frps = [1.0, 0.1, 0.2, 0.2]
        other = det(g.center_x(0), g.center_y(0), frp=frps[0])
        a, b, c = (det(g.center_x(1), g.center_y(0), frp=f) for f in frps[1:])
        mean = math.fsum(frps) / len(frps)
        ka, kb, kc = ((f / mean) * (1.0 / (2.0 * math.pi * 4.0 * 4.0)) for f in frps[1:])
        assert (ka + kb) + kc != ka + (kb + kc)
        monkeypatch.setattr(perimeters, "BATCH_CELLS", 2)
        cells = kde_surface(tables.detections([other, a, b, c]), g, params).cells
        assert cells[0, 1] == (ka + kb) + kc
        kde_matches_reference([other, a, b, c], params, g)


@st.composite
def kde_windows(draw):
    """Window shapes of at most 32×32 cells; in about half the examples one
    of them is made wider than :data:`perimeters.SMALL_WINDOW_CELLS`."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 32), st.integers(1, 32)), max_size=60))
    if shapes and draw(st.booleans()):
        at = draw(st.integers(0, len(shapes) - 1))
        shapes[at] = (draw(st.integers(33, 80)), draw(st.integers(33, 80)))
    return shapes


class TestBatchBounds:
    """Invariants of the consecutive batches ``kde_surface`` adds points in."""

    @given(kde_windows(), st.integers(1, 2**20))
    @example([], 1)
    @settings(max_examples=300, deadline=None)
    def test_batches_cover_the_points_within_the_budget(self, windows, batch_cells):
        n_rows = np.array([r for r, _ in windows], dtype=np.intp)
        n_cols = np.array([c for _, c in windows], dtype=np.intp)
        with mock.patch.object(perimeters, "BATCH_CELLS", batch_cells):
            bounds = perimeters._batch_bounds(n_rows, n_cols)
        assert bounds[0] == 0 and bounds[-1] == len(windows)
        assert (np.diff(bounds) > 0).all()
        sizes = np.diff(bounds)
        if len(windows) and (n_rows * n_cols).max() > perimeters.SMALL_WINDOW_CELLS:
            assert (sizes == 1).all()
        largest = int(n_rows.max()) * int(n_cols.max()) if len(windows) else 0
        assert (sizes[sizes > 1] * largest <= batch_cells).all()


class TestKdeParams:
    def test_bad_bandwidth(self):
        with pytest.raises(ValidationError):
            KdeParams(bandwidth_m=0.0)

    def test_bad_relative_threshold(self):
        with pytest.raises(ValidationError):
            KdeParams(threshold_value=1.5)

    def test_absolute_threshold_allows_any_nonnegative(self):
        KdeParams(threshold_mode="absolute", threshold_value=2.5)

    def test_zero_absolute_threshold_on_empty_day_stays_empty(self):
        g = AnalysisGrid(0, 0, 20, 5, 5)
        params = KdeParams(threshold_mode="absolute", threshold_value=0.0)
        surface = kde_surface(tables.detections([]), g, params)
        assert threshold_surface(surface, params).popcount() == 0


def square(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


class TestExtractDailyPerimeters:
    def test_all_detections_outside_official_perimeter(self):
        g = AnalysisGrid(0, 0, 20, 20, 20)
        official = [square(0, 0, 100, 100)]
        dets = {D0: [det(300, 300)], D0 + dt.timedelta(days=1): [det(320, 320, day=1)]}
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons(official, g),
            KdeParams(bandwidth_m=50), first_days(2)
        )
        assert all(p.new_burn.popcount() == 0 for p in days)

    def test_tight_cluster_gives_one_connected_component(self):
        g = AnalysisGrid(0, 0, 20, 50, 50)
        official = [square(0, 0, 1000, 1000)]
        cluster = [det(500 + dx, 500 + dy) for dx in (-30, 0, 30) for dy in (-30, 0, 30)]
        days = extract_daily_perimeters(
            tables_by_date({D0: cluster}), rasterize_polygons(official, g),
            KdeParams(bandwidth_m=100), [D0]
        )
        assert len(days) == 1
        assert dilation_flood_fill(days[0].new_burn.bits).max() == 1
        # Brute-force check of the same thresholding on this day.
        surface = kde_surface(tables.detections(cluster), g, KdeParams(bandwidth_m=100))
        want = threshold_surface(surface, KdeParams(bandwidth_m=100)).bits
        assert np.array_equal(days[0].new_burn.bits, want)

    def test_repeated_detections_produce_no_new_burn(self):
        g = AnalysisGrid(0, 0, 20, 20, 20)
        official = [square(0, 0, 400, 400)]
        pts0 = [det(200, 200)]
        pts1 = [det(200, 200, day=1)]
        days = extract_daily_perimeters(
            tables_by_date({D0: pts0, D0 + dt.timedelta(days=1): pts1}),
            rasterize_polygons(official, g),
            KdeParams(bandwidth_m=60),
            first_days(2),
        )
        assert days[0].new_burn.popcount() > 0
        assert days[1].new_burn.popcount() == 0
        assert days[1].active.popcount() == days[0].new_burn.popcount()

    def test_gap_dates_kept_in_sequence(self):
        g = AnalysisGrid(0, 0, 20, 10, 10)
        official = [square(0, 0, 200, 200)]
        dets = {D0: [det(100, 100)], D0 + dt.timedelta(days=2): [det(40, 40, day=2)]}
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons(official, g),
            KdeParams(bandwidth_m=40), first_days(3)
        )
        assert [p.date for p in days] == [D0 + dt.timedelta(days=i) for i in range(3)]
        assert days[1].new_burn.popcount() == 0

    def test_gap_dates_compute_no_surface(self, monkeypatch):
        kde = perimeters.kde_surface
        sizes = []

        def counting(points, grid, params):
            sizes.append(len(points))
            return kde(points, grid, params)

        monkeypatch.setattr(perimeters, "kde_surface", counting)
        g = AnalysisGrid(0, 0, 20, 10, 10)
        dets = {D0: [det(100, 100)], D0 + dt.timedelta(days=3): [det(40, 40, day=3)] * 2}
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons([square(0, 0, 200, 200)], g),
            KdeParams(bandwidth_m=40),
            first_days(4),
        )
        assert sizes == [1, 2]
        assert [p.active.popcount() == 0 for p in days] == [False, True, True, False]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bookkeeping_invariants(self, seed):
        rng = np.random.default_rng(seed)
        g = AnalysisGrid(0, 0, 20, 25, 25)
        official = [square(60, 60, 440, 440)]
        clip = np.zeros(g.shape, dtype=bool)
        dets: dict[dt.date, list[Detection]] = {}
        for day in range(4):
            pts = [
                det(rng.uniform(0, 500), rng.uniform(0, 500), day=day)
                for _ in range(int(rng.integers(0, 8)))
            ]
            if pts:
                dets[D0 + dt.timedelta(days=day)] = pts
        if not dets:
            return
        dates = event_dates(tables.detections(d for pts in dets.values() for d in pts))
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons(official, g), KdeParams(bandwidth_m=80), dates
        )

        # No double counting and monotone cumulation.
        total_new = sum(p.new_burn.popcount() for p in days)
        assert total_new == days[-1].cumulative.popcount()
        for a, b in zip(days, days[1:]):
            assert not (a.cumulative.bits & ~b.cumulative.bits).any()
        # Pairwise disjoint new burns.
        seen = np.zeros(g.shape, dtype=bool)
        for p in days:
            assert not np.any(seen & p.new_burn.bits)
            seen |= p.new_burn.bits
        # Every new-burn cell center is inside the official perimeter.
        for p in days:
            rows, cols = np.nonzero(p.new_burn.bits)
            xs = np.array([g.center_x(int(c)) for c in cols])
            ys = np.array([g.center_y(int(r)) for r in rows])
            inside = np.zeros(xs.size, dtype=bool)
            for poly in official:
                inside |= points_in_polygon(xs, ys, poly)
            assert inside.all()
        # Traced polygons reproduce the new-burn masks.
        from fireimpact.geometry import _corner_xy, ragged_cell_indices, trace_mask_rings

        for p in days:
            rings = trace_mask_rings(p.new_burn)
            cells, _ = ragged_cell_indices(
                *_corner_xy(g, rings.corners), rings.ring_offsets, rings.polygon_offsets,
                np.arange(len(rings.polygon_offsets)), g,
            )
            assert np.array_equal(np.unique(cells), np.flatnonzero(p.new_burn.bits))


class TestFirstBurnRaster:
    @given(
        st.lists(
            st.tuples(st.floats(0, 400), st.floats(0, 400), st.integers(0, 5)),
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_views_match_running_mask_bookkeeping(self, points):
        g = AnalysisGrid(0, 0, 20, 20, 20)
        official = [square(40, 40, 360, 360)]
        params = KdeParams(bandwidth_m=30)
        dets: dict[dt.date, list[Detection]] = {}
        for x, y, day in points:
            dets.setdefault(D0 + dt.timedelta(days=day), []).append(det(x, y, day=day))
        dates = [D0 + dt.timedelta(days=i) for i in range(6)]
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons(official, g), params, dates
        )

        # Reference: the running cumulative mask the first-burn raster replaced.
        clip = rasterize_polygons(official, g)
        cum = np.zeros(g.shape, dtype=bool)
        for p in days:
            points = tables.detections(dets.get(p.date, []))
            burned = threshold_surface(kde_surface(points, g, params), params)
            active = burned.bits & clip.bits
            new = active & ~cum
            cum |= new
            assert np.array_equal(p.active.bits, active)
            assert np.array_equal(p.new_burn.bits, new)
            assert np.array_equal(p.cumulative.bits, cum)

    def test_days_share_one_read_only_raster(self):
        g = AnalysisGrid(0, 0, 20, 10, 10)
        official = [square(0, 0, 200, 200)]
        dets = {D0: [det(100, 100)], D0 + dt.timedelta(days=2): [det(40, 40, day=2)]}
        days = extract_daily_perimeters(
            tables_by_date(dets), rasterize_polygons(official, g),
            KdeParams(bandwidth_m=40), first_days(3)
        )
        first = days[0].first_burn
        assert [p.index for p in days] == [0, 1, 2]
        assert all(p.first_burn is first for p in days)
        assert first.dtype == np.int16
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1

    def test_too_many_days_rejected(self):
        g = AnalysisGrid(0, 0, 20, 2, 2)
        dates = [D0 + dt.timedelta(days=i) for i in range(np.iinfo(np.int16).max + 1)]
        with pytest.raises(ValidationError, match="first-burn-day raster"):
            extract_daily_perimeters(
                {}, rasterize_polygons([square(0, 0, 40, 40)], g), KdeParams(), dates
            )


class TestPackedActive:
    @given(
        st.integers(1, 40), st.integers(1, 40),
        st.sampled_from(["random", "all", "none"]), st.integers(0, 2**32 - 1),
    )
    @example(3, 5, "all", 0)  # 15 cells: the last byte holds seven
    @example(1, 1, "all", 0)
    @example(2, 4, "none", 0)
    @example(7, 9, "random", 1)
    @settings(max_examples=150, deadline=None)
    def test_active_gives_back_the_mask(self, n_rows, n_cols, fill, seed):
        g = AnalysisGrid(-35.5, 812.25, 20, n_rows, n_cols)
        bits = {
            "random": np.random.default_rng(seed).random(g.shape) < 0.5,
            "all": np.ones(g.shape, bool),
            "none": np.zeros(g.shape, bool),
        }[fill]
        first = np.where(bits, 0, -1).astype(np.int16)
        day = DailyPerimeter.from_active(D0, 0, first, Mask(g, bits))
        assert day.packed_active.nbytes == -(-n_rows * n_cols // 8)
        active = day.active
        assert isinstance(active, Mask) and active.grid == g
        assert active.bits.dtype == bool and not active.bits.flags.writeable
        assert np.array_equal(active.bits, bits)
        assert np.array_equal(day.new_burn.bits, bits)
        assert np.array_equal(day.cumulative.bits, bits)


def random_detections(seed, n):
    rng = np.random.default_rng(seed)
    return [
        Detection(
            Point(float(rng.uniform(-50, 450)), float(rng.uniform(-50, 450))),
            D0 + dt.timedelta(days=int(rng.integers(0, 4))),
            frp=None if rng.random() < 0.2 else float(rng.uniform(0, 100)),
            confidence=[None, "low", "nominal", "high"][int(rng.integers(0, 4))],
        )
        for _ in range(n)
    ]


class TestDetectionsTable:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_and_selection(self, seed, n):
        dets = random_detections(seed, n)
        table = tables.detections(dets)
        assert len(table) == n
        assert list(table) == dets
        keep = np.random.default_rng(seed).random(n) < 0.5
        assert list(table[keep]) == [d for d, k in zip(dets, keep) if k]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_by_date_keeps_file_order_within_each_date(self, seed, n):
        dets = random_detections(seed, n)
        groups = tables.detections(dets).by_date()
        assert sorted(groups) == sorted({d.date for d in dets})
        for date, rows in groups.items():
            assert list(rows) == [d for d in dets if d.date == date]


def dilation_flood_fill(bits):
    """Label 8-connected regions by repeated dilation; independent oracle."""
    remaining = bits.copy()
    labels = np.zeros(bits.shape, dtype=int)
    label = 0
    while remaining.any():
        label += 1
        seed_idx = np.argwhere(remaining)[0]
        region = np.zeros_like(bits)
        region[seed_idx[0], seed_idx[1]] = True
        while True:
            grown = region.copy()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    shifted = np.roll(np.roll(region, dr, axis=0), dc, axis=1)
                    if dr > 0:
                        shifted[:dr, :] = False
                    elif dr < 0:
                        shifted[dr:, :] = False
                    if dc > 0:
                        shifted[:, :dc] = False
                    elif dc < 0:
                        shifted[:, dc:] = False
                    grown |= shifted
            grown &= bits
            if np.array_equal(grown, region):
                break
            region = grown
        labels[region] = label
        remaining &= ~region
    return labels

