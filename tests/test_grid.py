import numpy as np

from fireimpact.grid import AnalysisGrid, CategoryRaster, resample_nearest


def grid(n_rows, n_cols, cell=20.0, ox=0.0, oy=0.0):
    return AnalysisGrid(ox, oy, cell, n_rows, n_cols)


class TestResampleNearest:
    def test_uniform_source(self):
        src = CategoryRaster(grid(4, 4, cell=30.0), np.full((4, 4), 24))
        target = grid(5, 5, cell=20.0, ox=10.0, oy=10.0)
        out = resample_nearest(src, target)
        assert np.all(out.cells == 24)

    def test_identity_when_grids_match(self):
        g = grid(3, 5)
        src = CategoryRaster(g, np.arange(15).reshape(3, 5))
        out = resample_nearest(src, g)
        assert np.array_equal(out.cells, src.cells)

    def test_30m_to_20m_matches_center_lookup(self):
        # 2x2 of 30 m cells over [0,60]x[0,60]; row 0 is north.
        src = CategoryRaster(grid(2, 2, cell=30.0), np.array([[11, 21], [22, 24]]))
        target = grid(3, 3, cell=20.0)
        out = resample_nearest(src, target)
        # Independent check: locate each 20 m center in the 30 m grid.
        for r in range(3):
            for c in range(3):
                x = target.center_x(c)
                y = target.center_y(r)
                sc = int(x // 30)
                sr = 1 - int(y // 30)
                assert out.cells[r, c] == src.cells[sr, sc]

    def test_outside_extent_is_nodata(self):
        src = CategoryRaster(grid(2, 2, cell=30.0), np.full((2, 2), 42), nodata=-1)
        target = grid(3, 3, cell=20.0, ox=10.0, oy=10.0)
        out = resample_nearest(src, target)
        assert out.cells[0, 2] == -1  # center (60, 60) on the open boundary
        assert out.cells[2, 0] == 42  # center (20, 20) well inside

