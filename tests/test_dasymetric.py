import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fireimpact.dasymetric import (
    DEFAULT_NLCD_WEIGHTS,
    CensusBlock,
    WeightTable,
    allocation_factor_raster,
    downscale,
    rasterize_blocks,
    validate_mass,
)
from fireimpact.errors import UnknownClassError, ValidationError
from fireimpact.geometry import Point, Polygon
from fireimpact.grid import AnalysisGrid, CategoryRaster


def grid(n, cell=20.0):
    return AnalysisGrid(0, 0, cell, n, n)


def cell_rect(grid_, r0, r1, c0, c1):
    """Rectangle exactly covering cell rows r0..r1 and cols c0..c1 (inclusive)."""
    x0 = grid_.corner_x(c0)
    x1 = grid_.corner_x(c1 + 1)
    y_top = grid_.corner_y(r0)
    y_bot = grid_.corner_y(r1 + 1)
    return Polygon([Point(x0, y_bot), Point(x1, y_bot), Point(x1, y_top), Point(x0, y_top)])


def block(grid_, bid, r0, r1, c0, c1, pop, tract="t1"):
    return CensusBlock(bid, [cell_rect(grid_, r0, r1, c0, c1)], pop, tract)


class TestWeightTable:
    def test_default_matches_published_values(self):
        w = WeightTable.default()
        assert w.weights[11] == 0
        assert w.weights[21] == 26
        assert w.weights[24] == 46
        assert w.weights[42] == 3
        assert w.weights[31] == 0

    def test_water_must_be_zero(self):
        with pytest.raises(ValidationError):
            WeightTable({11: 5, 24: 46})

    def test_needs_a_positive_weight(self):
        with pytest.raises(ValidationError):
            WeightTable({11: 0, 31: 0})


class TestAllocationFactorRaster:
    def test_all_water_is_all_zero(self):
        g = grid(4)
        ra = allocation_factor_raster(
            CategoryRaster(g, np.full((4, 4), 11)), WeightTable.default()
        )
        assert np.all(ra.cells == 0.0)

    def test_developed_high_intensity_cell(self):
        g = AnalysisGrid(0, 0, 20, 1, 1)
        ra = allocation_factor_raster(
            CategoryRaster(g, np.array([[24]])), WeightTable.default()
        )
        assert ra.cells[0, 0] == 46.0

    def test_mixed_raster_matches_per_cell_lookup(self):
        rng = np.random.default_rng(9)
        g = grid(12)
        codes = rng.choice(list(DEFAULT_NLCD_WEIGHTS), size=(12, 12))
        ra = allocation_factor_raster(CategoryRaster(g, codes), WeightTable.default())
        for r in range(12):
            for c in range(12):
                assert ra.cells[r, c] == DEFAULT_NLCD_WEIGHTS[int(codes[r, c])]

    def test_unknown_code_is_named(self):
        g = AnalysisGrid(0, 0, 20, 1, 2)
        with pytest.raises(UnknownClassError, match="77"):
            allocation_factor_raster(
                CategoryRaster(g, np.array([[24, 77]])), WeightTable.default()
            )

    def test_nodata_cells_are_zero(self):
        g = AnalysisGrid(0, 0, 20, 1, 2)
        ra = allocation_factor_raster(
            CategoryRaster(g, np.array([[24, -1]]), nodata=-1), WeightTable.default()
        )
        assert ra.cells[0, 1] == 0.0


class TestRasterizeBlocks:
    def test_overlap_first_wins(self):
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 21))
        b1 = block(g, "first", 0, 3, 0, 3, 1)
        b2 = block(g, "second", 0, 3, 0, 3, 1)  # fully shadowed
        report = rasterize_blocks([b1, b2], g)
        assert report.overlap_cells == 16
        assert report.allocations[1].fallback == "centroid"


class TestDownscale:
    def test_table2_hand_example(self):
        # 3 developed-high cells + 1 water cell, Pop 100:
        # each developed cell gets 100 * 46/138 = 33.333..., water gets 0.
        g = AnalysisGrid(0, 0, 20, 1, 4)
        landcover = CategoryRaster(g, np.array([[24, 24, 24, 11]]))
        b = CensusBlock("b1", [cell_rect(g, 0, 0, 0, 3)], 100.0, "t1")
        pop, report = downscale([b], landcover, WeightTable.default(), g)
        assert pop.cells[0, 0] == pytest.approx(100 / 3, abs=1e-12)
        assert pop.cells[0, 1] == pytest.approx(100 / 3, abs=1e-12)
        assert pop.cells[0, 3] == 0.0
        assert not report.fallback_ids()

    def test_zero_pop_block(self):
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 24))
        pop, _ = downscale(
            [block(g, "b", 0, 3, 0, 3, 0.0)], landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 0.0)

    def test_uniform_class_splits_evenly(self):
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 22))
        pop, _ = downscale(
            [block(g, "b", 0, 3, 0, 3, 80.0)], landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 5.0)

    def test_zero_weight_block_falls_back_to_uniform(self):
        g = grid(2)
        landcover = CategoryRaster(g, np.full((2, 2), 11))
        pop, report = downscale(
            [block(g, "wet", 0, 1, 0, 1, 8.0)], landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 2.0)
        assert report.fallback_ids() == {"wet"}

    def test_tiny_block_centroid_fallback_preserves_pop(self):
        g = grid(6)
        landcover = CategoryRaster(g, np.full((6, 6), 21))
        sliver = CensusBlock(
            "s", [Polygon([Point(41, 41), Point(43, 41), Point(43, 43), Point(41, 43)])], 7.0, "t"
        )
        pop, report = downscale([sliver], landcover, WeightTable.default(), g)
        assert float(pop.cells.sum()) == 7.0
        # Centroid (42, 42) lies in cell row 3, col 2.
        assert pop.cells[3, 2] == 7.0
        assert report.allocations[0].fallback == "centroid"

    def test_multipolygon_parts_share_one_pop(self):
        g = grid(6)
        landcover = CategoryRaster(g, np.full((6, 6), 23))
        b = CensusBlock(
            "m",
            [cell_rect(g, 0, 0, 0, 1), cell_rect(g, 5, 5, 4, 5)],
            40.0,
            "t",
        )
        pop, report = downscale([b], landcover, WeightTable.default(), g)
        assert pop.cells[0, 0] == 10.0
        assert pop.cells[5, 5] == 10.0
        assert float(pop.cells.sum()) == 40.0
        mass = validate_mass([b], pop, report)
        assert mass.max_rel_err() <= 1e-9

    def test_zero_weight_cells_get_exactly_zero(self):
        g = AnalysisGrid(0, 0, 20, 1, 3)
        landcover = CategoryRaster(g, np.array([[24, 11, 22]]))
        b = CensusBlock("b", [cell_rect(g, 0, 0, 0, 2)], 56.0, "t")
        pop, _ = downscale([b], landcover, WeightTable.default(), g)
        assert pop.cells[0, 1] == 0.0
        assert pop.cells[0, 0] == 56.0 * 46 / 56
        assert pop.cells[0, 2] == 56.0 * 10 / 56

    def test_scale_invariance_of_weights(self):
        rng = np.random.default_rng(3)
        g = grid(8)
        codes = rng.choice([21, 22, 23, 24, 42], size=(8, 8))
        landcover = CategoryRaster(g, codes)
        blocks = [block(g, f"b{i}", 4 * (i // 2), 4 * (i // 2) + 3, 4 * (i % 2), 4 * (i % 2) + 3, float(10 + i)) for i in range(4)]
        base = WeightTable.default()
        scaled = WeightTable({k: 3.0 * v for k, v in base.weights.items()})
        pop1, _ = downscale(blocks, landcover, base, g)
        pop2, _ = downscale(blocks, landcover, scaled, g)
        np.testing.assert_allclose(pop1.cells, pop2.cells, rtol=1e-12, atol=0)

    def test_monotone_in_weight_within_block(self):
        g = AnalysisGrid(0, 0, 20, 1, 2)
        landcover = CategoryRaster(g, np.array([[24, 22]]))  # 46 vs 10
        b = CensusBlock("b", [cell_rect(g, 0, 0, 0, 1)], 70.0, "t")
        pop, _ = downscale([b], landcover, WeightTable.default(), g)
        assert pop.cells[0, 0] > pop.cells[0, 1]


class TestValidateMass:
    def _random_setup(self, seed, n=16, tile=4):
        rng = np.random.default_rng(seed)
        g = grid(n)
        codes = rng.choice(list(DEFAULT_NLCD_WEIGHTS), size=(n, n))
        landcover = CategoryRaster(g, codes)
        blocks = []
        for i, r0 in enumerate(range(0, n, tile)):
            for j, c0 in enumerate(range(0, n, tile)):
                blocks.append(
                    block(g, f"b{i}_{j}", r0, r0 + tile - 1, c0, c0 + tile - 1,
                          float(rng.integers(0, 500)))
                )
        return g, landcover, blocks

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_downscale_output_passes(self, seed):
        g, landcover, blocks = self._random_setup(seed)
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        mass = validate_mass(blocks, pop, report)
        assert mass.max_rel_err() <= 1e-9
        assert not mass.failures()

    def test_corrupted_grid_is_flagged(self):
        g, landcover, blocks = self._random_setup(5)
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        cells = pop.cells.copy()
        cells.setflags(write=True)
        cells[1, 1] += 1.0  # one extra person
        from fireimpact.grid import RealRaster

        corrupted = RealRaster(g, cells)
        mass = validate_mass(blocks, corrupted, report)
        bad = mass.failures()
        assert len(bad) == 1
        assert bad[0].block_id == "b0_0"
