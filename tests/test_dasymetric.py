import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fireimpact.dasymetric import (
    DEFAULT_NLCD_WEIGHTS,
    FALLBACKS,
    DownscaleReport,
    WeightTable,
    allocation_factor_raster,
    downscale,
    rasterize_blocks,
    validate_mass,
)
from fireimpact.errors import UnknownClassError, ValidationError
from fireimpact.geometry import Point
from fireimpact.grid import AnalysisGrid, CategoryRaster

import layer_tables as tables
from layer_tables import Block, Polygon, features_cell_indices, polygon_area, polygon_centroid


def grid(n, cell=20.0):
    return AnalysisGrid(0, 0, cell, n, n)


def cell_rect(grid_, r0, r1, c0, c1):
    """Rectangle exactly covering cell rows r0..r1 and cols c0..c1 (inclusive)."""
    x0, x1 = grid_.corner_xs()[[c0, c1 + 1]].tolist()
    y_top, y_bot = grid_.corner_ys()[[r0, r1 + 1]].tolist()
    return Polygon([Point(x0, y_bot), Point(x1, y_bot), Point(x1, y_top), Point(x0, y_top)])


def rect(x0, y0, x1, y1):
    return Polygon([Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)])


def block(grid_, bid, r0, r1, c0, c1, pop, tract="t1"):
    return Block(bid, [cell_rect(grid_, r0, r1, c0, c1)], pop, tract)


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
        report = rasterize_blocks(tables.blocks([b1, b2]), g)
        assert report.overlap_cells == 16
        assert report.allocations[1].fallback == "centroid"

    @pytest.mark.parametrize("sliver_first", [True, False])
    def test_centroid_cell_goes_to_the_sliver_in_either_order(self, sliver_first):
        # A sliver that captures no cell center falls back to the cell holding
        # its centroid; its neighbour gives that cell up wherever it is listed,
        # so each block's cells hold its own population and nothing overlaps.
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 22))
        sliver = Block("s", [rect(2, 2, 6, 6)], 7.0, "t")
        neighbour = Block("n", [rect(0, 0, 40, 80)], 80.0, "t")
        blocks = tables.blocks([sliver, neighbour] if sliver_first else [neighbour, sliver])
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        assert type(report.overlap_cells) is int and report.overlap_cells == 0
        got = {a.block_id: (a.fallback, a.rows.size) for a in report.allocations}
        assert got == {"s": ("centroid", 1), "n": (None, 7)}
        expected = np.zeros((4, 4))
        expected[:, :2] = 80.0 * (10.0 / 70.0)
        expected[3, 0] = 7.0
        assert np.array_equal(pop.cells, expected)
        assert validate_mass(blocks, pop, report).failures().size == 0

    @pytest.mark.parametrize("sliver_first", [True, False])
    def test_block_losing_its_last_cell_to_a_centroid_falls_back(self, sliver_first):
        g = grid(2)
        landcover = CategoryRaster(g, np.full((2, 2), 22))
        sliver = Block("s", [rect(2, 2, 6, 6)], 7.0, "t")
        host = Block("h", [rect(0, 0, 20, 20)], 5.0, "t")
        blocks = tables.blocks([sliver, host] if sliver_first else [host, sliver])
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        assert report.overlap_cells == 0
        for a in report.allocations:
            assert (a.fallback, a.rows.tolist(), a.cols.tolist()) == ("centroid", [1], [0])
        assert pop.cells[1, 0] == 12.0
        assert float(pop.cells.sum()) == 12.0


@st.composite
def tiled_blocks(draw):
    """Blocks tiling a grid without overlap, on cell edges.

    Some tiles are split into a sliver inside their bottom-left cell that
    captures no cell center, and the L-shaped rest of the tile.
    """
    cell = 20.0
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    g = AnalysisGrid(0, 0, cell, n_rows, n_cols)
    ys = sorted({0, n_rows} | draw(st.sets(st.integers(1, n_rows))))
    xs = sorted({0, n_cols} | draw(st.sets(st.integers(1, n_cols))))
    blocks = []
    for i, (b0, b1) in enumerate(zip(ys, ys[1:])):
        for j, (a0, a1) in enumerate(zip(xs, xs[1:])):
            x0, x1, y0, y1 = a0 * cell, a1 * cell, b0 * cell, b1 * cell
            pop = float(draw(st.integers(0, 500)))
            if draw(st.booleans()):
                w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
                rest = Polygon([
                    Point(x0 + w, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1),
                    Point(x0, y0 + h), Point(x0 + w, y0 + h),
                ])
                blocks.append(Block(f"s{i}_{j}", [rect(x0, y0, x0 + w, y0 + h)],
                                          float(draw(st.integers(0, 50))), "t"))
                blocks.append(Block(f"r{i}_{j}", [rest], pop, "t"))
            else:
                blocks.append(Block(f"b{i}_{j}", [rect(x0, y0, x1, y1)], pop, "t"))
    codes = draw(st.lists(st.sampled_from([11, 21, 22, 24, 42]),
                          min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    landcover = CategoryRaster(g, np.array(codes).reshape(n_rows, n_cols))
    return g, landcover, blocks


def placements(blocks, report):
    return {
        b.block_id: (a.rows.tolist(), a.cols.tolist(), a.fallback)
        for b, a in zip(blocks, report.allocations)
    }


class TestBlockOrder:
    @given(tiled_blocks(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_reordering_non_overlapping_blocks_changes_nothing(self, layout, rnd):
        g, landcover, blocks = layout
        shuffled = list(blocks)
        rnd.shuffle(shuffled)
        table, shuffled_table = tables.blocks(blocks), tables.blocks(shuffled)
        pop, report = downscale(table, landcover, WeightTable.default(), g)
        pop2, report2 = downscale(shuffled_table, landcover, WeightTable.default(), g)
        assert placements(shuffled, report2) == placements(blocks, report)
        assert report2.overlap_cells == report.overlap_cells == 0
        assert np.array_equal(pop2.cells, pop.cells)
        assert validate_mass(table, pop, report).failures().size == 0
        assert validate_mass(shuffled_table, pop2, report2).failures().size == 0


def reference_rasterize_blocks(
    blocks: list[Block], grid: AnalysisGrid
) -> DownscaleReport:
    """The per-block claim loop ``rasterize_blocks`` replaced.

    The loop is kept verbatim; only its result is now stored in the
    report's columns, from which ``allocations`` is built.
    """
    cells, offsets = features_cell_indices([b.parts for b in blocks], grid)
    claimed = np.zeros(grid.n_rows * grid.n_cols, dtype=bool)
    report = DownscaleReport()
    owned: list[np.ndarray] = []
    fallbacks: list[str | None] = []
    for k, block in enumerate(blocks):
        flat = cells[offsets[k]:offsets[k + 1]]
        fallback = None
        if flat.size:
            free = ~claimed[flat]
            report.overlap_cells += int(flat.size - free.sum())
            flat = flat[free]
        if flat.size == 0:
            fallback = "centroid"
            row, col = _reference_centroid_cell(block, grid)
            flat = row * grid.n_cols + col
        claimed[flat] = True
        owned.append(flat)
        fallbacks.append(fallback)
    # Drop each copy as soon as it is merged, to keep the peak low.
    del cells
    sizes = np.array([f.size for f in owned], dtype=np.int64)
    report.starts = np.cumsum(sizes) - sizes
    if owned:
        flat = np.concatenate(owned)
        del owned
        report.rows, report.cols = np.divmod(flat, grid.n_cols)
    report.block_ids = [block.block_id for block in blocks]
    report.fallback = np.array([FALLBACKS.index(f) for f in fallbacks], dtype=np.int8)
    return report


def _reference_centroid_cell(
    block: Block, grid: AnalysisGrid
) -> tuple[np.ndarray, np.ndarray]:
    num_x = num_y = den = 0.0
    for part in block.parts:
        area = polygon_area(part)
        c = polygon_centroid(part)
        weight = area if area > 0 else 1.0
        num_x += weight * c.x
        num_y += weight * c.y
        den += weight
    cx, cy = num_x / den, num_y / den
    col = int(np.clip((cx - grid.origin_x) // grid.cell_size, 0, grid.n_cols - 1))
    band = int(np.clip((cy - grid.origin_y) // grid.cell_size, 0, grid.n_rows - 1))
    row = grid.n_rows - 1 - band
    return np.array([row], dtype=np.int64), np.array([col], dtype=np.int64)


@st.composite
def overlapping_blocks(draw):
    """Blocks anywhere on or partly off a grid, some too small to hold a center.

    A block has one to three parts. A part is a rectangle, some with a
    hole, or now and then a part of zero area, weighted 1.0 in its block's
    centroid: a collinear ring or a bowtie, whose rings' areas are all
    zero, so that its centroid is its exterior's mean vertex.
    """
    g = AnalysisGrid(0, 0, 20.0, draw(st.integers(1, 8)), draw(st.integers(1, 8)))

    def part():
        x0 = draw(st.integers(-40, int(g.max_x)))
        y0 = draw(st.integers(-40, int(g.max_y)))
        tiny = draw(st.integers(0, 3)) == 0
        w = draw(st.integers(1, 8) if tiny else st.integers(10, 100))
        h = draw(st.integers(1, 8) if tiny else st.integers(10, 100))
        kind = draw(st.integers(0, 7))
        if kind == 0:
            return Polygon([Point(x0, y0), Point(x0 + w, y0 + h), Point(x0 + 2 * w, y0 + 2 * h)])
        if kind == 1:
            return Polygon([Point(x0, y0), Point(x0 + w, y0 + h), Point(x0 + w, y0),
                            Point(x0, y0 + h)])
        if kind == 2 and w >= 3 and h >= 3:
            hole = rect(x0 + 1, y0 + 1, x0 + w - 1, y0 + h - 1).exterior
            return Polygon(rect(x0, y0, x0 + w, y0 + h).exterior, [hole])
        return rect(x0, y0, x0 + w, y0 + h)

    blocks = []
    for k in range(draw(st.integers(0, 12))):
        n_parts = draw(st.sampled_from([1, 1, 1, 2, 3]))
        blocks.append(Block(f"b{k}", [part() for _ in range(n_parts)], 1.0, "t"))
    return g, blocks


class TestReferenceClaimLoop:
    @given(overlapping_blocks())
    @settings(max_examples=200, deadline=None)
    def test_matches_claim_loop_where_no_block_captures_a_centroid_cell(self, layout):
        g, blocks = layout
        ref = reference_rasterize_blocks(blocks, g)
        cells, _ = features_cell_indices([b.parts for b in blocks], g)
        for a in ref.allocations:
            if a.fallback:
                assume(a.rows[0] * g.n_cols + a.cols[0] not in cells)
        got = rasterize_blocks(tables.blocks(blocks), g)
        assert placements(blocks, got) == placements(blocks, ref)
        assert got.overlap_cells == ref.overlap_cells
        for name in ("rows", "cols", "starts"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def reference_downscale(blocks, landcover, w, grid):
    """The per-block loop of ``downscale`` and ``validate_mass`` before they
    became array code, over ``rasterize_blocks``' placements.

    Returns the population cells, each block's shares, its fallback and its
    mass entry as (block_id, pop, allocated, rel_err, fallback).
    """
    ra = allocation_factor_raster(landcover, w)
    report = rasterize_blocks(tables.blocks(blocks), grid)
    out = np.zeros(grid.shape)
    shares, fallbacks = [], []
    centroid_pops: dict[tuple[int, int], list[float]] = {}
    for block, alloc in zip(blocks, report.allocations):
        rows, cols = alloc.rows, alloc.cols
        share = np.empty(rows.size)
        shares.append(share)
        fallbacks.append(alloc.fallback)
        if alloc.fallback == "centroid":
            share[:] = block.pop
            centroid_pops.setdefault((int(rows[0]), int(cols[0])), []).append(block.pop)
            continue
        cell_ra = ra.cells[rows, cols]
        total = float(cell_ra.sum())
        if total > 0.0:
            share[:] = block.pop * (cell_ra / total)
        else:
            fallbacks[-1] = "uniform"
            share[:] = block.pop / rows.size
        out[rows, cols] += share
    for cell, pops in centroid_pops.items():
        out[cell] = math.fsum(pops)
    entries = []
    for block, alloc, fallback in zip(blocks, report.allocations, fallbacks):
        allocated = float(out[alloc.rows, alloc.cols].sum())
        rel_err = abs(allocated - block.pop) / max(block.pop, 1.0)
        entries.append((block.block_id, block.pop, allocated, rel_err, fallback))
    return out, np.concatenate(shares or [np.zeros(0)]), fallbacks, entries


class TestMatchesPerBlockLoop:
    @given(
        overlapping_blocks(),
        st.lists(st.floats(0, 1e4) | st.integers(0, 1000).map(float), min_size=12, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bits(self, layout, pops, seed):
        g, blocks = layout
        blocks = [Block(b.block_id, b.parts, p, "t") for b, p in zip(blocks, pops)]
        codes = np.random.default_rng(seed).choice([11, 11, 21, 22, 24, 41, 90], g.shape)
        landcover = CategoryRaster(g, codes)
        w = WeightTable.default()
        table = tables.blocks(blocks)
        pop, report = downscale(table, landcover, w, g)
        mass = validate_mass(table, pop, report)
        cells, shares, fallbacks, entries = reference_downscale(blocks, landcover, w, g)
        assert pop.cells.tobytes() == cells.tobytes()
        assert report.pop.tobytes() == shares.tobytes()
        assert [a.fallback for a in report.allocations] == fallbacks
        got = list(zip(
            mass.block_ids, mass.pop.tolist(), mass.allocated.tolist(), mass.rel_err.tolist(),
            [FALLBACKS[f] for f in mass.fallback.tolist()],
        ))
        assert repr(got) == repr(entries)


class TestMassPreservedOnAnyLayout:
    @given(overlapping_blocks(), st.lists(st.integers(0, 1000), min_size=12, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_no_block_shares_its_cells(self, layout, pops):
        g, blocks = layout
        blocks = [Block(b.block_id, b.parts, float(p), "t") for b, p in zip(blocks, pops)]
        landcover = CategoryRaster(g, np.full((g.n_rows, g.n_cols), 22))
        table = tables.blocks(blocks)
        pop, report = downscale(table, landcover, WeightTable.default(), g)
        assert validate_mass(table, pop, report).failures().size == 0
        assert float(pop.cells.sum()) == pytest.approx(sum(b.pop for b in blocks))


class TestDownscale:
    def test_table2_hand_example(self):
        # 3 developed-high cells + 1 water cell, Pop 100:
        # each developed cell gets 100 * 46/138 = 33.333..., water gets 0.
        g = AnalysisGrid(0, 0, 20, 1, 4)
        landcover = CategoryRaster(g, np.array([[24, 24, 24, 11]]))
        b = Block("b1", [cell_rect(g, 0, 0, 0, 3)], 100.0, "t1")
        pop, report = downscale(tables.blocks([b]), landcover, WeightTable.default(), g)
        assert pop.cells[0, 0] == pytest.approx(100 / 3, abs=1e-12)
        assert pop.cells[0, 1] == pytest.approx(100 / 3, abs=1e-12)
        assert pop.cells[0, 3] == 0.0
        assert not report.fallback_ids()

    def test_zero_pop_block(self):
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 24))
        pop, _ = downscale(
            tables.blocks([block(g, "b", 0, 3, 0, 3, 0.0)]), landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 0.0)

    def test_uniform_class_splits_evenly(self):
        g = grid(4)
        landcover = CategoryRaster(g, np.full((4, 4), 22))
        pop, _ = downscale(
            tables.blocks([block(g, "b", 0, 3, 0, 3, 80.0)]), landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 5.0)

    def test_zero_weight_block_falls_back_to_uniform(self):
        g = grid(2)
        landcover = CategoryRaster(g, np.full((2, 2), 11))
        pop, report = downscale(
            tables.blocks([block(g, "wet", 0, 1, 0, 1, 8.0)]), landcover, WeightTable.default(), g
        )
        assert np.all(pop.cells == 2.0)
        assert report.fallback_ids() == {"wet"}

    def test_tiny_block_centroid_fallback_preserves_pop(self):
        g = grid(6)
        landcover = CategoryRaster(g, np.full((6, 6), 21))
        sliver = Block(
            "s", [Polygon([Point(41, 41), Point(43, 41), Point(43, 43), Point(41, 43)])], 7.0, "t"
        )
        pop, report = downscale(tables.blocks([sliver]), landcover, WeightTable.default(), g)
        assert float(pop.cells.sum()) == 7.0
        # Centroid (42, 42) lies in cell row 3, col 2.
        assert pop.cells[3, 2] == 7.0
        assert report.allocations[0].fallback == "centroid"

    def test_multipolygon_parts_share_one_pop(self):
        g = grid(6)
        landcover = CategoryRaster(g, np.full((6, 6), 23))
        b = Block(
            "m",
            [cell_rect(g, 0, 0, 0, 1), cell_rect(g, 5, 5, 4, 5)],
            40.0,
            "t",
        )
        pop, report = downscale(tables.blocks([b]), landcover, WeightTable.default(), g)
        assert pop.cells[0, 0] == 10.0
        assert pop.cells[5, 5] == 10.0
        assert float(pop.cells.sum()) == 40.0
        mass = validate_mass(tables.blocks([b]), pop, report)
        assert mass.max_rel_err() <= 1e-9

    def test_zero_weight_cells_get_exactly_zero(self):
        g = AnalysisGrid(0, 0, 20, 1, 3)
        landcover = CategoryRaster(g, np.array([[24, 11, 22]]))
        b = Block("b", [cell_rect(g, 0, 0, 0, 2)], 56.0, "t")
        pop, _ = downscale(tables.blocks([b]), landcover, WeightTable.default(), g)
        assert pop.cells[0, 1] == 0.0
        assert pop.cells[0, 0] == 56.0 * 46 / 56
        assert pop.cells[0, 2] == 56.0 * 10 / 56

    def test_scale_invariance_of_weights(self):
        rng = np.random.default_rng(3)
        g = grid(8)
        codes = rng.choice([21, 22, 23, 24, 42], size=(8, 8))
        landcover = CategoryRaster(g, codes)
        blocks = tables.blocks([
            block(g, f"b{i}", 4 * (i // 2), 4 * (i // 2) + 3, 4 * (i % 2), 4 * (i % 2) + 3,
                  float(10 + i))
            for i in range(4)
        ])
        base = WeightTable.default()
        scaled = WeightTable({k: 3.0 * v for k, v in base.weights.items()})
        pop1, _ = downscale(blocks, landcover, base, g)
        pop2, _ = downscale(blocks, landcover, scaled, g)
        np.testing.assert_allclose(pop1.cells, pop2.cells, rtol=1e-12, atol=0)

    def test_monotone_in_weight_within_block(self):
        g = AnalysisGrid(0, 0, 20, 1, 2)
        landcover = CategoryRaster(g, np.array([[24, 22]]))  # 46 vs 10
        b = Block("b", [cell_rect(g, 0, 0, 0, 1)], 70.0, "t")
        pop, _ = downscale(tables.blocks([b]), landcover, WeightTable.default(), g)
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
        return g, landcover, tables.blocks(blocks)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_downscale_output_passes(self, seed):
        g, landcover, blocks = self._random_setup(seed)
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        mass = validate_mass(blocks, pop, report)
        assert mass.max_rel_err() <= 1e-9
        assert mass.failures().size == 0

    def test_corrupted_grid_is_flagged(self):
        g, landcover, blocks = self._random_setup(5)
        pop, report = downscale(blocks, landcover, WeightTable.default(), g)
        cells = pop.cells.copy()
        cells.setflags(write=True)
        cells[1, 1] += 1.0  # one extra person
        from fireimpact.grid import RealRaster

        corrupted = RealRaster(g, cells)
        mass = validate_mass(blocks, corrupted, report)
        assert [mass.block_ids[k] for k in mass.failures()] == ["b0_0"]
