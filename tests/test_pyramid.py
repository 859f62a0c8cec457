import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adds.errors import ConfigurationError, ShapeError
from adds.pyramid import (
    build_plan,
    cost_report,
    encode_and_stack,
    extract_tiles,
    resize_bilinear,
)
from adds.rng import SeedStreams


class TestBuildPlan:
    def test_reference_geometry_336_1344(self):
        plan = build_plan(336, 1344)
        assert [lv.grid for lv in plan.levels] == [1, 2, 4]
        assert [len(lv.offsets) ** 2 for lv in plan.levels] == [1, 4, 16]
        assert plan.tile_count() == 21
        assert [lv.resized_side for lv in plan.levels] == [336, 672, 1344]
        assert all(lv.overlap_px == 0 for lv in plan.levels)

    def test_non_power_of_two_overlap_224_672(self):
        plan = build_plan(224, 672)
        assert [lv.grid for lv in plan.levels] == [1, 2, 3]
        assert plan.tile_count() == 1 + 4 + 9
        # every level fits exactly, so no overlap anywhere
        assert [lv.resized_side for lv in plan.levels] == [224, 448, 672]
        assert all(lv.overlap_px == 0 for lv in plan.levels)

    def test_fractional_scale_has_overlap(self):
        plan = build_plan(100, 150)  # d = 1.5: one extra level with 2x2 tiles
        assert [lv.grid for lv in plan.levels] == [1, 2]
        top = plan.levels[1]
        assert top.resized_side == 150
        assert top.overlap_px == 100 - (150 - 100)
        xs = sorted(set(top.offsets))
        assert xs == [0, 50]

    def test_degenerate_single_level(self):
        plan = build_plan(64, 64)
        assert len(plan.levels) == 1
        assert (plan.levels[0].offsets, plan.base_size) == ([0], 64)
        assert plan.tile_count() == 1

    def test_level_selection(self):
        plan = build_plan(336, 1344, selected_levels=[0, 2])
        assert plan.tile_count() == 17
        with pytest.raises(ConfigurationError, match="out of range"):
            build_plan(336, 1344, selected_levels=[3])

    def test_a_selection_is_the_plan_of_its_levels(self):
        full = build_plan(336, 1344)
        plan = build_plan(336, 1344, selected_levels=[2, 0, 2])
        assert [lv.index for lv in plan.levels] == [0, 2]
        assert [lv.offsets for lv in plan.levels] == [full.levels[0].offsets, full.levels[2].offsets]
        assert plan.tile_count() == 1 + 16
        assert plan.row_count(5) == 5 * (1 + 16)
        assert cost_report(plan).per_level_tiles == {0: 1, 2: 16}
        img = SeedStreams(5).stream("img").standard_normal((1344, 1344))
        np.testing.assert_array_equal(extract_tiles(img, plan),
                                      np.delete(extract_tiles(img, full), range(1, 5), axis=0))

    def test_cls_only_flags_bottom_excluded(self):
        plan = build_plan(336, 1344, cls_only_non_bottom=True)
        assert [lv.cls_only for lv in plan.levels] == [True, True, False]

    def test_plan_memory_does_not_grow_with_its_tiles(self):
        # 1,398,101 tiles: a plan holds each level's offsets, never an object per tile
        tracemalloc.start()
        try:
            plan = build_plan(1, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.tile_count() == sum(4**i for i in range(11))
        assert peak < 2e6

    def test_target_smaller_than_base(self):
        with pytest.raises(ConfigurationError):
            build_plan(336, 300)


class TestTileGeometry:
    @given(st.integers(16, 400), st.floats(1.0, 8.0), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_cover_count_stride(self, base, factor, _salt):
        target = int(base * factor)
        if target < base:
            target = base
        plan = build_plan(base, target)
        d = target / base
        assert len(plan.levels) == (math.ceil(math.log2(d)) + 1 if d > 1 else 1)
        for lv in plan.levels:
            n = lv.grid
            assert n == math.ceil(min(2.0**lv.index, d))
            assert len(lv.offsets) == n
            xs = sorted(set(lv.offsets))
            assert xs[0] == 0
            assert xs[-1] == lv.resized_side - base
            if n > 2:
                strides = np.diff(xs)
                assert len(set(strides[:-1])) == 1  # uniform except the pinned tail
            covered = np.zeros(lv.resized_side, dtype=bool)
            for x in xs:
                covered[x : x + base] = True
            assert covered.all()


class TestResize:
    def test_identity_is_bit_exact(self):
        img = SeedStreams(0).stream("img").standard_normal((17, 17))
        out = resize_bilinear(img, 17)
        assert out is not img
        np.testing.assert_array_equal(out, img)

    def test_constant_image_stays_constant(self):
        out = resize_bilinear(np.full((8, 8), 3.25), 20)
        np.testing.assert_allclose(out, 3.25, atol=1e-12)

    def test_downsample_by_two_averages_pairs(self):
        # with half-pixel centers, 2x downsampling of a ramp lands midway
        img = np.tile(np.arange(8, dtype=float), (8, 1))
        out = resize_bilinear(img, 4)
        np.testing.assert_allclose(out[0], [0.5, 2.5, 4.5, 6.5], atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            resize_bilinear(np.zeros((4, 5)), 2)


class TestExtractTiles:
    def test_shapes_and_order(self):
        img = SeedStreams(1).stream("img").standard_normal((128, 128))
        plan = build_plan(32, 128)
        tiles = extract_tiles(img, plan)
        assert tiles.shape == (21, 32, 32)
        # the single level-0 tile is the whole image resized down
        np.testing.assert_array_equal(tiles[0], resize_bilinear(img, 32))
        # bottom level tiles are exact crops of the unresized image
        np.testing.assert_array_equal(tiles[5], img[:32, :32])
        np.testing.assert_array_equal(tiles[5 + 1], img[:32, 32:64])

    @pytest.mark.parametrize("cls_only", [False, True])
    def test_equals_explicit_crops_at_240(self, cls_only):
        img = SeedStreams(4).stream("img").standard_normal((240, 240))
        plan = build_plan(32, 240, cls_only_non_bottom=cls_only)
        bottom = plan.levels[-1]
        # the bottom level overlaps, and its last tile is pinned to the edge
        assert bottom.overlap_px > 0 and bottom.offsets[-1] == 240 - 32
        crops = []
        for lv in plan.levels:
            resized = resize_bilinear(img, lv.resized_side)
            side = plan.base_size
            crops.extend(resized[y : y + side, x : x + side]
                         for y in lv.offsets for x in lv.offsets)
        np.testing.assert_array_equal(extract_tiles(img, plan), crops)

    def test_wrong_image_side(self):
        plan = build_plan(32, 128)
        with pytest.raises(ShapeError):
            extract_tiles(np.zeros((64, 64)), plan)


class _RowCountEncoder:
    """Fake encoder: per tile, its mean in row 0 plus three constant token rows."""

    def encode_tiles(self, tiles):
        means = np.repeat(tiles.mean(axis=(1, 2))[:, None, None], 2, axis=2)
        return np.concatenate([means, np.ones((len(tiles), 3, 2))], axis=1)


class TestEncodeAndStack:
    def test_row_budget_with_cls_only(self):
        img = SeedStreams(2).stream("img").standard_normal((128, 128))
        plan = build_plan(32, 128, cls_only_non_bottom=True)
        tiles = extract_tiles(img, plan)
        out = encode_and_stack(tiles, plan, _RowCountEncoder())
        # levels 0 and 1 contribute 1 row per tile, level 2 all 4 rows
        assert out.shape == (1 + 4 + 16 * 4, 2)
        np.testing.assert_array_equal(out[:5, 0], tiles[:5].mean(axis=(1, 2)))
        np.testing.assert_array_equal(out[5:9], [[tiles[5].mean()] * 2, [1, 1], [1, 1], [1, 1]])

    def test_all_tokens_kept_by_default(self):
        img = SeedStreams(3).stream("img").standard_normal((64, 64))
        plan = build_plan(32, 64)
        out = encode_and_stack(extract_tiles(img, plan), plan, _RowCountEncoder())
        assert out.shape == (5 * 4, 2)

    def test_tile_count_mismatch(self):
        plan = build_plan(32, 64)
        with pytest.raises(ShapeError):
            encode_and_stack(np.zeros((1, 32, 32)), plan, _RowCountEncoder())


class TestCostReport:
    def test_reference_claim(self):
        report = cost_report(build_plan(336, 1344))
        assert report.per_level_tiles == {0: 1, 1: 4, 2: 16}
        assert report.pyramid_units == 21
        assert report.naive_units == 256
        assert abs(report.ratio - 256 / 21) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_units_equal_grid_sum(self, d):
        plan = build_plan(32, 32 * d)
        report = cost_report(plan)
        assert report.pyramid_units == sum(lv.grid**2 for lv in plan.levels)
        assert report.naive_units == d**4
