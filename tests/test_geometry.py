"""Geometry tests: rasterization, IoU, soft masks, KL.

Expected values for the fixed cases were derived with the loop oracles in
oracles.py and frozen here before the vectorized implementations existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge.errors import ValidationError
from cotforge.geometry import (
    BBox,
    SoftMask,
    box_span,
    build_soft_mask,
    kl_rows,
    mask_iou,
)
from oracles import (
    oracle_average_pool,
    oracle_box_pixels,
    oracle_build_soft_mask,
    oracle_iou,
    oracle_kl,
    oracle_kl_divergence,
    rasterize_box,
)


def random_box(rng, min_side=0.05):
    x1 = rng.uniform(0.0, 1.0 - min_side)
    y1 = rng.uniform(0.0, 1.0 - min_side)
    x2 = rng.uniform(x1 + min_side, 1.0)
    y2 = rng.uniform(y1 + min_side, 1.0)
    return BBox(x1, y1, x2, y2)


def edge_case_boxes(rng):
    """(box, height, width) cases at the edges of the pixel-center rule.

    Boxes that fall between pixel centers (so cover none), boxes touching
    x2 = 1.0 or y2 = 1.0, edges exactly on pixel centers, and 1xN / Nx1
    rasters.
    """
    cases = []
    for _ in range(12):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        # strictly between two neighbouring centers, on one axis or both
        gap_x = ((c + 0.55) / w, (c + 0.95) / w)
        gap_y = ((r + 0.55) / h, (r + 0.95) / h)
        cases.append((BBox(gap_x[0], gap_y[0], gap_x[1], gap_y[1]), h, w))
        cases.append((BBox(gap_x[0], 0.0, gap_x[1], 1.0), h, w))
        cases.append((BBox(0.0, gap_y[0], 1.0, gap_y[1]), h, w))
        # touching the right or bottom edge
        x1, y1 = rng.uniform(0.0, 0.95, size=2)
        cases.append((BBox(x1, y1, 1.0, rng.uniform(y1 + 0.01, 1.0)), h, w))
        cases.append((BBox(x1, y1, rng.uniform(x1 + 0.01, 1.0), 1.0), h, w))
        cases.append((BBox(x1, y1, 1.0, 1.0), h, w))
        # edges exactly on pixel centers
        cases.append((BBox((c + 0.5) / w, (r + 0.5) / h, 1.0, 1.0), h, w))
        cases.append((BBox(0.0, 0.0, (c + 0.5) / w, (r + 0.5) / h), h, w))
    for n in (1, 2, 7, 30):
        for _ in range(3):
            cases.append((random_box(rng, min_side=0.01), 1, n))
            cases.append((random_box(rng, min_side=0.01), n, 1))
    return cases


EDGE_CASES = edge_case_boxes(np.random.default_rng(31))


class TestBBox:
    def test_valid_box_roundtrip(self):
        b = BBox(0.1, 0.2, 0.5, 0.9)
        assert (b.x1, b.y1, b.x2, b.y2) == (0.1, 0.2, 0.5, 0.9)

    @pytest.mark.parametrize(
        "coords",
        [
            (0.5, 0.1, 0.5, 0.9),  # zero width
            (0.6, 0.1, 0.5, 0.9),  # inverted x
            (0.1, 0.9, 0.5, 0.2),  # inverted y
            (-0.1, 0.1, 0.5, 0.9),  # out of range
            (0.1, 0.1, 1.5, 0.9),
        ],
    )
    def test_degenerate_rejected(self, coords):
        with pytest.raises(ValidationError):
            BBox(*coords)


class TestRasterize:
    def test_left_half_on_64(self):
        box = BBox(0.0, 0.0, 0.5, 1.0)
        raster = rasterize_box(box, 64, 64)
        assert raster.shape == (64, 64)
        assert raster[:, :32].all()
        assert not raster[:, 32:].any()

    def test_matches_oracle_pixel_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            h = int(rng.integers(4, 40))
            w = int(rng.integers(4, 40))
            box = random_box(rng, min_side=0.1)
            raster = rasterize_box(box, h, w)
            expected = oracle_box_pixels(box, h, w)
            got = {(r, c) for r, c in zip(*np.nonzero(raster))}
            assert got == expected


    def test_edge_cases_match_oracle_pixel_sets(self):
        assert any(not oracle_box_pixels(*case) for case in EDGE_CASES)
        for box, h, w in EDGE_CASES:
            expected = oracle_box_pixels(box, h, w)
            raster = rasterize_box(box, h, w)
            assert raster.dtype == bool and raster.shape == (h, w)
            assert {(r, c) for r, c in zip(*np.nonzero(raster))} == expected
            r0, r1, c0, c1 = box_span(box, h, w)
            if expected:
                rows = {r for r, _ in expected}
                cols = {c for _, c in expected}
                assert (r0, r1, c0, c1) == (min(rows), max(rows) + 1,
                                            min(cols), max(cols) + 1)
                assert len(expected) == (r1 - r0) * (c1 - c0)
            else:
                assert (r0, r1, c0, c1) == (0, 0, 0, 0)


class TestMaskIou:
    def test_left_half_box_full_mask(self):
        # 64x64, mask = all pixels, box = left half -> exactly 0.5
        box = BBox(0.0, 0.0, 0.5, 1.0)
        mask = np.ones((64, 64), dtype=bool)
        assert mask_iou(box, mask) == 0.5

    def test_exact_cover_is_one(self):
        box = BBox(0.25, 0.25, 0.75, 0.75)
        mask = rasterize_box(box, 32, 32)
        assert mask_iou(box, mask) == 1.0

    def test_disjoint_is_zero(self):
        box = BBox(0.0, 0.0, 0.4, 0.4)
        mask = np.zeros((20, 20), dtype=bool)
        mask[15:, 15:] = True
        assert mask_iou(box, mask) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = int(rng.integers(8, 48))
            w = int(rng.integers(8, 48))
            box = random_box(rng, min_side=0.1)
            mask = rng.random((h, w)) < 0.4
            if not mask.any():
                mask[0, 0] = True
            assert mask_iou(box, mask) == oracle_iou(box, mask)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, float])
    def test_edge_cases_match_loop_oracle(self, dtype):
        rng = np.random.default_rng(13)
        for box, h, w in EDGE_CASES:
            for density in (0.0, 0.3, 1.0):
                mask = (rng.random((h, w)) < density).astype(dtype)
                expected = oracle_iou(box, mask.tolist())
                assert mask_iou(box, mask) == expected
                area = int(np.count_nonzero(mask))
                assert mask_iou(box, mask, area) == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mask_iou(BBox(0, 0, 1, 1), np.ones((4,), dtype=bool))


class TestBuildSoftMask:
    def test_quarter_box_on_2x2_grid(self):
        # 8x8 image, 4x4 box in the top-left, sigma 0, grid 2x2:
        # all mass lands in cell (0, 0) before the floor is applied
        box = BBox(0.0, 0.0, 0.5, 0.5)
        floor = 1e-6
        sm = build_soft_mask(box, (8, 8), (2, 2), sigma=0.0, floor=floor)
        expected_hot = (1.0 + floor) / (1.0 + 4 * floor)
        expected_cold = floor / (1.0 + 4 * floor)
        assert sm.grid[0, 0] == pytest.approx(expected_hot, abs=1e-15)
        assert sm.grid[0, 1] == pytest.approx(expected_cold, abs=1e-15)
        assert sm.grid[1, 0] == pytest.approx(expected_cold, abs=1e-15)
        assert sm.grid[1, 1] == pytest.approx(expected_cold, abs=1e-15)

    def test_full_image_box_is_uniform(self):
        sm = build_soft_mask(BBox(0, 0, 1, 1), (32, 32), (4, 4), sigma=0.0, floor=1e-6)
        assert np.allclose(sm.grid, 1.0 / 16.0, atol=1e-12)
        sm = build_soft_mask(BBox(0, 0, 1, 1), (32, 32), (4, 4), sigma=3.0, floor=1e-6)
        assert np.allclose(sm.grid, 1.0 / 16.0, atol=1e-12)

    def test_sigma_zero_grid_equals_image_dims(self):
        # identity pooling: the floored, normalized binary box mask
        box = BBox(0.25, 0.25, 0.75, 0.75)
        floor = 1e-4
        sm = build_soft_mask(box, (8, 8), (8, 8), sigma=0.0, floor=floor)
        raster = rasterize_box(box, 8, 8).astype(float)
        ref = raster / raster.sum() + floor
        ref /= ref.sum()
        assert np.allclose(sm.grid, ref, atol=1e-15)

    def test_matches_reference_average_pool(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            box = random_box(rng, min_side=0.2)
            h, w = 24, 20
            gh, gw = 6, 5
            floor = 1e-6
            sm = build_soft_mask(box, (h, w), (gh, gw), sigma=0.0, floor=floor)
            raster = rasterize_box(box, h, w).astype(float)
            pooled = np.array(oracle_average_pool(raster.tolist(), gh, gw))
            ref = pooled / pooled.sum() + floor
            ref /= ref.sum()
            assert np.allclose(sm.grid, ref, atol=1e-14)

    def test_translation_equivariance_cell_aligned(self):
        # sigma 0, shifting the box by exactly one grid-cell stride shifts
        # the soft mask by one cell
        base = BBox(0.0, 0.25, 0.25, 0.5)
        shifted = BBox(0.25, 0.25, 0.5, 0.5)
        a = build_soft_mask(base, (64, 64), (4, 4), sigma=0.0, floor=1e-6)
        b = build_soft_mask(shifted, (64, 64), (4, 4), sigma=0.0, floor=1e-6)
        assert np.allclose(np.roll(a.grid, 1, axis=1), b.grid, atol=1e-15)

    @given(
        x1=st.floats(0.0, 0.7),
        y1=st.floats(0.0, 0.7),
        wfrac=st.floats(0.2, 0.3),
        sigma=st.floats(0.0, 4.0),
        floor=st.floats(1e-8, 1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_distribution_invariants(self, x1, y1, wfrac, sigma, floor):
        box = BBox(x1, y1, min(1.0, x1 + wfrac), min(1.0, y1 + wfrac))
        sm = build_soft_mask(box, (32, 32), (4, 4), sigma=sigma, floor=floor)
        assert abs(sm.grid.sum() - 1.0) <= 1e-9
        lower = floor / (1.0 + 16 * floor)
        assert sm.grid.min() >= lower - 1e-15

    def test_degenerate_raster_rejected(self):
        # with the same error as the full-raster oracle build
        box = BBox(10 / 64, 10 / 64, 10.4 / 64, 10.4 / 64)
        for sigma in (0.0, 2.0):
            errors = []
            for build in (build_soft_mask, oracle_build_soft_mask):
                with pytest.raises(ValidationError) as exc:
                    build(box, (64, 64), (4, 4), sigma=sigma, floor=1e-6)
                errors.append(str(exc.value))
            assert errors[0] == errors[1]

    def test_floor_range_validated(self):
        box = BBox(0.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValidationError):
            build_soft_mask(box, (8, 8), (2, 2), sigma=0.0, floor=0.0)
        with pytest.raises(ValidationError):
            build_soft_mask(box, (8, 8), (2, 2), sigma=0.0, floor=0.25)


def assert_soft_mask_matches_oracle(box, image_dims, grid_dims, sigma, floor=1e-6):
    got = build_soft_mask(box, image_dims, grid_dims, sigma=sigma, floor=floor)
    want = oracle_build_soft_mask(box, image_dims, grid_dims, sigma=sigma, floor=floor)
    assert np.array_equal(got.grid, want.grid), (box, image_dims, grid_dims, sigma)


class TestSoftMaskMatchesOracle:
    """build_soft_mask equals the full-raster, 2-D blur, loop-pool build
    (`oracle_build_soft_mask`) bit for bit, on each side of every condition
    that picks the block-mean pool."""

    def test_random_boxes_grids_that_divide(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            gh, gw = (int(v) for v in rng.integers(1, 9, size=2))
            bh, bw = (int(v) for v in rng.integers(1, 13, size=2))
            sigma = float(rng.choice([0.0, 0.7, 2.5, 16.0]))
            assert_soft_mask_matches_oracle(
                random_box(rng, min_side=0.3), (gh * bh, gw * bw), (gh, gw), sigma)

    def test_random_boxes_grids_that_do_not_divide(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            h, w = (int(v) for v in rng.integers(2, 80, size=2))
            gh = int(rng.integers(1, h + 1))
            gw = int(rng.integers(1, w + 1))
            sigma = float(rng.choice([0.0, 0.7, 2.5, 16.0]))
            assert_soft_mask_matches_oracle(
                random_box(rng, min_side=0.5), (h, w), (gh, gw), sigma)

    @pytest.mark.parametrize("bh", [7, 8, 16])
    def test_one_pixel_wide_blocks(self, bh):
        # bw == 1 (a grid as wide as the image): the block-mean form would
        # sum a strided view in another order, so the loop pool must run
        rng = np.random.default_rng(bh)
        for _ in range(60):
            gh = int(rng.integers(1, 5))
            gw = int(rng.integers(2, 9))
            sigma = float(rng.uniform(0.3, 3.0))
            assert_soft_mask_matches_oracle(
                random_box(rng, min_side=0.5), (gh * bh, gw), (gh, gw), sigma)

    @pytest.mark.parametrize("image_dims, cells", [
        ((128, 256), 8192),   # 64 x 128 blocks: one numpy buffer exactly
        ((182, 182), 8281),   # 91 x 91 blocks: more than one buffer
        ((4, 8194), 8194),    # 2 x 4097 blocks: more than one buffer
    ])
    def test_blocks_at_the_buffer_size(self, image_dims, cells):
        assert (image_dims[0] // 2) * (image_dims[1] // 2) == cells
        rng = np.random.default_rng(cells)
        for _ in range(4):
            sigma = float(rng.uniform(0.5, 8.0))
            assert_soft_mask_matches_oracle(
                random_box(rng, min_side=0.3), image_dims, (2, 2), sigma)

    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-16, 0.2, 16.0, 64.0])
    def test_sigma_edges(self, sigma):
        # 64 is the image's longer side; 5e-324 and 1e-16 are at or below
        # the 1e-15 under which gaussian_filter skips an axis
        rng = np.random.default_rng(47)
        for image_dims, grid_dims in (((64, 48), (8, 8)), ((64, 48), (5, 7)),
                                      ((64, 48), (8, 48))):
            for _ in range(10):
                assert_soft_mask_matches_oracle(
                    random_box(rng, min_side=0.1), image_dims, grid_dims, sigma)


def kl_one(attn, target):
    """kl_rows on one row: the divergence and its logit gradient, in attn's shape."""
    kl, grad = kl_rows(np.reshape(attn, (1, -1)), np.reshape(target, (1, -1)))
    return kl[0], grad[0].reshape(np.shape(attn))


class TestKlDivergence:
    def test_frozen_two_cell_values(self):
        # sum p*log(p/q) computed by hand:
        # KL([.5,.5] || [.9,.1]) = .5*ln(5/9) + .5*ln(5) = 0.5108256237659907
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        assert kl_one(p, q)[0] == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_zero_cell_in_attn_allowed(self):
        # 0*log(0) := 0, so KL([1,0] || [.5,.5]) = ln 2
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_one(p, q)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        p = rng.random((4, 4)) + 0.01
        p /= p.sum()
        assert kl_one(p, p.copy())[0] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.random(12) + 1e-3
            p /= p.sum()
            q = rng.random(12) + 1e-3
            q /= q.sum()
            assert kl_one(p, q)[0] == pytest.approx(oracle_kl(p, q), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.random(9) + 1e-6
            p /= p.sum()
            q = rng.random(9) + 1e-6
            q /= q.sum()
            assert kl_one(p, q)[0] >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_one(np.array([1.0]), np.array([0.5, 0.5]))

    def test_zero_target_cell_rejected(self):
        with pytest.raises(ValidationError):
            kl_one(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestKlLogitGradient:
    def test_matches_central_differences(self):
        # d/dz KL(softmax(z) || q), checked against central differences
        rng = np.random.default_rng(17)
        for _ in range(5):
            z = rng.normal(0.0, 1.0, size=16)
            q = rng.random(16) + 1e-3
            q /= q.sum()

            def kl_of(zv):
                e = np.exp(zv - zv.max())
                p = e / e.sum()
                return kl_one(p, q)[0]

            e = np.exp(z - z.max())
            p = e / e.sum()
            analytic = kl_one(p, q)[1]
            h = 1e-6
            worst = 0.0
            for i in range(z.size):
                zp = z.copy()
                zp[i] += h
                zm = z.copy()
                zm[i] -= h
                num = (kl_of(zp) - kl_of(zm)) / (2 * h)
                denom = max(abs(num), abs(analytic[i]), 1e-8)
                worst = max(worst, abs(num - analytic[i]) / denom)
            assert worst <= 1e-5

    def test_underflowed_cell_has_zero_gradient(self):
        # exp(-1e4 - 2) underflows: softmax gives that cell p == 0 exactly
        z = np.array([0.0, 1.0, -1e4, 2.0])
        q = np.array([0.1, 0.2, 0.3, 0.4])

        def softmax(zv):
            e = np.exp(zv - zv.max())
            return e / e.sum()

        p = softmax(z)
        assert p[2] == 0.0
        with np.errstate(divide="raise", invalid="raise"):
            analytic = kl_one(p, q)[1]
        assert np.all(np.isfinite(analytic))
        assert analytic[2] == 0.0
        h = 1e-6
        for i in (0, 1, 3):
            zp = z.copy()
            zp[i] += h
            zm = z.copy()
            zm[i] -= h
            num = (kl_one(softmax(zp), q)[0] - kl_one(softmax(zm), q)[0]) / (2 * h)
            assert abs(num - analytic[i]) <= 1e-5 * max(abs(num), abs(analytic[i]), 1e-8)


class TestKlRows:
    def test_each_row_matches_kl_divergence_bit_for_bit(self):
        rng = np.random.default_rng(23)
        p = rng.dirichlet(np.ones(64), size=12)
        q = rng.dirichlet(np.ones(64), size=12) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        p[3, [5, 40]] = 0.0  # rows with underflowed cells sum their support only
        p[7, :63] = 0.0
        p[7, 63] = 1.0
        p[9] = q[9]  # an identical pair is exactly 0
        kl, grad = kl_rows(p, q)
        for i in range(p.shape[0]):
            assert kl[i] == oracle_kl_divergence(p[i], q[i])
            assert np.array_equal(grad[i], kl_one(p[i], q[i])[1])
        assert np.all(grad[3, [5, 40]] == 0.0) and np.all(grad[7, :63] == 0.0)

    def test_shape_mismatch_and_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            kl_rows(np.full((2, 4), 0.25), np.full((2, 3), 1 / 3))
        with pytest.raises(ValidationError):
            kl_rows(np.full(4, 0.25), np.full(4, 0.25))
        with pytest.raises(ValidationError):
            kl_rows(np.full((1, 2), 0.5), np.array([[1.0, 0.0]]))


class TestWrappers:
    def test_soft_mask_wrapper_validates(self):
        grid = np.full((2, 2), 0.25)
        SoftMask(grid=grid, floor=1e-6)  # fine
        with pytest.raises(ValidationError):
            SoftMask(grid=grid * 2, floor=1e-6)
