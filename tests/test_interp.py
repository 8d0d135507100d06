import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepref.errors import ConfigError, ShapeMismatchError
from deepref.interp import (
    LUMA_FILTERS,
    MotionVectorQ,
    interpolate_block,
    subpel_planes,
)

HALF = (-1, 4, -11, 40, 40, -11, 4, -1)
QUARTER = (-1, 4, -10, 58, 17, -5, 1)


def naive_interpolate(ref, origin, size, mv):
    """Independent scalar reference: per-sample tap loops with clamp addressing."""
    h_img, w_img = ref.shape
    x0, y0 = origin
    w, h = size

    def at(y, x):
        return int(ref[min(max(y, 0), h_img - 1), min(max(x, 0), w_img - 1)])

    def taps_of(frac):
        if frac == 1:
            return QUARTER, -3
        if frac == 2:
            return HALF, -3
        return tuple(reversed(QUARTER)), -2

    ix, fx = mv[0] >> 2, mv[0] & 3
    iy, fy = mv[1] >> 2, mv[1] & 3
    out = np.zeros((h, w), dtype=np.int64)
    for yy in range(h):
        for xx in range(w):
            bx, by = x0 + xx + ix, y0 + yy + iy
            if fx == 0 and fy == 0:
                v = at(by, bx)
            elif fy == 0:
                taps, s = taps_of(fx)
                acc = sum(t * at(by, bx + s + k) for k, t in enumerate(taps))
                v = (acc + 32) >> 6
            elif fx == 0:
                taps, s = taps_of(fy)
                acc = sum(t * at(by + s + k, bx) for k, t in enumerate(taps))
                v = (acc + 32) >> 6
            else:
                taps_x, sx = taps_of(fx)
                taps_y, sy = taps_of(fy)
                acc = 0
                for ky, ty in enumerate(taps_y):
                    row = sum(tx * at(by + sy + ky, bx + sx + kx)
                              for kx, tx in enumerate(taps_x))
                    acc += ty * row
                v = (acc + 2048) >> 12
            out[yy, xx] = min(max(v, 0), 255)
    return out.astype(np.uint8)


class TestFilterSet:
    def test_taps_sum_to_64(self):
        for taps in (LUMA_FILTERS.half, LUMA_FILTERS.quarter, LUMA_FILTERS.three_quarter):
            assert sum(taps) == 64

    def test_half_symmetric_and_three_quarter_mirrors_quarter(self):
        assert LUMA_FILTERS.half == tuple(reversed(LUMA_FILTERS.half))
        assert LUMA_FILTERS.three_quarter == tuple(reversed(LUMA_FILTERS.quarter))


class TestInterpolateBlock:
    def test_integer_mv_is_bit_exact_copy(self, rng):
        ref = rng.integers(0, 256, (24, 24)).astype(np.uint8)
        out = interpolate_block(ref, (4, 6), (8, 8), MotionVectorQ(0, 0))
        np.testing.assert_array_equal(out, ref[6:14, 4:12])
        out = interpolate_block(ref, (4, 6), (8, 8), MotionVectorQ(8, -4))
        np.testing.assert_array_equal(out, ref[5:13, 6:14])

    @pytest.mark.parametrize("fx", [0, 1, 2, 3])
    @pytest.mark.parametrize("fy", [0, 1, 2, 3])
    def test_dc_preserved_on_constant_frame(self, fx, fy):
        ref = np.full((20, 20), 100, dtype=np.uint8)
        out = interpolate_block(ref, (5, 5), (6, 6), MotionVectorQ(fx, fy))
        assert np.all(out == 100)

    def test_half_pel_on_linear_ramp_hits_midpoint(self):
        # f(x) = 2x; the symmetric 8-tap at the half position must give 2x+1
        ref = np.tile(np.arange(0, 64, 2, dtype=np.uint8), (8, 1))
        out = interpolate_block(ref, (8, 2), (8, 4), MotionVectorQ(2, 0))
        expected = 2 * np.arange(8, 16) + 1
        np.testing.assert_array_equal(out, np.tile(expected, (4, 1)))

    @pytest.mark.parametrize("mv", [(1, 0), (3, 0), (0, 2), (2, 2), (1, 3), (-5, 7), (9, -6)])
    def test_matches_naive_oracle(self, rng, mv):
        ref = rng.integers(0, 256, (20, 22)).astype(np.uint8)
        got = interpolate_block(ref, (5, 4), (7, 9), MotionVectorQ(*mv))
        want = naive_interpolate(ref, (5, 4), (7, 9), mv)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_naive_oracle_on_drawn_blocks(self, data):
        # blocks of 1-12 by 1-12 anywhere in a frame, at each of its edges
        # included, for all 16 phases with integer parts within 10 samples
        bw, bh = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        w, h = bw + data.draw(st.integers(0, 12)), bh + data.draw(st.integers(0, 12))
        x0 = data.draw(st.sampled_from([0, w - bw]) | st.integers(0, w - bw))
        y0 = data.draw(st.sampled_from([0, h - bh]) | st.integers(0, h - bh))
        fx, fy = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        ix, iy = data.draw(st.integers(-10, 10)), data.draw(st.integers(-10, 10))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref = np.random.default_rng(seed).integers(0, 256, (h, w)).astype(np.uint8)
        mv = (4 * ix + fx, 4 * iy + fy)
        got = interpolate_block(ref, (x0, y0), (bw, bh), MotionVectorQ(*mv))
        np.testing.assert_array_equal(got, naive_interpolate(ref, (x0, y0), (bw, bh), mv))
        assert got.dtype == np.uint8

    def test_edge_replication_near_borders(self, rng):
        # block touching the frame corner pulls support from replicated samples
        ref = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        for mv in [(1, 1), (-3, -2), (2, 3)]:
            got = interpolate_block(ref, (0, 0), (6, 6), MotionVectorQ(*mv))
            want = naive_interpolate(ref, (0, 0), (6, 6), mv)
            np.testing.assert_array_equal(got, want)
        for mv in [(1, 1), (3, 2), (-2, -3)]:
            got = interpolate_block(ref, (10, 10), (6, 6), MotionVectorQ(*mv))
            want = naive_interpolate(ref, (10, 10), (6, 6), mv)
            np.testing.assert_array_equal(got, want)

    def test_output_clamped_to_8bit(self):
        # sharp step excites filter overshoot; result must stay in [0, 255]
        ref = np.zeros((16, 16), dtype=np.uint8)
        ref[:, 8:] = 255
        out = interpolate_block(ref, (4, 4), (8, 8), MotionVectorQ(2, 2))
        assert out.dtype == np.uint8

    def test_out_of_frame_origin_rejected(self):
        ref = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(ShapeMismatchError, match="outside"):
            interpolate_block(ref, (12, 0), (8, 8), MotionVectorQ(0, 0))
        with pytest.raises(ShapeMismatchError):
            interpolate_block(ref, (-1, 0), (8, 8), MotionVectorQ(0, 0))
        # a side that is no integer >= 1
        for size in (16.5, 0, -3, True, (8, 0), (8.0, 8)):
            with pytest.raises(ConfigError, match="block (width|height) must be an integer >= 1"):
                interpolate_block(ref, (8, 8), size, MotionVectorQ(0, 0))

    def test_scalar_size_means_square_block(self, rng):
        ref = rng.integers(0, 256, (20, 20)).astype(np.uint8)
        a = interpolate_block(ref, (3, 3), 8, MotionVectorQ(1, 2))
        b = interpolate_block(ref, (3, 3), (8, 8), MotionVectorQ(1, 2))
        np.testing.assert_array_equal(a, b)


def test_mirror_symmetry_between_quarter_phases(rng):
    # reflecting the frame left-right swaps the 1/4 and 3/4 phases
    ref = rng.integers(0, 256, (12, 32)).astype(np.uint8)
    fwd = interpolate_block(ref, (8, 2), (8, 8), MotionVectorQ(1, 0))
    mirrored = ref[:, ::-1].copy()
    x0m = ref.shape[1] - (8 + 8)  # mirrored block origin
    back = interpolate_block(mirrored, (x0m, 2), (8, 8), MotionVectorQ(3 - 4, 0))
    np.testing.assert_array_equal(fwd, back[:, ::-1])


class TestSubpelPlanes:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_slices_match_interpolate_block(self, data):
        # any frame size, a block at a frame edge or anywhere, every phase, and
        # integer mv parts over the whole margin, as the codec's search uses them
        h, w = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        margin = data.draw(st.integers(0, 9))
        bh, bw = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
        y0 = data.draw(st.sampled_from([0, h - bh]) | st.integers(0, h - bh))
        x0 = data.draw(st.sampled_from([0, w - bw]) | st.integers(0, w - bw))
        seed = data.draw(st.integers(0, 2**32 - 1))
        ref = np.random.default_rng(seed).integers(0, 256, (h, w)).astype(np.uint8)
        planes = subpel_planes(ref, margin)
        assert planes.shape == (4, 4, h + 2 * margin, w + 2 * margin)
        assert planes.dtype == np.uint8
        for _ in range(4):
            ix, iy = (data.draw(st.integers(-margin, margin)) for _ in range(2))
            fx, fy = (data.draw(st.integers(0, 3)) for _ in range(2))
            mv = MotionVectorQ(4 * ix + fx, 4 * iy + fy)
            top, left = margin + y0 + iy, margin + x0 + ix
            got = planes[fy, fx, top : top + bh, left : left + bw]
            np.testing.assert_array_equal(got, interpolate_block(ref, (x0, y0), (bw, bh), mv))

    def test_every_phase_at_every_corner(self, rng):
        ref = rng.integers(0, 256, (13, 11)).astype(np.uint8)
        margin = 3
        planes = subpel_planes(ref, margin)
        for x0, y0 in [(0, 0), (7, 0), (0, 9), (7, 9)]:
            for x4 in range(-4 * margin, 4 * margin + 4):
                for y4 in (-4 * margin, -3, 0, 2, 4 * margin + 3):
                    mv = MotionVectorQ(x4, y4)
                    top, left = margin + y0 + (y4 >> 2), margin + x0 + (x4 >> 2)
                    got = planes[y4 & 3, x4 & 3, top : top + 4, left : left + 4]
                    np.testing.assert_array_equal(
                        got, interpolate_block(ref, (x0, y0), (4, 4), mv))

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError, match="margin"):
            subpel_planes(np.zeros((8, 8), dtype=np.uint8), -1)

    def test_planes_written_into_a_view(self, rng):
        ref = rng.integers(0, 256, (13, 11)).astype(np.uint8)
        stack = np.full((2, 4, 4, 24, 20), 7, dtype=np.uint8)
        view = stack[1, ..., : 13 + 6, : 11 + 6]
        assert subpel_planes(ref, 3, out=view) is view
        np.testing.assert_array_equal(view, subpel_planes(ref, 3))
        assert (stack[0] == 7).all() and (stack[1, ..., 19:, :] == 7).all()
        assert (stack[1, ..., 17:] == 7).all()

    def test_temporaries_at_720p_are_four_int32_planes(self, rng):
        # the column pass, the row pass, one product scratch and the int32
        # source: no new frame-sized array per tap or per rounding step
        ref = rng.integers(0, 256, (720, 1280)).astype(np.uint8)
        margin = 17
        out = np.empty((4, 4, 720 + 2 * margin, 1280 + 2 * margin), dtype=np.uint8)
        source = 4 * (720 + 2 * margin + 7) * (1280 + 2 * margin + 7)  # int32 bytes
        tracemalloc.start()
        try:
            subpel_planes(ref, margin, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * source + (256 << 10), f"peak {peak / 2**20:.2f} MiB"

    def test_out_of_the_wrong_shape_or_dtype_rejected(self):
        ref = np.zeros((8, 8), dtype=np.uint8)
        for out in (np.empty((4, 4, 10, 10), np.uint8), np.empty((4, 4, 12, 12), np.int16)):
            with pytest.raises(ShapeMismatchError, match="phase planes"):
                subpel_planes(ref, 2, out=out)
