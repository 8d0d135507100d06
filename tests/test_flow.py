import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_edge_gradients, naive_lk_block

from deepref import flow as flow_mod
from deepref.errors import ConfigError, FormatError, ShapeMismatchError
from deepref.flow import (
    MV_CLAMP,
    ExtractionConfig,
    SamplePair,
    extract_pairs,
    lucas_kanade_mv,
    read_dataset,
    round_mv_topleft,
    write_dataset,
)
from deepref.synthetic import SinusoidTexture


def smooth_noise(seed, h, w, passes=3, radius=2):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, (h, w))
    kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
    for _ in range(passes):
        img = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, img)
        img = np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="same"), 0, img)
    img = (img - img.min()) / (img.max() - img.min()) * 255
    return np.rint(img).astype(np.uint8)


def bilinear_shift(img, sx, sy):
    """cur(x) = ref(x + s) synthesized by bilinear resampling."""
    h, w = img.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys = np.clip(ys + sy, 0, h - 1)
    xs = np.clip(xs + sx, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy, fx = ys - y0, xs - x0
    f = img.astype(np.float64)
    top = f[y0, x0] * (1 - fx) + f[y0, x1] * fx
    bot = f[y1, x0] * (1 - fx) + f[y1, x1] * fx
    return np.rint(np.clip(top * (1 - fy) + bot * fy, 0, 255)).astype(np.uint8)


CFG = ExtractionConfig(block_size=32)


class TestLucasKanade:
    def test_static_textured_block_zero_mv_not_degenerate(self):
        ref = smooth_noise(0, 96, 96)
        (vx, vy), degenerate = lucas_kanade_mv(ref, ref, (32, 32), 32)
        assert (vx, vy) == (0.0, 0.0)
        assert not degenerate

    def test_integer_shift_two_one_recovered(self):
        ref = smooth_noise(1, 96, 96)
        cur = np.roll(np.roll(ref, -1, axis=0), -2, axis=1)  # cur(x) = ref(x + (2,1))
        (vx, vy), degenerate = lucas_kanade_mv(ref, cur, (32, 32), 32)
        assert not degenerate
        assert abs(vx - 2.0) < 0.1 and abs(vy - 1.0) < 0.1

    def test_flat_block_is_degenerate(self):
        flat = np.full((64, 64), 90, dtype=np.uint8)
        mv, degenerate = lucas_kanade_mv(flat, flat, (16, 16), 32)
        assert degenerate and mv == (0.0, 0.0)

    @pytest.mark.parametrize("shift", [(-4, 0), (4, 4), (0, -4), (3, -2), (-4, 4)])
    def test_integer_shifts_up_to_four_px(self, shift):
        sx, sy = shift
        for seed in (2, 3):
            ref = smooth_noise(seed, 96, 96)
            cur = np.roll(np.roll(ref, -sy, axis=0), -sx, axis=1)
            (vx, vy), _ = lucas_kanade_mv(ref, cur, (32, 32), 32)
            assert max(abs(vx - sx), abs(vy - sy)) < 0.1

    @pytest.mark.parametrize("shift", [(0.25, 0.0), (0.75, -0.5), (2.25, 1.75), (-3.25, 0.25)])
    def test_bilinear_quarter_pel_shifts(self, shift):
        sx, sy = shift
        ref = smooth_noise(4, 96, 96)
        cur = bilinear_shift(ref, sx, sy)
        (vx, vy), _ = lucas_kanade_mv(ref, cur, (32, 32), 32)
        assert max(abs(vx - sx), abs(vy - sy)) < 0.25

    def test_mv_clamped_to_configured_range(self, monkeypatch):
        # on this smoother texture the solve finds the whole 12 px shift
        ref = smooth_noise(5, 96, 96, radius=6)
        cur = np.roll(ref, -12, axis=1)
        assert MV_CLAMP == 8.0
        (vx, vy), _ = lucas_kanade_mv(ref, cur, (32, 32), 32)
        assert vx == 8.0 and abs(vy) <= 8.0
        monkeypatch.setattr(flow_mod, "MV_CLAMP", np.inf)
        (vx, _), _ = lucas_kanade_mv(ref, cur, (32, 32), 32)
        assert abs(vx - 12.0) < 0.1

    def test_block_out_of_bounds_rejected(self):
        ref = smooth_noise(6, 64, 64)
        with pytest.raises(ShapeMismatchError):
            lucas_kanade_mv(ref, ref, (40, 0), 32)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            lucas_kanade_mv(np.zeros((64, 64)), np.zeros((64, 32)), (0, 0), 32)


class TestRoundTopLeft:
    @pytest.mark.parametrize("mv,expected", [
        ((1.25, -0.5), (1, -1)),
        ((3.0, 2.0), (3, 2)),
        ((-0.25, 0.75), (-1, 0)),
    ])
    def test_spec_examples(self, mv, expected):
        assert round_mv_topleft(mv) == expected

    @given(st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_floor_inequality(self, vx, vy):
        ox, oy = round_mv_topleft((vx, vy))
        assert ox <= vx < ox + 1
        assert oy <= vy < oy + 1


class TestExtractPairs:
    def test_static_frames_give_bit_exact_pairs(self):
        frame = smooth_noise(7, 96, 96)
        pairs = extract_pairs(frame, frame, CFG)
        assert len(pairs) == 9
        for pair in pairs:
            np.testing.assert_array_equal(pair.x_block, pair.y_block)

    def test_grid_count_96px_block32(self):
        frame = smooth_noise(8, 96, 96)
        assert len(extract_pairs(frame, frame, CFG)) == 9

    def test_half_pel_shift_keeps_integer_origin(self):
        tex = SinusoidTexture.random(9)
        ref = tex.render(96, 96)
        cur = tex.render(96, 96, offset=(0.5, 0.0))
        pairs = extract_pairs(ref, cur, CFG)
        assert len(pairs) == 9
        for pair in pairs:
            bx, by = pair.origin
            np.testing.assert_array_equal(pair.x_block, ref[by : by + 32, bx : bx + 32])
            assert not np.array_equal(pair.x_block, pair.y_block)
            assert 0.3 < pair.mv[0] < 0.7 and abs(pair.mv[1]) < 0.2

    def test_integer_shift_aligns_x_to_matching_block(self):
        ref = smooth_noise(10, 96, 96)
        cur = np.roll(ref, -2, axis=1)  # cur(x) = ref(x + (2,0))
        pairs = extract_pairs(ref, cur, CFG)
        # interior tiles recover mv ~ (2,0); X must equal the shifted ref block == Y
        middle = [p for p in pairs if p.origin == (32, 32)]
        assert middle
        np.testing.assert_array_equal(middle[0].x_block, middle[0].y_block)

    def test_out_of_ref_windows_dropped(self):
        # leftward motion pushes X windows of left-edge tiles out of ref
        big = smooth_noise(11, 96, 102)
        ref = big[:, 3:99]
        cur = big[:, 0:96]  # cur(x) = ref(x - 3), no wraparound artifacts
        pairs = extract_pairs(ref, cur, CFG)
        dropped = {(0, 0), (0, 32), (0, 64)}
        kept_origins = {p.origin for p in pairs}
        assert dropped.isdisjoint(kept_origins)
        assert len(pairs) == 6
        assert all(abs(p.mv[0] + 3.0) < 0.1 for p in pairs)

    def test_degenerate_tiles_kept_with_zero_offset_by_default(self):
        flat = np.full((64, 64), 128, dtype=np.uint8)
        pairs = extract_pairs(flat, flat, ExtractionConfig(block_size=32))
        assert len(pairs) == 4
        assert all(p.mv == (0.0, 0.0) for p in pairs)

    def test_stride_overlap(self):
        frame = smooth_noise(12, 64, 64)
        pairs = extract_pairs(frame, frame, ExtractionConfig(block_size=32, stride=16))
        assert len(pairs) == 9  # ((64-32)/16+1)^2

    def test_determinism(self):
        tex = SinusoidTexture.random(13)
        ref, cur = tex.render(96, 96), tex.render(96, 96, offset=(0.3, 0.7))
        a = extract_pairs(ref, cur, CFG)
        b = extract_pairs(ref, cur, CFG)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.mv == pb.mv and pa.origin == pb.origin
            np.testing.assert_array_equal(pa.x_block, pb.x_block)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError, match="dims"):
            extract_pairs(np.zeros((64, 64), np.uint8), np.zeros((64, 96), np.uint8), CFG)

    @given(st.integers(40, 90), st.integers(40, 90), st.integers(5, 40), st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_all_windows_in_bounds_fuzz(self, h, w, stride, seed):
        cfg = ExtractionConfig(block_size=16, stride=stride)
        tex = SinusoidTexture.random(seed)
        ref = tex.render(w, h)
        cur = tex.render(w, h, offset=(1.3, -0.8))
        for pair in extract_pairs(ref, cur, cfg):
            assert pair.x_block.shape == (16, 16)
            assert pair.y_block.shape == (16, 16)
            bx, by = pair.origin
            assert 0 <= bx and bx + 16 <= w and 0 <= by and by + 16 <= h


def naive_extract_pairs(ref, cur, cfg):
    """`extract_pairs` as a per-tile loop over the per-block oracle solve."""
    ref_f, cur_f = ref.astype(np.float64), cur.astype(np.float64)
    gx, gy = naive_edge_gradients(ref_f)
    fh, fw = cur.shape
    bs = cfg.block_size
    pairs = []
    for by in range(0, fh - bs + 1, cfg.effective_stride):
        for bx in range(0, fw - bs + 1, cfg.effective_stride):
            mv, _ = naive_lk_block(ref_f, gx, gy, cur_f, (bx, by), (bs, bs))
            mv = flow_mod._snap_near_integers(mv)
            ox, oy = round_mv_topleft(mv)
            sx, sy = bx + ox, by + oy
            if 0 <= sx and sx + bs <= fw and 0 <= sy and sy + bs <= fh:
                pairs.append(SamplePair(ref[sy : sy + bs, sx : sx + bs].copy(),
                                        cur[by : by + bs, bx : bx + bs].copy(), (bx, by), mv))
    return pairs


def sparse_patch_scene(seed, n=32):
    """A small noise patch on a flat field. The solve of an 8x8 block near it
    can leave the patch and stop at the det test: seed 14's block at
    `sparse_patch_block(14)` does."""
    rng = np.random.default_rng(seed)
    ref = np.zeros((n, n))
    p = int(rng.integers(2, 8))
    y0, x0 = rng.integers(0, n - p, 2)
    ref[y0 : y0 + p, x0 : x0 + p] = rng.uniform(0, 255, (p, p))
    cur = rng.uniform(0, 255, (n, n)) * rng.integers(0, 2)
    return np.rint(ref).astype(np.uint8), np.rint(cur).astype(np.uint8), rng


def sparse_patch_block(seed, n=32):
    _, _, rng = sparse_patch_scene(seed, n)
    bx, by = rng.integers(0, n - 8, 2)
    return int(bx), int(by)


@st.composite
def scenes(draw, min_side=8):
    """(ref, cur) 8-bit frames: a textured pan and zoom, a pan of a smooth
    texture far enough to reach MV_CLAMP, a flat frame, or a sparse patch."""
    h, w = draw(st.integers(min_side, 48)), draw(st.integers(min_side, 48))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["texture", "smooth pan", "flat", "patch"]))
    if kind == "texture":
        tex = SinusoidTexture.random(seed, min_freq=0.02, max_freq=0.3)
        offset = (draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
        scale = draw(st.sampled_from([1.0, 1.02, 0.97]))
        return tex.render(w, h), tex.render(w, h, offset=offset, scale=scale)
    if kind == "smooth pan":
        tex = SinusoidTexture.random(seed, min_freq=0.01, max_freq=0.03)
        offset = (draw(st.floats(-14, 14)), draw(st.floats(-14, 14)))
        return tex.render(w, h), tex.render(w, h, offset=offset)
    if kind == "flat":
        level = draw(st.integers(0, 255))
        return np.full((h, w), level, np.uint8), np.full((h, w), level, np.uint8)
    ref, cur, _ = sparse_patch_scene(seed, max(h, w))
    return ref[:h, :w], cur[:h, :w]


# the batch budget as it is, a whole frame per batch, one block per batch
BUDGETS = st.sampled_from([flow_mod.LK_BYTES, 1 << 40, 1])


def assert_same_pairs(got, want):
    assert [p.origin for p in got] == [p.origin for p in want]
    for g, p in zip(got, want):
        # bits, not values: -0.0 == 0.0, yet a dataset file stores the sign
        assert struct.pack("<2d", *g.mv) == struct.pack("<2d", *p.mv)
        assert g.x_block.dtype == p.x_block.dtype and g.y_block.dtype == p.y_block.dtype
        assert g.x_block.tobytes() == p.x_block.tobytes()
        assert g.y_block.tobytes() == p.y_block.tobytes()


class TestBatchedSolveMatchesOracle:
    """The batched solve gives every block the bits of the per-block oracle."""

    @given(scenes(), st.integers(8, 19), st.one_of(st.none(), st.integers(4, 19)), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_extract_pairs(self, scene, block, stride, budget):
        ref, cur = scene
        cfg = ExtractionConfig(block_size=block, stride=stride)
        with mock.patch.object(flow_mod, "LK_BYTES", budget):
            got = extract_pairs(ref, cur, cfg)
        assert_same_pairs(got, naive_extract_pairs(ref, cur, cfg))

    @given(scenes(min_side=20), st.integers(1, 20), st.integers(1, 20), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lucas_kanade_mv_non_square(self, scene, w, h, data):
        ref, cur = scene
        fh, fw = ref.shape
        x0 = data.draw(st.integers(0, fw - w))
        y0 = data.draw(st.integers(0, fh - h))
        gx, gy = naive_edge_gradients(ref.astype(np.float64))
        want = naive_lk_block(ref.astype(np.float64), gx, gy, cur.astype(np.float64),
                              (x0, y0), (w, h))
        assert lucas_kanade_mv(ref, cur, (x0, y0), (w, h)) == want

    @pytest.mark.parametrize("budget", [flow_mod.LK_BYTES, 1 << 40, 1])
    def test_det_break_flat_and_clamped_blocks(self, budget):
        ref, cur, _ = sparse_patch_scene(14)
        origin = sparse_patch_block(14)
        smooth = smooth_noise(5, 96, 96, radius=6)
        cases = [
            (ref, cur, origin, (8, 8)),  # stops at the det test
            (np.full((40, 40), 7, np.uint8), np.full((40, 40), 9, np.uint8), (3, 5), (16, 9)),
            (smooth, np.roll(smooth, -12, axis=1), (32, 32), (32, 32)),  # reaches MV_CLAMP
        ]
        results = []
        for a, b, at, size in cases:
            a_f, b_f = a.astype(np.float64), b.astype(np.float64)
            want = naive_lk_block(a_f, *naive_edge_gradients(a_f), b_f, at, size)
            assert lucas_kanade_mv(a, b, at, size) == want
            results.append(want)
        assert results[1] == ((0.0, 0.0), True)
        assert results[2][0][0] == MV_CLAMP
        for a, b, _, (bs, _) in cases:
            cfg = ExtractionConfig(block_size=max(bs, 8), stride=4)
            with mock.patch.object(flow_mod, "LK_BYTES", budget):
                got = extract_pairs(a, b, cfg)
            assert_same_pairs(got, naive_extract_pairs(a, b, cfg))

    # an empty frame is refused (test_codec.py::test_malformed_plane_refused)
    @pytest.mark.parametrize("shape", [(15, 40), (40, 15), (7, 7), (1, 1), (1, 20)])
    def test_frame_smaller_than_a_block_gives_no_pairs(self, shape):
        frame = np.zeros(shape, np.uint8)
        with mock.patch.object(flow_mod, "_lk_blocks", side_effect=AssertionError), \
                np.errstate(all="raise"):
            assert extract_pairs(frame, frame, ExtractionConfig(block_size=16, stride=4)) == []


class TestDatasetFile:
    def make_pairs(self, n=3, bs=16):
        rng = np.random.default_rng(0)
        return [
            SamplePair(
                rng.integers(0, 256, (bs, bs)).astype(np.uint8),
                rng.integers(0, 256, (bs, bs)).astype(np.uint8),
                (int(rng.integers(0, 100)), int(rng.integers(0, 100))),
                (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
            )
            for _ in range(n)
        ]

    def test_round_trip(self, tmp_path):
        pairs = self.make_pairs()
        path = tmp_path / "d.drpd"
        write_dataset(pairs, path, 16)
        back = read_dataset(path)
        assert len(back) == len(pairs)
        for a, b in zip(pairs, back):
            np.testing.assert_array_equal(a.x_block, b.x_block)
            np.testing.assert_array_equal(a.y_block, b.y_block)
            assert a.origin == b.origin
            assert b.mv == (pytest.approx(a.mv[0], rel=1e-6), pytest.approx(a.mv[1], rel=1e-6))
            assert [type(v) for v in (*b.origin, *b.mv)] == [int, int, float, float]

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.drpd"
        write_dataset([], path, 16)
        assert read_dataset(path) == []

    def test_count_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.drpd"
        write_dataset(self.make_pairs(), path, 16)
        data = bytearray(path.read_bytes())
        data[12:20] = (99).to_bytes(8, "little")  # corrupt the pair count
        (tmp_path / "bad.drpd").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="count"):
            read_dataset(tmp_path / "bad.drpd")

    def test_huge_block_size_header(self, tmp_path):
        # a dtype of 65540x65540 blocks does not fit a C int: the count and
        # the size are checked before any record layout is built
        path = tmp_path / "huge.drpd"
        path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, 65540, 0))
        assert read_dataset(path) == []
        path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, 65540, 1) + bytes(16))
        with pytest.raises(FormatError, match=r"count field \(1 pairs of 8590983216 bytes\)"):
            read_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.drpd").write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_dataset(tmp_path / "bad.drpd")

    def test_truncated_header_rejected(self, tmp_path):
        (tmp_path / "bad.drpd").write_bytes(b"DRPD\x01\x00\x00\x00")
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "bad.drpd")

    def test_mixed_block_sizes_rejected(self, tmp_path):
        pairs = self.make_pairs(2, bs=16) + self.make_pairs(1, bs=32)
        with pytest.raises(ShapeMismatchError):
            write_dataset(pairs, tmp_path / "d.drpd", 16)

    @pytest.mark.parametrize("block", [np.full((16, 16), 300, dtype=np.int64),
                                       np.full((16, 16), 1e6), np.zeros((1, 16, 16), np.uint8)])
    def test_block_that_is_no_8bit_plane_rejected(self, tmp_path, block):
        # a uint8 cast would store an int64 300 as 44 and a float 1e6 as 64
        for i, pair in enumerate(self.make_pairs(2)):
            pairs = self.make_pairs(2)
            pairs[i] = SamplePair(block, pair.y_block, pair.origin, pair.mv)
            with pytest.raises(ShapeMismatchError, match=f"pair {i} X block"):
                write_dataset(pairs, tmp_path / "d.drpd", 16)
            pairs[i] = SamplePair(pair.x_block, block, pair.origin, pair.mv)
            with pytest.raises(ShapeMismatchError, match=f"pair {i} Y block"):
                write_dataset(pairs, tmp_path / "d.drpd", 16)
        assert not (tmp_path / "d.drpd").exists()

    @pytest.mark.parametrize("origin", [(-1, 0), (2**32, 0), (0.0, 0), (np.float64(3), 0)])
    def test_origin_that_is_no_uint32_rejected(self, tmp_path, origin):
        # -1 used to end in a raw struct.error
        pairs = self.make_pairs(2)
        pairs[1] = SamplePair(pairs[1].x_block, pairs[1].y_block, origin, pairs[1].mv)
        with pytest.raises(ConfigError, match=r"pair 1 origin\[0\]"):
            write_dataset(pairs, tmp_path / "d.drpd", 16)
        assert not (tmp_path / "d.drpd").exists()

    @pytest.mark.parametrize("mv", [(0, 1e40), (0, -3.5e38), (0, math.nan), (0, math.inf),
                                    (0, 10**40), (0, "1"), (0, True)])
    def test_mv_that_is_no_finite_float32_rejected(self, tmp_path, mv):
        # 1e40 used to end in a raw OverflowError, and NaN was written
        pairs = self.make_pairs(2)
        pairs[1] = SamplePair(pairs[1].x_block, pairs[1].y_block, pairs[1].origin, mv)
        with pytest.raises(ConfigError, match=r"pair 1 mv\[1\]"):
            write_dataset(pairs, tmp_path / "d.drpd", 16)
        assert not (tmp_path / "d.drpd").exists()

    def test_extreme_origin_and_mv_round_trip(self, tmp_path):
        f32_max = float(np.finfo(np.float32).max)
        pair = self.make_pairs(1)[0]
        pairs = [SamplePair(pair.x_block, pair.y_block, (2**32 - 1, np.uint32(0)),
                            (f32_max, np.float32(-f32_max)))]
        write_dataset(pairs, tmp_path / "d.drpd", 16)
        (back,) = read_dataset(tmp_path / "d.drpd")
        assert back.origin == (2**32 - 1, 0) and back.mv == (f32_max, -f32_max)

    @pytest.mark.parametrize("block_size", [0, -1, 16.0, None, True])
    def test_block_size_is_a_positive_integer(self, tmp_path, block_size):
        with pytest.raises(ConfigError, match="block_size"):
            write_dataset([], tmp_path / "d.drpd", block_size)

    def test_block_size_other_than_the_pairs_rejected(self, tmp_path):
        with pytest.raises(ShapeMismatchError, match=r"\(16, 16\) != \(8,8\)"):
            write_dataset(self.make_pairs(), tmp_path / "d.drpd", 8)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExtractionConfig(block_size=4)
    with pytest.raises(ConfigError):
        ExtractionConfig(stride=0)
