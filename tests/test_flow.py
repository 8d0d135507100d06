import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ShapeMismatchError):
            extract_pairs(np.zeros((64, 64)), np.zeros((64, 96)), CFG)

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
        write_dataset(pairs, path)
        back = read_dataset(path)
        assert len(back) == len(pairs)
        for a, b in zip(pairs, back):
            np.testing.assert_array_equal(a.x_block, b.x_block)
            np.testing.assert_array_equal(a.y_block, b.y_block)
            assert a.origin == b.origin
            assert b.mv == (pytest.approx(a.mv[0], rel=1e-6), pytest.approx(a.mv[1], rel=1e-6))

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.drpd"
        write_dataset([], path)
        assert read_dataset(path) == []

    def test_count_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.drpd"
        write_dataset(self.make_pairs(), path)
        data = bytearray(path.read_bytes())
        data[12:20] = (99).to_bytes(8, "little")  # corrupt the pair count
        (tmp_path / "bad.drpd").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="count"):
            read_dataset(tmp_path / "bad.drpd")

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
            write_dataset(pairs, tmp_path / "d.drpd")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExtractionConfig(block_size=4)
    with pytest.raises(ConfigError):
        ExtractionConfig(stride=0)
