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
    MAX_BLOCK_SIZE,
    MV_CLAMP,
    ExtractionConfig,
    extract_pairs,
    lucas_kanade_mv,
    pair_dtype,
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
        # a side that is no integer >= 1
        for size in (16.5, 0, -4, True, (16, 0), (8, 8.0)):
            with pytest.raises(ConfigError, match="block (width|height) must be an integer >= 1"):
                lucas_kanade_mv(ref, ref, (16, 16), size)

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
        np.testing.assert_array_equal(pairs["x"], pairs["y"])

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
            bx, by = pair["origin"]
            np.testing.assert_array_equal(pair["x"], ref[by : by + 32, bx : bx + 32])
            assert not np.array_equal(pair["x"], pair["y"])
            assert 0.3 < pair["mv"][0] < 0.7 and abs(pair["mv"][1]) < 0.2

    def test_integer_shift_aligns_x_to_matching_block(self):
        ref = smooth_noise(10, 96, 96)
        cur = np.roll(ref, -2, axis=1)  # cur(x) = ref(x + (2,0))
        pairs = extract_pairs(ref, cur, CFG)
        # interior tiles recover mv ~ (2,0); X must equal the shifted ref block == Y
        middle = pairs[(pairs["origin"] == (32, 32)).all(axis=1)]
        assert len(middle)
        np.testing.assert_array_equal(middle[0]["x"], middle[0]["y"])

    def test_out_of_ref_windows_dropped(self):
        # leftward motion pushes X windows of left-edge tiles out of ref
        big = smooth_noise(11, 96, 102)
        ref = big[:, 3:99]
        cur = big[:, 0:96]  # cur(x) = ref(x - 3), no wraparound artifacts
        pairs = extract_pairs(ref, cur, CFG)
        dropped = {(0, 0), (0, 32), (0, 64)}
        kept_origins = set(map(tuple, pairs["origin"].tolist()))
        assert dropped.isdisjoint(kept_origins)
        assert len(pairs) == 6
        assert (abs(pairs["mv"][:, 0] + 3.0) < 0.1).all()

    def test_degenerate_tiles_kept_with_zero_offset_by_default(self):
        flat = np.full((64, 64), 128, dtype=np.uint8)
        pairs = extract_pairs(flat, flat, ExtractionConfig(block_size=32))
        assert len(pairs) == 4
        assert (pairs["mv"] == 0.0).all()

    def test_stride_overlap(self):
        frame = smooth_noise(12, 64, 64)
        pairs = extract_pairs(frame, frame, ExtractionConfig(block_size=32, stride=16))
        assert len(pairs) == 9  # ((64-32)/16+1)^2

    def test_determinism(self):
        tex = SinusoidTexture.random(13)
        ref, cur = tex.render(96, 96), tex.render(96, 96, offset=(0.3, 0.7))
        a = extract_pairs(ref, cur, CFG)
        b = extract_pairs(ref, cur, CFG)
        assert len(a) == 9 and a.tobytes() == b.tobytes()

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
        pairs = extract_pairs(ref, cur, cfg)
        assert pairs.dtype == pair_dtype(16)
        for pair in pairs:
            assert pair["x"].shape == (16, 16)
            assert pair["y"].shape == (16, 16)
            bx, by = pair["origin"]
            assert 0 <= bx and bx + 16 <= w and 0 <= by and by + 16 <= h


def naive_extract_pairs(ref, cur, cfg):
    """`extract_pairs` as a per-tile loop over the per-block oracle solve:
    (the pairs, the solve of every tile in raster order)."""
    ref_f, cur_f = ref.astype(np.float64), cur.astype(np.float64)
    gx, gy = naive_edge_gradients(ref_f)
    fh, fw = cur.shape
    bs = cfg.block_size
    pairs, solved = [], []
    for by in range(0, fh - bs + 1, cfg.effective_stride):
        for bx in range(0, fw - bs + 1, cfg.effective_stride):
            solved.append(naive_lk_block(ref_f, gx, gy, cur_f, (bx, by), (bs, bs)))
            mv = flow_mod._snap_near_integers(solved[-1][0])
            ox, oy = round_mv_topleft(mv)
            sx, sy = bx + ox, by + oy
            if 0 <= sx and sx + bs <= fw and 0 <= sy and sy + bs <= fh:
                pairs.append(((bx, by), mv, ref[sy : sy + bs, sx : sx + bs],
                              cur[by : by + bs, bx : bx + bs]))
    return np.array(pairs, pair_dtype(bs)), solved


def extract_with_solves(ref, cur, cfg):
    """`extract_pairs`: (the pairs, every `_lk_blocks` solve it made, in order)."""
    solved, lk_blocks = [], flow_mod._lk_blocks

    def spy(*args):
        out = lk_blocks(*args)
        solved.extend(out)
        return out

    with mock.patch.object(flow_mod, "_lk_blocks", spy):
        return extract_pairs(ref, cur, cfg), solved


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
    """`extract_with_solves` against `naive_extract_pairs`: the same float64 solve
    of every tile, and the same records byte for byte."""
    (pairs, solved), (naive_pairs, naive_solved) = got, want
    # bits, not values: -0.0 == 0.0, yet a dataset file stores the sign
    assert ([(struct.pack("<2d", *mv), degenerate) for mv, degenerate in solved]
            == [(struct.pack("<2d", *mv), degenerate) for mv, degenerate in naive_solved])
    assert pairs.dtype == naive_pairs.dtype
    assert [p.tobytes() for p in pairs] == [p.tobytes() for p in naive_pairs]


class TestBatchedSolveMatchesOracle:
    """The batched solve gives every block the bits of the per-block oracle."""

    @given(scenes(), st.integers(8, 19), st.one_of(st.none(), st.integers(4, 19)), BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_extract_pairs(self, scene, block, stride, budget):
        ref, cur = scene
        cfg = ExtractionConfig(block_size=block, stride=stride)
        with mock.patch.object(flow_mod, "LK_BYTES", budget):
            got = extract_with_solves(ref, cur, cfg)
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
                got = extract_with_solves(a, b, cfg)
            assert_same_pairs(got, naive_extract_pairs(a, b, cfg))

    # an empty frame is refused (test_codec.py::test_malformed_plane_refused)
    @pytest.mark.parametrize("shape", [(15, 40), (40, 15), (7, 7), (1, 1), (1, 20)])
    def test_frame_smaller_than_a_block_gives_no_pairs(self, shape):
        frame = np.zeros(shape, np.uint8)
        with mock.patch.object(flow_mod, "_lk_blocks", side_effect=AssertionError), \
                np.errstate(all="raise"):
            pairs = extract_pairs(frame, frame, ExtractionConfig(block_size=16, stride=4))
        assert pairs.shape == (0,) and pairs.dtype == pair_dtype(16)


def with_field(name, *spec, block_size=16):
    """`pair_dtype(block_size)` with field `name` declared as `spec`."""
    pair = pair_dtype(block_size)
    return np.dtype([(f, *spec) if f == name else (f, pair[f]) for f in pair.names])


class TestDatasetFile:
    def make_pairs(self, n=3, bs=16):
        rng = np.random.default_rng(0)
        pairs = np.empty(n, pair_dtype(bs))
        pairs["origin"] = rng.integers(0, 100, (n, 2))
        pairs["mv"] = rng.uniform(-4, 4, (n, 2))
        pairs["x"], pairs["y"] = rng.integers(0, 256, (2, n, bs, bs))
        return pairs

    def test_round_trip(self, tmp_path):
        pairs = self.make_pairs()
        path = tmp_path / "d.drpd"
        write_dataset(pairs, path)
        assert struct.unpack_from("<IIQ", path.read_bytes(), 4) == (1, 16, 3)
        back = read_dataset(path)
        assert back.tobytes() == pairs.tobytes()
        # the file's record in memory: uint32 origins, float32 mvs, read-only
        assert back.dtype == pair_dtype(16) and back.shape == (3,)
        assert back["origin"].dtype == np.dtype("<u4") and back["mv"].dtype == np.dtype("<f4")
        assert not back.flags.writeable

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.drpd"
        write_dataset(np.empty(0, pair_dtype(16)), path)
        assert path.stat().st_size == 20
        back = read_dataset(path)
        assert back.shape == (0,) and back.dtype == pair_dtype(16)

    def test_count_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.drpd"
        write_dataset(self.make_pairs(), path)
        data = bytearray(path.read_bytes())
        data[12:20] = (99).to_bytes(8, "little")  # corrupt the pair count
        (tmp_path / "bad.drpd").write_bytes(bytes(data))
        with pytest.raises(FormatError, match="count"):
            read_dataset(tmp_path / "bad.drpd")

    def test_huge_block_size_header(self, tmp_path):
        # numpy holds no record of 2**31 bytes or more: a block size above
        # MAX_BLOCK_SIZE is refused before any record layout is built, and
        # before the length check, even in a file of no pairs
        path = tmp_path / "huge.drpd"
        for block_size in (MAX_BLOCK_SIZE + 1, 46341, 65540):
            for count in (0, 1):
                path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, block_size, count))
                with pytest.raises(FormatError, match=f"block size is {block_size}; "):
                    read_dataset(path)
        path.write_bytes(b"DRPD" + struct.pack("<IIQ", 1, MAX_BLOCK_SIZE, 1) + bytes(16))
        with pytest.raises(FormatError, match=r"count field \(1 pairs of 2147352594 bytes\)"):
            read_dataset(path)

    def test_max_block_size_is_the_largest_record_numpy_holds(self):
        assert MAX_BLOCK_SIZE == 32767
        assert pair_dtype(MAX_BLOCK_SIZE).itemsize == 16 + 2 * MAX_BLOCK_SIZE**2 <= 2**31 - 1
        assert 16 + 2 * (MAX_BLOCK_SIZE + 1) ** 2 > 2**31 - 1

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.drpd").write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_dataset(tmp_path / "bad.drpd")

    def test_truncated_header_rejected(self, tmp_path):
        (tmp_path / "bad.drpd").write_bytes(b"DRPD\x01\x00\x00\x00")
        with pytest.raises(FormatError):
            read_dataset(tmp_path / "bad.drpd")

    def test_mixed_block_sizes_rejected(self, tmp_path):
        # one array cannot hold two block sizes; a list of them is no pair array
        pairs = [*self.make_pairs(2, bs=16), *self.make_pairs(1, bs=32)]
        with pytest.raises(ShapeMismatchError, match=r"pair_dtype\(block size\), got \(3,\) object"):
            write_dataset(pairs, tmp_path / "d.drpd")
        assert not (tmp_path / "d.drpd").exists()

    @pytest.mark.parametrize("block", [("<i8", (16, 16)), ("<f8", (16, 16)), ("u1", (1, 16, 16))])
    def test_block_that_is_no_8bit_plane_rejected(self, tmp_path, block):
        # writing the bytes of an int64 or float block would make garbage blocks
        for name in ("x", "y"):
            pairs = np.zeros(2, with_field(name, *block))
            with pytest.raises(ShapeMismatchError, match="pair_dtype"):
                write_dataset(pairs, tmp_path / "d.drpd")
        assert not (tmp_path / "d.drpd").exists()

    @pytest.mark.parametrize("origin", map(np.dtype, ["<i4", "<i8", "<f8", ">u4"]))
    def test_origin_that_is_no_uint32_rejected(self, tmp_path, origin):
        # an int32 origin holds -1, and a big-endian one other bytes
        with pytest.raises(ShapeMismatchError, match="pair_dtype"):
            write_dataset(np.zeros(2, with_field("origin", origin, 2)), tmp_path / "d.drpd")
        assert not (tmp_path / "d.drpd").exists()

    @pytest.mark.parametrize("mv", [(0, 1e40), (0, -3.5e38), (0, math.nan), (0, math.inf),
                                    (0, 10**40), (math.nan, 0), (-math.inf, 1)])
    def test_mv_that_is_no_finite_float32_rejected(self, tmp_path, mv):
        # a float32 record turns a value beyond its range into an infinity
        pairs = self.make_pairs(2)
        with np.errstate(over="ignore"):
            pairs["mv"][1] = mv
        with pytest.raises(ConfigError, match=r"pair 1 has a non-finite mv"):
            write_dataset(pairs, tmp_path / "d.drpd")
        assert not (tmp_path / "d.drpd").exists()
        with pytest.raises(ShapeMismatchError, match="pair_dtype"):
            write_dataset(np.zeros(2, with_field("mv", "<f8", 2)), tmp_path / "d.drpd")

    def test_extreme_origin_and_mv_round_trip(self, tmp_path):
        f32_max = float(np.finfo(np.float32).max)
        pairs = self.make_pairs(1)
        pairs["origin"] = (2**32 - 1, 0)
        pairs["mv"] = (f32_max, -f32_max)
        write_dataset(pairs, tmp_path / "d.drpd")
        (back,) = read_dataset(tmp_path / "d.drpd")
        assert back["origin"].tolist() == [2**32 - 1, 0] and back["mv"].tolist() == [f32_max, -f32_max]

    @pytest.mark.parametrize("block_size", [0, -1, 16.0, None, True, MAX_BLOCK_SIZE + 1])
    def test_block_size_is_a_positive_integer(self, block_size):
        with pytest.raises(ConfigError, match="block_size"):
            pair_dtype(block_size)

    def test_block_size_other_than_the_pairs_rejected(self, tmp_path):
        # the header's block size is the dtype's: X and Y must share it
        with pytest.raises(ShapeMismatchError, match="pair_dtype"):
            write_dataset(np.zeros(2, with_field("y", "u1", (8, 8))), tmp_path / "d.drpd")
        write_dataset(self.make_pairs(2, bs=8), tmp_path / "d.drpd")
        assert read_dataset(tmp_path / "d.drpd").dtype == pair_dtype(8)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExtractionConfig(block_size=4)
    with pytest.raises(ConfigError, match="block_size"):
        ExtractionConfig(block_size=MAX_BLOCK_SIZE + 1)
    assert ExtractionConfig(block_size=MAX_BLOCK_SIZE).block_size == 32767
    with pytest.raises(ConfigError):
        ExtractionConfig(stride=0)
