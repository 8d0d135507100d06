import re
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepref import codec
from deepref.codec import (
    MVRecord,
    SearchConfig,
    _se_table,
    encode_frame_proxy,
    encode_sequence,
    generated,
    intra_frame_proxy,
    motion_search,
    previous,
    rd_sweep,
    signed_exp_golomb_bits,
)
from deepref.errors import ConfigError, ShapeMismatchError
from deepref.fileio import write_plane_pgm
from deepref.flow import ExtractionConfig, extract_pairs, lucas_kanade_mv
from deepref.generator import ModelConfig, build_network, dump_feature_maps, generate_reference
from deepref.interp import MotionVectorQ, interpolate_block, subpel_planes
from deepref.metrics import psnr
from deepref.synthetic import SinusoidTexture, acceptance_texture, pan_zoom_sequence
from deepref.video_io import write_y4m

TINY = ModelConfig(head_channels=4, branch_reduce_channels=3, branch_out_channels=3,
                   trunk_channels=4, seed=3)


def textured(seed, h=64, w=64):
    return SinusoidTexture.random(seed, min_freq=0.05, max_freq=0.2).render(w, h)


def shifted_cur(ref, sx, sy):
    """cur(x) = ref(x + s) via roll; valid away from the wrap border."""
    return np.roll(np.roll(ref, -sy, axis=0), -sx, axis=1)


class TestExpGolomb:
    @pytest.mark.parametrize("v,bits", [(0, 1), (1, 3), (-1, 3), (2, 5), (-2, 5),
                                        (3, 5), (-3, 5), (4, 7), (12, 9)])
    def test_known_code_lengths(self, v, bits):
        assert signed_exp_golomb_bits(v) == bits

    def test_monotone_in_magnitude(self):
        lengths = [signed_exp_golomb_bits(v) for v in range(0, 200)]
        assert all(a <= b for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("lim", [255, 35, 4 * 1920 + 3])
    def test_table_matches_scalar(self, lim):
        # the residual's reach, a range-8 search's and a 1080p frame's clamped range
        table = _se_table(lim)
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == [signed_exp_golomb_bits(v) for v in range(-lim, lim + 1)]


class TestMotionSearch:
    def test_static_block_finds_zero_mv(self):
        ref = textured(0)
        cfg = SearchConfig(search_range=8, lambda_mv=4.0, block_size=16)
        mv, cost = motion_search(ref, ref, (24, 24), cfg)
        assert mv == MotionVectorQ(0, 0)
        assert cost == pytest.approx(cfg.lambda_mv * 2)  # SAD 0 + two 1-bit codes

    def test_integer_shift_recovered_with_zero_sad(self):
        ref = textured(1)
        cur = shifted_cur(ref, 3, -2)
        cfg = SearchConfig(search_range=8, lambda_mv=4.0, block_size=16)
        mv, cost = motion_search(ref, cur, (24, 24), cfg)
        assert mv == MotionVectorQ(12, -8)
        assert cost == pytest.approx(cfg.lambda_mv * sum(map(signed_exp_golomb_bits, mv)))

    def test_tie_break_prefers_smaller_l1_then_raster(self):
        # period-4 vertical stripes: shifting by 2 makes -2 and +2 both SAD 0
        ref = np.tile(np.array([0, 80, 160, 240], dtype=np.uint8), (32, 8))
        cur = shifted_cur(ref, 2, 0)
        cfg = SearchConfig(search_range=6, lambda_mv=0.0, block_size=8)
        mv, cost = motion_search(ref, cur, (12, 12), cfg)
        assert cost == 0.0
        assert abs(mv.x4) == 8 and mv.y4 == 0
        assert mv.x4 == -8  # raster order visits dx=-2 before dx=+2

    def test_refinement_tie_keeps_first_candidate_in_raster_order(self):
        # alternating columns: both half-pel x phases give exactly 100 everywhere,
        # so (-2, 0) and (+2, 0) tie on cost and |mv|_1; the earlier one stays
        ref = np.tile(np.array([0, 200], dtype=np.uint8), (24, 12))
        cur = np.full((24, 24), 100, dtype=np.uint8)
        cfg = SearchConfig(search_range=2, lambda_mv=4.0, block_size=8)
        mv, cost = motion_search(ref, cur, (8, 8), cfg)
        assert mv == MotionVectorQ(-2, 0)
        assert cost == cfg.lambda_mv * sum(map(signed_exp_golomb_bits, mv))

    def test_quarter_pel_refinement_improves_on_integer(self):
        tex = SinusoidTexture.random(3, min_freq=0.05, max_freq=0.18)
        ref = tex.render(64, 64)
        cur = tex.render(64, 64, offset=(0.5, 0.0))  # true half-pel shift
        cfg = SearchConfig(search_range=4, lambda_mv=0.0, block_size=16)
        mv, cost = motion_search(ref, cur, (24, 24), cfg)
        assert (mv.x4, mv.y4) == (2, 0)

    def test_optimal_over_candidate_set(self, rng):
        # independent staged re-enumeration must agree with the search result
        ref = rng.integers(0, 256, (40, 40)).astype(np.uint8)
        cur = rng.integers(0, 256, (40, 40)).astype(np.uint8)
        cfg = SearchConfig(search_range=3, lambda_mv=4.0, block_size=8)
        origin = (16, 12)
        got_mv, got_cost = motion_search(ref, cur, origin, cfg)

        blk = cur[12:20, 16:24].astype(np.int64)

        def cost_of(mv):
            pred = interpolate_block(ref, origin, (8, 8), mv).astype(np.int64)
            sad = int(np.abs(pred - blk).sum())
            return sad + cfg.lambda_mv * sum(map(signed_exp_golomb_bits, mv))

        def better(cand, best):
            ca, la = cand
            cb, lb = best
            return (ca, la) < (cb, lb)

        best = None
        for dy in range(-3, 4):
            for dx in range(-3, 4):
                mv = MotionVectorQ(4 * dx, 4 * dy)
                key = (cost_of(mv), abs(mv.x4) + abs(mv.y4))
                if best is None or better(key, best[0]):
                    best = (key, mv)
        for step in (2, 1):
            cx, cy = best[1]
            for dy in (-step, 0, step):
                for dx in (-step, 0, step):
                    if dx == 0 and dy == 0:
                        continue
                    mv = MotionVectorQ(cx + dx, cy + dy)
                    key = (cost_of(mv), abs(mv.x4) + abs(mv.y4))
                    if better(key, best[0]):
                        best = (key, mv)
        assert got_mv == best[1]
        assert got_cost == pytest.approx(best[0][0])

    def test_block_outside_frame_rejected(self):
        ref = textured(4)
        cfg = SearchConfig(search_range=4, block_size=16)
        with pytest.raises(ShapeMismatchError):
            motion_search(ref, ref, (56, 0), cfg)

    def test_range_beyond_the_frame_is_clamped(self):
        # unclamped, the phase planes of this range would take 37 GiB
        f = textured(4, 32, 32)
        want = motion_search(f, f, (0, 0), SearchConfig(search_range=32, block_size=16))
        tracemalloc.start()
        try:
            got = motion_search(f, f, (0, 0), SearchConfig(search_range=100000, block_size=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5_000_000


class TestEncodeFrameProxy:
    def test_identical_frame_costs_only_mv_and_zero_codes(self):
        ref = textured(5)
        cfg = SearchConfig(search_range=4, lambda_mv=4.0, block_size=32)
        bits, recon, field = encode_frame_proxy([ref], ref, cfg, q=16)
        np.testing.assert_array_equal(recon, ref)
        n_blocks = 4  # 64x64 in 32x32 tiles
        assert bits == n_blocks * 2 + ref.size  # se(0)=1 per mv comp and per sample
        assert all(rec.mv_x_q4 == 0 and rec.mv_y_q4 == 0 and rec.sad == 0 for rec in field)

    def test_bits_monotone_in_q(self):
        ref = textured(6)
        cur = textured(7)
        cfg = SearchConfig(search_range=4, lambda_mv=4.0, block_size=32)
        bits = [encode_frame_proxy([ref], cur, cfg, q)[0] for q in (4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_reconstruction_error_bounded_by_half_q(self):
        # mid-range values keep prediction + residual inside [0,255]
        tex = SinusoidTexture.random(8, contrast=30)
        ref = tex.render(64, 64)
        cur = tex.render(64, 64, offset=(1.3, 0.8))
        for q in (4, 16, 64):
            _, recon, _ = encode_frame_proxy([ref], cur, SearchConfig(search_range=4), q)
            assert np.max(np.abs(recon.astype(int) - cur.astype(int))) <= q / 2

    def test_exact_reference_always_wins_index_zero(self):
        cur = textured(9)
        other = textured(10)
        cfg = SearchConfig(search_range=4, block_size=16)
        _, recon, field = encode_frame_proxy([cur, other], cur, cfg, q=8)
        assert all(rec.ref_idx == 0 for rec in field)
        np.testing.assert_array_equal(recon, cur)

    def test_ref_index_bits_charged_for_multi_reference(self):
        ref = textured(11)
        cfg = SearchConfig(search_range=2, block_size=32)
        bits_one, _, _ = encode_frame_proxy([ref], ref, cfg, q=8)
        bits_two, _, _ = encode_frame_proxy([ref, ref], ref, cfg, q=8)
        assert bits_two == bits_one + 4  # 1 extra bit per block, 4 blocks

    def test_bad_q_rejected(self):
        ref = textured(12)
        with pytest.raises(ConfigError):
            encode_frame_proxy([ref], ref, SearchConfig(), q=0)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            encode_frame_proxy([textured(0, 32, 32)], textured(1), SearchConfig(), q=8)

    def test_empty_reference_list_rejected(self):
        with pytest.raises(ShapeMismatchError):
            encode_frame_proxy([], textured(0), SearchConfig(), q=8)

    def test_peak_memory_bounded_by_the_band(self):
        # a whole-frame band would make a 61 MB |diff| per row of offsets here
        tex = SinusoidTexture.random(5)
        ref, cur = tex.render(1280, 720), tex.render(1280, 720, offset=(1.5, 0.5))
        cfg = SearchConfig(search_range=16, lambda_mv=4.0, block_size=32)
        planes = 16 * (736 + 34) * (1280 + 34)  # the frame in whole blocks, padded by 17
        tracemalloc.start()
        try:
            encode_frame_proxy([ref], cur, cfg, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # temporaries of a 1 MiB band (`SAD_BYTES`), plus slack for the int32
        # filter passes of `subpel_planes` (about 20 MB), which fill the
        # planes in place; the residual pricing runs after the planes are
        # freed (36.2 MB measured)
        assert peak < planes + 8 * (1 << 20) + 24_000_000

    @pytest.mark.parametrize("w, h", [(32, 32), (40, 24)])
    def test_block_beyond_the_frame_is_clamped(self, w, h):
        # a block of the larger frame side is one block over the whole frame,
        # as a larger one is; unclamped, 4x the side pads every phase plane 16x
        tex = SinusoidTexture.random(6)
        ref, cur = tex.render(w, h), tex.render(w, h, offset=(0.75, 0.5))
        runs = []
        for bs in (max(w, h), 4 * max(w, h)):
            tracemalloc.start()
            try:
                bits, recon, field = encode_frame_proxy(
                    [ref], cur, SearchConfig(search_range=8, block_size=bs), 8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append(((bits, recon.tobytes(), field), peak))
        assert len(runs[0][0][2]) == 1 and runs[1][0] == runs[0][0]
        assert runs[1][1] <= 1.05 * runs[0][1], [peak for _, peak in runs]

    def test_partial_edge_blocks_handled(self):
        tex = SinusoidTexture.random(13)
        ref = tex.render(50, 42)  # not multiples of 16
        cur = tex.render(50, 42, offset=(0.5, 0.25))
        cfg = SearchConfig(search_range=3, block_size=16)
        bits, recon, field = encode_frame_proxy([ref], cur, cfg, q=8)
        assert recon.shape == cur.shape
        assert len(field) == 3 * 4  # ceil(42/16) rows x ceil(50/16) cols


class TestIntraFrameProxy:
    @pytest.mark.parametrize("q", [1, 2, 3, 7, 8, 16, 64, 255, 256, 509, 510, 511, 512, 1000,
                                   2**31 - 1])
    def test_matches_float_formula(self, q, rng):
        # the oracle: rint(frame / q) in float64, priced by `signed_exp_golomb_bits`,
        # then clip(qidx * q); at q of 510 and up the int16 coder's index is 0
        # and its product takes min(q, 511)
        frames = [rng.integers(0, 256, (h, w), dtype=np.uint8)
                  for h, w in ((1, 1), (7, 13), (64, 64))]
        frames += [np.full((9, 5), 255, dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8)]
        for frame in frames:
            qidx = np.rint(frame.astype(np.float64) / q).astype(np.int64)
            bits, recon = intra_frame_proxy(frame, q)
            assert bits == float(sum(map(signed_exp_golomb_bits, qidx.ravel().tolist())))
            np.testing.assert_array_equal(recon, np.clip(qidx * q, 0, 255).astype(np.uint8))
            assert recon.dtype == np.uint8


def _hot(frame):
    hot = frame.astype(np.int64)
    hot[5, 7] = 300
    return hot


# inputs that are no 8-bit plane: each was priced, cast, stored wrapped or
# failed deep inside some entry point, or was accepted as an empty picture
MALFORMED_PLANES = {
    "int64_holding_300": _hot,
    "float_1e6": lambda frame: np.full(frame.shape, 1e6),
    "float_nan": lambda frame: np.full(frame.shape, np.nan),
    "stack_of_two": lambda frame: np.stack([frame, frame]),
    "empty_0x8": lambda frame: np.zeros((0, 8), dtype=np.uint8),
}

_CFG8 = SearchConfig(search_range=4, block_size=8)
_EXTRACT = ExtractionConfig(block_size=8)

# every function whose arithmetic or file format assumes 8-bit samples, called
# with a good 32x32 plane `ok` and the plane under test `bad`
PLANE_READERS = {
    "encode_frame_proxy_frame": lambda ok, bad, tmp: encode_frame_proxy([ok], bad, _CFG8, 8),
    "encode_frame_proxy_reference": lambda ok, bad, tmp: encode_frame_proxy([bad], ok, _CFG8, 8),
    "intra_frame_proxy": lambda ok, bad, tmp: intra_frame_proxy(bad, 8),
    "motion_search_frame": lambda ok, bad, tmp: motion_search(ok, bad, (8, 8), _CFG8),
    "motion_search_reference": lambda ok, bad, tmp: motion_search(bad, ok, (8, 8), _CFG8),
    "generate_reference": lambda ok, bad, tmp: generate_reference(build_network(TINY), bad),
    "dump_feature_maps": lambda ok, bad, tmp: dump_feature_maps(build_network(TINY), bad,
                                                                "head1"),
    "subpel_planes": lambda ok, bad, tmp: subpel_planes(bad, 2),
    "interpolate_block": lambda ok, bad, tmp: interpolate_block(bad, (0, 0), 4,
                                                                MotionVectorQ(0, 0)),
    "extract_pairs_frame": lambda ok, bad, tmp: extract_pairs(ok, bad, _EXTRACT),
    "extract_pairs_reference": lambda ok, bad, tmp: extract_pairs(bad, ok, _EXTRACT),
    "write_y4m": lambda ok, bad, tmp: write_y4m([bad], tmp / "out.y4m"),
    "write_plane_pgm": lambda ok, bad, tmp: write_plane_pgm(bad, tmp / "out.pgm"),
}


@pytest.mark.parametrize("make_bad", MALFORMED_PLANES.values(), ids=MALFORMED_PLANES.keys())
@pytest.mark.parametrize("call", PLANE_READERS.values(), ids=PLANE_READERS.keys())
def test_malformed_plane_refused(call, make_bad, tmp_path):
    ok = textured(3, 32, 32)
    bad = make_bad(ok)
    with pytest.raises(ShapeMismatchError, match=re.escape(f"got {bad.shape} {bad.dtype}")):
        call(ok, bad, tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing written either


# every function that reads one block at an origin, called with a 32x32 plane
BLOCK_READERS = {
    "interpolate_block": lambda plane, origin: interpolate_block(plane, origin, 8,
                                                                 MotionVectorQ(1, 2)),
    "lucas_kanade_mv": lambda plane, origin: lucas_kanade_mv(plane, np.roll(plane, 1, axis=1),
                                                             origin, 8),
    "motion_search": lambda plane, origin: motion_search(plane, np.roll(plane, 1, axis=1),
                                                         origin, _CFG8),
}


@pytest.mark.parametrize("origin, coordinate", [((8.5, 8), "x"), ((8, 8.5), "y"), ((True, 0), "x")],
                         ids=["x 8.5", "y 8.5", "x True"])
@pytest.mark.parametrize("call", BLOCK_READERS.values(), ids=BLOCK_READERS.keys())
def test_origin_that_is_no_integer_refused(call, origin, coordinate):
    value = origin["xy".index(coordinate)]
    with pytest.raises(ConfigError, match=re.escape(
            f"block origin {coordinate} must be an integer, got {value!r}")):
        call(textured(3, 32, 32), origin)


@pytest.mark.parametrize("call", BLOCK_READERS.values(), ids=BLOCK_READERS.keys())
def test_numpy_integer_origin_reads_the_block_of_the_int(call):
    plane = textured(3, 32, 32)
    want = call(plane, (8, 4))
    for origin in ((np.int64(8), np.int32(4)), (np.uint8(8), np.int8(4))):
        np.testing.assert_equal(call(plane, origin), want)
    # 250 + 8 wraps to 2 in uint8 arithmetic: the bound is checked on the int
    with pytest.raises(ShapeMismatchError, match="outside"):
        call(plane, (np.uint8(250), np.uint8(0)))


def naive_encode_frame(refs, cur, cfg, q):
    """The proxy as a plain per-block loop on interpolate_block: every integer
    and fractional candidate interpolated on its own, ties kept by the
    incumbent in raster order, then the winner interpolated again."""
    h_img, w_img = cur.shape
    bs, r = cfg.block_size, cfg.search_range
    recon = np.empty_like(cur)
    field, bits = [], 0
    for by in range(0, h_img, bs):
        for bx in range(0, w_img, bs):
            w, h = min(bs, w_img - bx), min(bs, h_img - by)
            blk = cur[by : by + h, bx : bx + w].astype(np.int64)
            best = None
            for ri, ref in enumerate(refs):
                def cost_of(mv):
                    pred = interpolate_block(ref, (bx, by), (w, h), mv).astype(np.int64)
                    rate = sum(map(signed_exp_golomb_bits, mv))
                    return int(np.abs(pred - blk).sum()) + cfg.lambda_mv * rate

                key = None
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        mv = MotionVectorQ(4 * dx, 4 * dy)
                        cand = (cost_of(mv), abs(mv.x4) + abs(mv.y4), mv)
                        if key is None or cand[:2] < key[:2]:
                            key = cand
                for step in (2, 1):
                    cx, cy = key[2]
                    for dy in (-step, 0, step):
                        for dx in (-step, 0, step):
                            if dx or dy:
                                mv = MotionVectorQ(cx + dx, cy + dy)
                                cand = (cost_of(mv), abs(mv.x4) + abs(mv.y4), mv)
                                if cand[:2] < key[:2]:
                                    key = cand
                if best is None or key[0] < best[0]:
                    best = (key[0], ri, key[2])
            _, ri, mv = best
            pred = interpolate_block(refs[ri], (bx, by), (w, h), mv).astype(np.int64)
            qidx = np.rint((blk - pred) / q).astype(np.int64)
            recon[by : by + h, bx : bx + w] = np.clip(pred + qidx * q, 0, 255)
            bits += sum(map(signed_exp_golomb_bits, mv)) + (len(refs) - 1).bit_length()
            bits += sum(signed_exp_golomb_bits(int(v)) for v in qidx.ravel())
            field.append(MVRecord(bx, by, ri, mv.x4, mv.y4, int(np.abs(pred - blk).sum())))
    return float(bits), recon, field


class TestEncodeFrameProxyGolden:
    @pytest.mark.parametrize("q", [1, 8, 64])
    @pytest.mark.parametrize("n_refs", [1, 2])
    def test_matches_naive_per_block_loop(self, q, n_refs):
        tex = SinusoidTexture.random(21, min_freq=0.05, max_freq=0.3)
        cur = tex.render(37, 29, offset=(1.6, -0.9))  # partial blocks on both edges
        refs = [tex.render(37, 29), tex.render(37, 29, offset=(1.2, -1.1))][:n_refs]
        cfg = SearchConfig(search_range=3, lambda_mv=2.5, block_size=8)
        got_bits, got_recon, got_field = encode_frame_proxy(refs, cur, cfg, q)
        want_bits, want_recon, want_field = naive_encode_frame(refs, cur, cfg, q)
        assert got_bits == want_bits
        np.testing.assert_array_equal(got_recon, want_recon)
        assert got_field == want_field
        if n_refs == 2:
            assert {rec.ref_idx for rec in got_field} == {0, 1}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_batched_search_matches_naive_per_block_loop(self, data):
        # sizes the block size may not divide, ranges past the block size,
        # lambda 0 and few sample levels for many ties, 1-3 references of
        # which two may be the same picture, and the whole frame in one band
        # or one block row per band, so that band borders sit above a
        # partial last block row
        sad_bytes = data.draw(st.sampled_from([codec.SAD_BYTES, 1]), label="SAD_BYTES")
        bs = data.draw(st.integers(2, 8), label="block_size")
        h, w = data.draw(st.integers(1, 3 * bs)), data.draw(st.integers(1, 3 * bs))
        cfg = SearchConfig(search_range=data.draw(st.integers(1, bs + 1)),
                           lambda_mv=data.draw(st.sampled_from([0.0, 2.5, 4.0])),
                           block_size=bs)
        levels = data.draw(st.sampled_from([2, 3, 256]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def picture():
            return (rng.integers(0, levels, (h, w)) * (255 // (levels - 1))).astype(np.uint8)

        cur = picture()
        pool = [picture(), np.roll(cur, (1, -1), axis=(0, 1)), picture()]
        refs = [pool[i] for i in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))]
        q = data.draw(st.sampled_from([1, 8, 64]))
        with mock.patch.object(codec, "SAD_BYTES", sad_bytes):
            got_bits, got_recon, got_field = encode_frame_proxy(refs, cur, cfg, q)
        want_bits, want_recon, want_field = naive_encode_frame(refs, cur, cfg, q)
        assert got_bits == want_bits
        np.testing.assert_array_equal(got_recon, want_recon)
        assert got_field == want_field
        for rec in got_field:  # a later copy of a reference never wins
            assert all(refs[i] is not refs[rec.ref_idx] for i in range(rec.ref_idx))

    @pytest.mark.parametrize("bs, w, h", [(129, 129, 130), (136, 140, 137)])
    def test_blocks_above_128_sum_columns_in_int32(self, bs, w, h):
        # 255 * bs passes int16's 32767, so the integer search sums its |diff|
        # columns in int32; 0/255 pictures against their negatives reach 255
        # in every sample at mv (0, 0)
        cur = (np.random.default_rng(bs).integers(0, 2, (h, w)) * 255).astype(np.uint8)
        cfg = SearchConfig(search_range=2, lambda_mv=4.0, block_size=bs)
        got_bits, got_recon, got_field = encode_frame_proxy([255 - cur], cur, cfg, 8)
        want_bits, want_recon, want_field = naive_encode_frame([255 - cur], cur, cfg, 8)
        assert got_bits == want_bits
        np.testing.assert_array_equal(got_recon, want_recon)
        assert got_field == want_field

    def test_identical_references_first_wins(self):
        tex = SinusoidTexture.random(22)
        ref = tex.render(40, 24)
        cur = tex.render(40, 24, offset=(0.7, -0.4))
        cfg = SearchConfig(search_range=3, lambda_mv=0.0, block_size=8)
        got = encode_frame_proxy([ref, ref.copy(), ref], cur, cfg, 8)
        assert {rec.ref_idx for rec in got[2]} == {0}
        want = naive_encode_frame([ref, ref.copy(), ref], cur, cfg, 8)
        assert got[0] == want[0] and got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])

    def test_quarter_pel_tie_keeps_half_pel_incumbent(self):
        # the half-pel winner (0, -2) and its first quarter-pel neighbour
        # (-1, -1) tie on cost and on |mv|_1, so the incumbent stays
        def picture(rows):
            return (np.array([[int(c) for c in row] for row in rows]) * 40).astype(np.uint8)

        ref = picture(["211210000110", "021001111201", "020110012210", "020101110112",
                       "211201121022", "010101201111", "011101100222", "210221101001",
                       "210001221202", "200012110120", "112002201210", "121212022110"])
        cur = picture(["120110100220", "101220220110", "111121111200", "001222101222",
                       "222112112001", "210211211222", "010201210011", "020020100121",
                       "222202011200", "202001111000", "202022011220", "212022200221"])
        cfg = SearchConfig(search_range=1, lambda_mv=4.0, block_size=4)
        blk = cur[4:8, 4:8].astype(np.int64)

        def key(mv):
            pred = interpolate_block(ref, (4, 4), 4, mv).astype(np.int64)
            rate = sum(map(signed_exp_golomb_bits, mv))
            cost = int(np.abs(pred - blk).sum()) + cfg.lambda_mv * rate
            return cost, abs(mv.x4) + abs(mv.y4)

        assert key(MotionVectorQ(0, -2)) == key(MotionVectorQ(-1, -1)) == (319.0, 2)
        assert motion_search(ref, cur, (4, 4), cfg) == (MotionVectorQ(0, -2), 319.0)
        got = encode_frame_proxy([ref], cur, cfg, 8)
        assert (got[2][4].mv_x_q4, got[2][4].mv_y_q4) == (0, -2)  # the block at (4, 4)
        want = naive_encode_frame([ref], cur, cfg, 8)
        assert got[0] == want[0] and got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])

    def test_blocky_frame_with_ties_matches_naive(self, rng):
        # flat areas and lambda 0 make many candidates tie on cost
        ref = np.repeat(rng.integers(0, 256, (5, 6)), 4, axis=0).repeat(4, axis=1)
        ref = ref.astype(np.uint8)[:18, :22]
        cur = np.roll(ref, (1, -2), axis=(0, 1))
        cfg = SearchConfig(search_range=2, lambda_mv=0.0, block_size=6)
        got = encode_frame_proxy([ref], cur, cfg, 4)
        want = naive_encode_frame([ref], cur, cfg, 4)
        assert got[0] == want[0] and got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("lambda_mv", [0.0, 2.5])
    def test_search_range_beyond_frame_matches_naive(self, rng, lambda_mv):
        # cur is the right edge column of ref, so the left blocks match only
        # 5 px away, which a search clamped below the 6 px frame width misses
        ref = rng.integers(0, 100, (5, 6)).astype(np.uint8)
        ref[:, -1] = 200
        cur = np.full_like(ref, 200)
        cfg = SearchConfig(search_range=9, lambda_mv=lambda_mv, block_size=3)
        got = encode_frame_proxy([ref], cur, cfg, 8)
        want = naive_encode_frame([ref], cur, cfg, 8)
        assert got[0] == want[0] and got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2][0].mv_x_q4 == 20


class TestDecoderRebuild:
    """What a decoder rebuilds from the symbols the proxy priced: each block's
    prediction from its MVRecord by `interpolate_block` on the reference the
    decoder holds, plus the re-quantized residual, must be the encoder's
    reconstruction, and the symbols must add up to the priced bits."""

    @pytest.mark.parametrize("cfg", [SearchConfig(), SearchConfig(search_range=8, block_size=16)],
                             ids=["default", "block16-range8"])
    @pytest.mark.parametrize("with_net", [False, True], ids=["no-net", "tiny-net"])
    def test_reconstruction_and_bits_rebuilt_from_mv_field(self, with_net, cfg):
        frames = pan_zoom_sequence(64, 64, 6, velocity=(0.875, 0.625), zoom_rate=0.0005,
                                   texture=acceptance_texture(11))
        rule = partial(generated, build_network(TINY)) if with_net else previous
        bs, (fh, fw) = cfg.block_size, frames[0].shape
        for q in (8, 16, 32, 64):
            run = encode_sequence(frames, rule, cfg, q)
            for t in range(1, len(frames)):
                refs = rule(run.recons[:t])
                recon = np.zeros_like(frames[t])
                covered = np.zeros(frames[t].shape, dtype=int)
                bits = 0
                for rec in run.mv_fields[t]:
                    x0, y0 = rec.block_x, rec.block_y
                    w, h = min(bs, fw - x0), min(bs, fh - y0)
                    mv = MotionVectorQ(rec.mv_x_q4, rec.mv_y_q4)
                    pred = interpolate_block(refs[rec.ref_idx], (x0, y0), (w, h), mv)
                    pred = pred.astype(np.int64)
                    blk = frames[t][y0 : y0 + h, x0 : x0 + w].astype(np.int64)
                    qidx = np.rint((blk - pred) / q).astype(np.int64)
                    recon[y0 : y0 + h, x0 : x0 + w] = np.clip(pred + qidx * q, 0, 255)
                    covered[y0 : y0 + h, x0 : x0 + w] += 1
                    bits += sum(map(signed_exp_golomb_bits, mv)) + (len(refs) - 1).bit_length()
                    bits += sum(signed_exp_golomb_bits(v) for v in qidx.ravel().tolist())
                    assert rec.sad == int(np.abs(pred - blk).sum())
                assert (covered == 1).all()
                np.testing.assert_array_equal(recon, run.recons[t])
                assert bits == run.bits[t]


class TestEncodeSequence:
    @pytest.mark.parametrize("with_net", [False, True])
    @pytest.mark.parametrize("q", [8, 32])
    def test_matches_explicit_closed_loop(self, with_net, q):
        rule = partial(generated, build_network(TINY)) if with_net else previous
        tex = SinusoidTexture.random(21)
        frames = [tex.render(40, 36, offset=(0.6 * t, 0.3 * t)) for t in range(4)]
        cfg = SearchConfig(search_range=4, block_size=16)

        bits0, prev = intra_frame_proxy(frames[0], q)
        want = ([bits0], [psnr(prev, frames[0])], [prev], [[]])
        for cur in frames[1:]:
            bits, prev, field = encode_frame_proxy(rule(want[2]), cur, cfg, q)
            for column, value in zip(want, (bits, psnr(prev, cur), prev, field)):
                column.append(value)

        got = encode_sequence(frames, rule, cfg, q)
        assert got.bits == want[0]
        assert got.psnr == want[1]
        assert len(got.recons) == len(frames)
        for got_recon, want_recon in zip(got.recons, want[2]):
            np.testing.assert_array_equal(got_recon, want_recon)
        assert got.mv_fields == want[3]

    def test_too_few_frames_rejected(self):
        with pytest.raises(ShapeMismatchError, match="at least 2 frames"):
            encode_sequence([textured(0)], previous, SearchConfig(), 8)


class TestReferenceRule:
    """`encode_sequence` asks its reference rule for each inter frame's list,
    given the reconstructions so far, newest last."""

    @staticmethod
    def panned(n=5):
        tex = SinusoidTexture.random(23)
        return [tex.render(40, 36, offset=(0.6 * t, 0.3 * t)) for t in range(n)]

    def test_called_once_per_inter_frame_with_the_reconstructions_so_far(self):
        calls = []

        def rule(history):
            calls.append(history)
            return previous(history)

        frames = self.panned()
        run = encode_sequence(frames, rule, SearchConfig(search_range=4, block_size=16), 16)
        assert len(calls) == len(frames) - 1
        for t, history in enumerate(calls, start=1):  # as each call saw it, not as the run ended
            assert len(history) == t
            assert all(got is want for got, want in zip(history, run.recons[:t]))

    def test_previous_and_generated_read_the_newest_reconstruction(self):
        history = (textured(1, 32, 32), textured(2, 32, 32))
        assert len(previous(history)) == 1 and previous(history)[0] is history[-1]
        net = build_network(TINY)
        (picture,) = generated(net, history)
        np.testing.assert_array_equal(picture, generate_reference(net, history[-1]))

    @pytest.mark.parametrize("q", [8, 32])
    def test_a_repeated_reference_costs_one_bit_per_block(self, q):
        frames, cfg = self.panned(), SearchConfig(search_range=4, block_size=16)
        base = encode_sequence(frames, previous, cfg, q)
        twice = encode_sequence(frames, lambda h: [h[-1], h[-1]], cfg, q)
        assert twice.bits[0] == base.bits[0]
        for t in range(1, len(frames)):
            assert twice.mv_fields[t] == base.mv_fields[t]  # the same mvs, every ref_idx 0
            assert twice.bits[t] == base.bits[t] + len(base.mv_fields[t])
            np.testing.assert_array_equal(twice.recons[t], base.recons[t])

    def test_an_empty_list_is_refused(self):
        with pytest.raises(ShapeMismatchError, match="at least one picture"):
            encode_sequence(self.panned(2), lambda h: [], SearchConfig(), 8)


class TestRdSweep:
    def test_one_point_per_q(self):
        tex = SinusoidTexture.random(14)
        frames = [tex.render(48, 48, offset=(0.4 * t, 0.2 * t)) for t in range(4)]
        pts = rd_sweep(frames, previous, SearchConfig(search_range=4, block_size=16),
                       [8, 16, 32, 64])
        assert len(pts) == 4
        bits = [p.bits for p in pts]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_static_sequence_carries_intra_quality_forward(self):
        frame = textured(15)
        frames = [frame] * 4
        cfg = SearchConfig(search_range=4, block_size=32)
        q = 16
        pts = rd_sweep(frames, previous, cfg, [q])
        bits0, recon0 = intra_frame_proxy(frame, q)
        from deepref.metrics import psnr

        expected_psnr = psnr(recon0, frame)
        assert pts[0].psnr == pytest.approx(expected_psnr, abs=1e-9)
        inter_bits = 4 * 2 + frame.size  # mv + zero residual codes per inter frame
        assert pts[0].bits == pytest.approx((bits0 + 3 * inter_bits) / 4)

    def test_identity_network_matches_baseline_exactly(self):
        # a hand-built pass-through net substitutes a bit-identical reference
        cfg_model = ModelConfig(head_channels=2, branch_reduce_channels=2,
                                branch_out_channels=2, trunk_channels=2,
                                k=0.0, seed=0, dtype="float64")
        net = build_network(cfg_model)
        for p in net.layers.values():
            p.weights = np.zeros_like(p.weights)
            p.bias = np.zeros_like(p.bias)
        for name in ("head1", "head2", "tail"):
            conv = net.layers[name]
            center = conv.kernel_size // 2
            conv.weights[0, 0, center, center] = 1.0
        for i in range(3):
            for c in range(2):
                net.layers[f"block{i + 1}.skip"].weights[c, c, 0, 0] = 1.0
        tex = SinusoidTexture.random(16)
        frames = [tex.render(48, 48, offset=(0.3 * t, 0.5 * t)) for t in range(4)]
        search = SearchConfig(search_range=4, block_size=16)
        base = rd_sweep(frames, previous, search, [8, 32])
        with_net = rd_sweep(frames, partial(generated, net), search, [8, 32])
        assert base == with_net

    def test_too_few_frames_rejected(self):
        with pytest.raises(ShapeMismatchError):
            rd_sweep([textured(0)], previous, SearchConfig(), [8])


def test_mv_record_fields():
    rec = MVRecord(0, 16, 1, -4, 8, 123)
    assert rec.block_x == 0 and rec.block_y == 16 and rec.ref_idx == 1
    assert rec.mv_x_q4 == -4 and rec.mv_y_q4 == 8 and rec.sad == 123
