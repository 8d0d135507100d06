"""Quarter-pel block motion search, a simplified P-frame codec proxy and the
closed encoding loop.

The proxy codes each block by full integer-pel search (SAD + lambda * mv
bits) followed by half- then quarter-pel refinement, scalar-quantizes the
spatial residual, and prices every mv component and quantized residual with
its signed exp-Golomb code length, read from one table (`_se_table`).
It is deterministic and dependency-free; its bits are a ranking proxy, not
VVC bits.

Per frame, each reference is interpolated once into its 16 quarter-pel phase
planes (`interp.subpel_planes`), padded by search_range + 1 samples and below
and on the right to whole blocks. Every candidate prediction is then a window
of those planes, with the same samples `interp.interpolate_block` gives for
one block. The search runs on bands of whole block rows, for all their blocks
and all references together: the integer SADs one row of offsets at a time,
then each refinement step gathers the 8 neighbours of every block's incumbent
with one fancy index and keeps, per block, the first least (cost, |mv|_1) in
raster order, as a scan over the candidates would. |diff| samples past the
frame count 0. `motion_search` runs the same search on one block.

A band holds as many block rows as keep the int16 |diff| of one row of
offsets within ``SAD_BYTES`` (1 MiB), and at least one. The benchmark's
128x128 frame (range 8, block 16, one reference: 557 KB) is then one band,
while a 1080p frame with the default `SearchConfig` (4.1 MB per block row)
is searched one block row at a time. With range 8 and block 16 on 2 vCPUs
(OpenBLAS at 1 thread; least/median ms per frame over 9 rounds), 256 KiB,
1 MiB and 4 MiB bands took 7.9/8.5, 7.0/8.2 and 6.3/8.0 ms at 128x128 (one
band from 1 MiB up), 34.0/41.1, 32.0/35.2 and 30.7/38.8 ms at 416x240, and
173/186, 168/172 and 157/179 ms at 832x480: 1 MiB had the best medians.

`encode_sequence` is the one low-delay P loop: frame 0 intra, then each frame
against the previous reconstruction or the generated picture made from it.
`rd_sweep` and the `encode` command both run it; `rd_sweep` runs its
quantizers' chains on every usable CPU, on workers kept for the process
(`parallel`), each of which receives its own copy of the frames and the net.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError, check_block, check_int, check_plane, check_real
from .generator import GeneratorNet, generate_reference
from .interp import MotionVectorQ, subpel_planes
from .metrics import RDPoint, psnr
from .parallel import map_jobs


@dataclass
class SearchConfig:
    search_range: int = 16  # integer-pel radius
    lambda_mv: float = 4.0  # SAD units per mv bit
    block_size: int = 32

    def __post_init__(self):
        check_int("search_range", self.search_range, 1)
        # the integer-field bound keeps lambda * mv bits (< 3e11) far from overflow
        check_real("lambda_mv", self.lambda_mv, 0, 2**31 - 1)
        check_int("block_size", self.block_size, 1)


class MVRecord(NamedTuple):
    block_x: int
    block_y: int
    ref_idx: int
    mv_x_q4: int
    mv_y_q4: int
    sad: int


def signed_exp_golomb_bits(v: int) -> int:
    """Code length of v mapped 0->0, 1->1, -1->2, 2->3, ... then exp-Golomb."""
    v = int(v)
    code = 2 * v - 1 if v > 0 else -2 * v
    return 2 * (code + 1).bit_length() - 1


@lru_cache(maxsize=8)
def _se_table(lim: int) -> np.ndarray:
    """The one code-length table: `signed_exp_golomb_bits` of every integer in
    [-lim, lim], at index v + lim, as 2 * bit_length(|v|) + 1. frexp's exponent
    is that bit length below 2**53; the codec asks for lim = 255 (a quantized
    residual) and 4 * search_range + 3 (the reach of an mv component), with the
    range clamped to the larger frame side."""
    mag = np.abs(np.arange(-lim, lim + 1, dtype=np.float64))
    bits = 2 * np.frexp(mag)[1].astype(np.int64) + 1
    bits.flags.writeable = False
    return bits


# as uint8, so a frame's worth of residual lengths stays small
_RESIDUAL_BITS = _se_table(255).astype(np.uint8)


class _Matches(NamedTuple):
    """The best match of every block of a band, per reference: each field has
    shape (refs, block rows, blocks per row) until a reference is chosen."""

    x4: np.ndarray
    y4: np.ndarray
    cost: np.ndarray
    sad: np.ndarray


def _first_min(cost: np.ndarray, l1: np.ndarray, axis: int) -> np.ndarray:
    """Index along `axis` of the first least (cost, l1) pair: the candidate a
    scan keeps that replaces its incumbent only on a strictly smaller pair."""
    tie = cost == cost.min(axis=axis, keepdims=True)
    return np.argmin(np.where(tie, l1, np.iinfo(np.int64).max), axis=axis)


# largest int16 |diff| of one row of integer offsets, refs x (2r+1) x band rows
# x padded width x 2 bytes, that a band may make (module docstring)
SAD_BYTES = 1 << 20

# (dx, dy) of a motion vector itself, then of its 8 neighbours in raster order
_STEPS = np.array([(0, 0)] + [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy])


def _integer_search(int_planes: np.ndarray, cur: np.ndarray, origin, inside,
                    cfg: SearchConfig) -> _Matches:
    """Full integer-pel search of every block of a band of whole block rows.

    `cur` holds the band of the current frame from `origin` on, as int16,
    padded to whole blocks; its first `inside` (rows, columns) lie in the
    frame, and |diff| samples past them count 0. `int_planes` holds the
    integer phase of every reference, padded by search_range + 1 and below
    and on the right by at least the padding of `cur`, as int16. Per block,
    the best offset has the least cost, then the least |mv|_1, then comes
    first in raster order.
    """
    x0, y0 = origin
    height, width = cur.shape
    bs = cfg.block_size
    refs, rows, cols = len(int_planes), height // bs, width // bs
    radius = cfg.search_range
    n = 2 * radius + 1
    top, left = y0 + 1, x0 + 1  # offset -radius in a plane padded by radius + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        int_planes[:, top : top + height + n - 1, left : left + width + n - 1],
        (height, width), axis=(1, 2))
    col_dtype = np.int16 if 255 * bs <= np.iinfo(np.int16).max else np.int32
    sad = np.empty((refs, n, n, rows, cols), dtype=np.int64)
    for dy in range(n):  # one row of offsets at a time bounds the temporaries
        diff = windows[:, dy] - cur
        np.abs(diff, out=diff)
        diff[..., inside[0] :, :] = 0
        diff[..., inside[1] :] = 0
        # each block's rows, then its columns, over reshapes; einsum sums the
        # short last axis twice as fast as sum, and reduceat was slower still
        col_sads = diff.reshape(refs, n, rows, bs, width).sum(axis=3, dtype=col_dtype)
        sad[:, dy] = np.einsum("rxyck->rxyc", col_sads.reshape(refs, n, rows, cols, bs),
                               dtype=np.int64)

    offsets, lim = np.arange(-radius, radius + 1), 4 * radius + 3
    comp_bits = _se_table(lim)[4 * offsets + lim]
    cost = sad + (cfg.lambda_mv * (comp_bits[:, None] + comp_bits[None, :]))[:, :, None, None]
    sad, cost = sad.reshape(refs, n * n, -1), cost.reshape(refs, n * n, -1)
    l1 = (np.abs(offsets)[:, None] + np.abs(offsets)[None, :]).reshape(-1, 1)
    first = _first_min(cost, l1, axis=1)  # raster order breaks the last ties
    at = (np.arange(refs)[:, None], first, np.arange(rows * cols))
    dy, dx = np.divmod(first, n)
    return _Matches(*(a.reshape(refs, rows, cols) for a in (
        4 * (dx - radius), 4 * (dy - radius), cost[at], sad[at])))


def _predict(windows: np.ndarray, ref_idx, x4: np.ndarray, y4: np.ndarray, origin,
             cfg: SearchConfig) -> np.ndarray:
    """Predictions of the blocks of a band, shape (..., block rows, blocks per
    row, block_size, block_size).

    `windows` holds every block-sized window of the phase planes of every
    reference, padded by search_range + 1. Block (i, j) of the band at
    `origin` is predicted from reference ref_idx[..., i, j] moved by
    (x4[..., i, j], y4[..., i, j]); the three broadcast together.
    """
    x0, y0 = origin
    bs, margin = cfg.block_size, cfg.search_range + 1
    rows, cols = x4.shape[-2:]
    top = margin + y0 + bs * np.arange(rows)[:, None] + (y4 >> 2)
    left = margin + x0 + bs * np.arange(cols) + (x4 >> 2)
    return windows[ref_idx, y4 & 3, x4 & 3, top, left]


def _refine(windows: np.ndarray, cur: np.ndarray, origin, inside, coarse: _Matches,
            cfg: SearchConfig) -> _Matches:
    """Half- then quarter-pel refinement of the integer matches of a band,
    for every reference at once, on the windows `_predict` takes; `cur` and
    `inside` are as `_integer_search` takes them.

    Per step, each match becomes the first least (cost, |mv|_1) among itself
    and its 8 neighbours in raster order.
    """
    bs = cfg.block_size
    rows, cols = coarse.x4.shape[-2:]
    cur_blocks = np.ascontiguousarray(cur.reshape(rows, bs, cols, bs).swapaxes(1, 2))
    # rows of the last block row and columns of the last block column in the frame
    last_rows, last_cols = inside[0] - (rows - 1) * bs, inside[1] - (cols - 1) * bs
    lim = 4 * cfg.search_range + 3
    bits = _se_table(lim)
    grid = np.ogrid[: len(windows), :rows, :cols]  # (refs, rows, cols) by broadcasting
    best = coarse
    for step in (2, 1):
        # (9, refs, rows, cols), the incumbent first
        x4 = best.x4 + step * _STEPS[:, 0, None, None, None]
        y4 = best.y4 + step * _STEPS[:, 1, None, None, None]
        diff = _predict(windows, grid[0], x4[1:], y4[1:], origin, cfg) - cur_blocks
        np.abs(diff, out=diff)
        diff[:, :, -1, :, last_rows:] = 0
        diff[:, :, :, -1, :, last_cols:] = 0
        sad = np.concatenate([best.sad[None], diff.sum(axis=(4, 5), dtype=np.int64)])
        cost = np.concatenate([best.cost[None], sad[1:] + cfg.lambda_mv * (
            bits[x4[1:] + lim] + bits[y4[1:] + lim])])
        first = _first_min(cost, np.abs(x4) + np.abs(y4), axis=0)
        best = _Matches(*(a[(first, *grid)] for a in (x4, y4, cost, sad)))
    return best


def _search_band(planes: np.ndarray, int_planes: np.ndarray, cur: np.ndarray, origin, inside,
                 cfg: SearchConfig) -> tuple[np.ndarray, _Matches, np.ndarray]:
    """Best reference, match and prediction of every block of a band of whole
    block rows.

    `cur` and `inside` are as `_integer_search` takes them. `planes` holds the
    phase planes of every reference, padded by search_range + 1 and below and
    on the right by at least the padding of `cur`; `int_planes` is their
    integer phase as int16. Per block, the first reference with the least
    refined cost wins. Returns the reference index and match of each block,
    each of shape (block rows, blocks per row), and the prediction of `cur`.
    """
    windows = np.lib.stride_tricks.sliding_window_view(
        planes, (cfg.block_size, cfg.block_size), axis=(3, 4))
    coarse = _integer_search(int_planes, cur, origin, inside, cfg)
    refined = _refine(windows, cur, origin, inside, coarse, cfg)
    ref_idx = np.argmin(refined.cost, axis=0)
    rows, cols = np.ogrid[: ref_idx.shape[0], : ref_idx.shape[1]]
    best = _Matches(*(field[ref_idx, rows, cols] for field in refined))
    pred = _predict(windows, ref_idx, best.x4, best.y4, origin, cfg)
    return ref_idx, best, pred.swapaxes(1, 2).reshape(cur.shape)


def _clamp_range(cfg: SearchConfig, shape) -> SearchConfig:
    """`cfg` with its search range cut to the larger frame dimension. An offset
    a whole frame dimension away reads only edge samples, the same ones as the
    offset at that dimension, which costs no more mv bits and has a smaller
    |mv|_1: a farther offset never wins, and its phase planes would only pad."""
    return replace(cfg, search_range=min(cfg.search_range, max(shape)))


def motion_search(
    ref: np.ndarray,
    cur: np.ndarray,
    origin: tuple[int, int],
    cfg: SearchConfig,
) -> tuple[MotionVectorQ, float]:
    """Full integer search then half- and quarter-pel refinement.

    Cost = SAD + lambda_mv * (the code lengths of both mv components). Ties
    broken by smaller |mv|_1, then by raster order of candidates (incumbents
    win against later equal candidates).
    Both pictures are 8-bit planes (`check_plane`). Each call builds the phase
    planes of the whole reference; `encode_frame_proxy` builds them once a frame.
    """
    ref = check_plane(ref, "reference")
    cur = check_plane(cur, "frame")
    x0, y0 = origin
    bs = cfg.block_size
    check_block(cur, x0, y0, bs, bs)
    if ref.shape != cur.shape:
        raise ShapeMismatchError(f"ref dims {ref.shape} != cur dims {cur.shape}")
    cfg = _clamp_range(cfg, cur.shape)
    planes = subpel_planes(ref, cfg.search_range + 1)[None]
    cur_blk = cur[y0 : y0 + bs, x0 : x0 + bs].astype(np.int16)
    _, best, _ = _search_band(planes, planes[:, 0, 0].astype(np.int16), cur_blk, origin,
                              (bs, bs), cfg)
    return MotionVectorQ(int(best.x4[0, 0]), int(best.y4[0, 0])), float(best.cost[0, 0])


def encode_frame_proxy(
    refs, cur: np.ndarray, cfg: SearchConfig, q: int
) -> tuple[float, np.ndarray, list[MVRecord]]:
    """Inter-code one frame against a reference list at quantizer step q.

    The 16 quarter-pel phase planes of each reference are built once and
    searched in bands of whole block rows, as many per band as keep the
    |diff| of one row of integer offsets within ``SAD_BYTES``. Per block: best
    (reference, mv) by `motion_search` cost (the first reference wins ties), with the prediction
    taken from the planes; residual quantized as round(r/q); bits = mv bits +
    reference-index bits + `_code_residual`'s. The frame and every reference
    are 8-bit planes (`check_plane`). Returns (frame bits, reconstruction, mv field).
    """
    cur = check_plane(cur, "frame")
    refs = [check_plane(ref, f"reference {i}") for i, ref in enumerate(refs)]
    if not refs:
        raise ShapeMismatchError("reference list must hold at least one picture")
    check_int("quantizer step", q, 1)
    for i, ref in enumerate(refs):
        if ref.shape != cur.shape:
            raise ShapeMismatchError(f"reference {i} dims {ref.shape} != frame dims {cur.shape}")
    fh, fw = cur.shape
    cfg = _clamp_range(cfg, cur.shape)
    bs = cfg.block_size
    m = cfg.search_range + 1
    ph, pw = -(-fh // bs) * bs, -(-fw // bs) * bs  # the frame in whole blocks
    planes = np.zeros((len(refs), 4, 4, ph + 2 * m, pw + 2 * m), dtype=np.uint8)
    for ref_planes, ref in zip(planes, refs):
        subpel_planes(ref, m, out=ref_planes[..., : fh + 2 * m, : fw + 2 * m])
    int_planes = planes[:, 0, 0].astype(np.int16)  # as cur_i16: no cast per SAD row
    cur_i16 = np.zeros((ph, pw), dtype=np.int16)  # 8-bit samples; their differences fit too
    cur_i16[:fh, :fw] = cur
    row_bytes = len(refs) * (2 * cfg.search_range + 1) * bs * pw * cur_i16.itemsize
    band = bs * max(1, SAD_BYTES // row_bytes)

    pred = np.empty((ph, pw), dtype=np.uint8)
    found = []  # (ref_idx, *match) of each band
    for by in range(0, ph, band):
        ref_idx, best, band_pred = _search_band(planes, int_planes, cur_i16[by : by + band],
                                                (0, by), (fh - by, fw), cfg)
        pred[by : by + band] = band_pred
        found.append((ref_idx, *best))
    ref_idx, x4, y4, _, sad = (np.concatenate(field).ravel() for field in zip(*found))
    block_y, block_x = np.divmod(np.arange(len(x4)), pw // bs)  # raster order
    mv_field = list(map(MVRecord, (bs * block_x).tolist(), (bs * block_y).tolist(),
                        ref_idx.tolist(), x4.tolist(), y4.tolist(), sad.tolist()))
    lim = 4 * cfg.search_range + 3
    comp_bits = _se_table(lim)
    side_bits = int(comp_bits[x4 + lim].sum() + comp_bits[y4 + lim].sum())
    del planes, int_planes  # searched: the pricing's temporaries do not stack on them
    # every block's residual is quantized and priced on its own, so doing it
    # once for the whole frame gives the same samples and the same bit sum
    residual_bits, recon = _code_residual(cur, pred[:fh, :fw], q)
    ref_idx_bits = (len(refs) - 1).bit_length()
    total_bits = side_bits + ref_idx_bits * len(mv_field) + residual_bits
    return float(total_bits), recon, mv_field


def _code_residual(cur: np.ndarray, pred: np.ndarray, q: int) -> tuple[int, np.ndarray]:
    """(bits, reconstruction) of an 8-bit frame's residual r against an 8-bit
    prediction, quantized as round(r / q) and priced from `_RESIDUAL_BITS`.
    |r| and the index stay within 255: int16. r / q stays float64 for q up to
    2**31 - 1, and the index is 0 wherever q > 510, so min(q, 511) keeps its
    product in int16."""
    qidx = np.rint(np.subtract(cur, pred, dtype=np.int16) / q).astype(np.int16)
    recon = np.clip(pred + qidx * min(q, 511), 0, 255).astype(np.uint8)
    return int(_RESIDUAL_BITS[qidx + 255].sum()), recon


def intra_frame_proxy(frame: np.ndarray, q: int) -> tuple[float, np.ndarray]:
    """Stand-in for the first frame: the residual of an 8-bit plane
    (`check_plane`) against a zero prediction, coded as inter frames code theirs."""
    frame = check_plane(frame, "frame")
    check_int("quantizer step", q, 1)
    bits, recon = _code_residual(frame, np.zeros_like(frame), q)
    return float(bits), recon


class EncodedSequence(NamedTuple):
    """Per-frame results of one closed-loop run; frame 0 has an empty mv field."""

    bits: list[float]
    psnr: list[float]
    recons: list[np.ndarray]
    mv_fields: list[list[MVRecord]]


def encode_sequence(frames, net: GeneratorNet | None, cfg: SearchConfig, q: int) -> EncodedSequence:
    """Low-delay P loop at quantizer step q: frame 0 is intra-coded, and every
    later frame is inter-coded against the previous reconstruction, or against
    the generator output fed with that reconstruction when a network is given.
    """
    frames = [np.asarray(f) for f in frames]
    if len(frames) < 2:
        raise ShapeMismatchError(f"encoding needs at least 2 frames, got {len(frames)}")
    bits0, prev = intra_frame_proxy(frames[0], q)
    run = EncodedSequence([bits0], [psnr(prev, frames[0])], [prev], [[]])
    for cur in frames[1:]:
        refs = [prev] if net is None else [generate_reference(net, prev)]
        bits, prev, field = encode_frame_proxy(refs, cur, cfg, q)
        run.bits.append(bits)
        run.psnr.append(psnr(prev, cur))
        run.recons.append(prev)
        run.mv_fields.append(field)
    return run


def rd_sweep(sequence, net: GeneratorNet | None, cfg: SearchConfig, q_set) -> list[RDPoint]:
    """One RD point per quantizer step of `encode_sequence`: (mean bits/frame,
    mean luma PSNR). The quantizers' chains run on every usable CPU
    (`parallel.map_jobs`): each job carries the frames, the net and `cfg`, so
    a worker holds its own copy of them for the call."""
    frames = list(sequence)
    return map_jobs(_rd_point, [(frames, net, cfg, q) for q in q_set])


def _rd_point(job) -> RDPoint:
    """The RD point of one `rd_sweep` job, (frames, net, cfg, q)."""
    frames, net, cfg, q = job
    run = encode_sequence(frames, net, cfg, q)
    return RDPoint(float(np.mean(run.bits)), float(np.mean(run.psnr)))
