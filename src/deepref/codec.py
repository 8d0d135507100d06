"""Quarter-pel block motion search, a simplified P-frame codec proxy and the
closed encoding loop.

The proxy codes each block by full integer-pel search (SAD + lambda * mv
bits) followed by half- then quarter-pel refinement, scalar-quantizes the
spatial residual, and prices everything with signed exp-Golomb code lengths.
It is deterministic and dependency-free; its bits are a ranking proxy, not
VVC bits.

Per frame, each reference is interpolated once into its 16 quarter-pel phase
planes (`interp.subpel_planes`), padded by search_range + 1 samples. Every
candidate prediction is then a window of those planes, with the same samples
`interp.interpolate_block` gives for one block. The search runs one block row
at a time, for all its blocks and all references together: the integer SADs
one row of offsets at a time, then each refinement step gathers the 8
neighbours of every block's incumbent with one fancy index and keeps, per
block, the first least (cost, |mv|_1) in raster order, as a scan over the
candidates would. Temporaries stay within one block row, and the Python-level
loop count per frame grows with block rows times references, not with blocks.

`encode_sequence` is the one low-delay P loop: frame 0 intra, then each frame
against the previous reconstruction or the generated picture made from it.
`rd_sweep` and the `encode` command both run it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError, check_int, check_real
from .generator import GeneratorNet, generate_reference
from .interp import MotionVectorQ, subpel_planes
from .metrics import RDPoint, psnr


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


def _se_bits_array(values: np.ndarray) -> np.ndarray:
    """Vectorised `signed_exp_golomb_bits`: 2 * bit_length(|v|) + 1, exact for every int64."""
    mag = np.abs(np.asarray(values, dtype=np.int64)).astype(np.uint64)  # |-2**63| wraps to 2**63
    # frexp's exponent is the bit length of a positive integer below 2**53
    if mag.size and mag.max() >= 2**53:  # a float64 would round: take 32 bits at a time
        hi, lo = mag >> np.uint64(32), mag & np.uint64(0xFFFFFFFF)
        bit_length = np.where(hi > 0, np.frexp(hi.astype(np.float64))[1] + 32,
                              np.frexp(lo.astype(np.float64))[1])
    else:
        bit_length = np.frexp(mag.astype(np.float64))[1]
    return 2 * bit_length.astype(np.int64) + 1


@lru_cache(maxsize=8)
def _component_bits(search_range: int) -> np.ndarray:
    """`signed_exp_golomb_bits` of every mv component within 4 * search_range + 3
    of 0, the reach of a search, at index component + 4 * search_range + 3."""
    lim = 4 * search_range + 3
    bits = _se_bits_array(np.arange(-lim, lim + 1))
    bits.flags.writeable = False
    return bits


def mv_bits(mv: MotionVectorQ) -> int:
    """Signed exp-Golomb lengths of both quarter-pel components, zero predictor."""
    return signed_exp_golomb_bits(mv.x4) + signed_exp_golomb_bits(mv.y4)


def _check_block(frame: np.ndarray, x0: int, y0: int, w: int, h: int) -> None:
    fh, fw = frame.shape
    if not (0 <= x0 and x0 + w <= fw and 0 <= y0 and y0 + h <= fh):
        raise ShapeMismatchError(f"block ({x0},{y0}) size {w}x{h} outside {fw}x{fh} frame")


class _Matches(NamedTuple):
    """The best match of every block of a run, per reference: each field has
    shape (refs, blocks) unless a reference has been chosen."""

    x4: np.ndarray
    y4: np.ndarray
    cost: np.ndarray
    sad: np.ndarray


def _first_min(cost: np.ndarray, l1: np.ndarray, axis: int) -> np.ndarray:
    """Index along `axis` of the first least (cost, l1) pair: the candidate a
    scan keeps that replaces its incumbent only on a strictly smaller pair."""
    tie = cost == cost.min(axis=axis, keepdims=True)
    return np.argmin(np.where(tie, l1, np.iinfo(np.int64).max), axis=axis)


# (dx, dy) of a motion vector itself, then of its 8 neighbours in raster order
_STEPS = np.array([(0, 0)] + [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy])


def _integer_search(int_planes: np.ndarray, cur_rows: np.ndarray, origin,
                    cfg: SearchConfig) -> _Matches:
    """Full integer-pel search of every block of a horizontal run of blocks.

    `cur_rows` holds the run's rows of the current frame from column origin[0]
    on, as int16, and a block starts every block_size columns.
    `int_planes` holds the integer phase of every reference, padded by
    search_range + 1, as int16. Per block, the best offset has the least cost,
    then the least |mv|_1, then comes first in raster order.
    """
    x0, y0 = origin
    h, width = cur_rows.shape
    starts = np.arange(0, width, cfg.block_size)
    radius = cfg.search_range
    n = 2 * radius + 1
    top, left = y0 + 1, x0 + 1  # offset -radius in a plane padded by radius + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        int_planes[:, top : top + h + n - 1, left : left + width + n - 1], (h, width),
        axis=(1, 2))
    col_dtype = np.int16 if 255 * h <= np.iinfo(np.int16).max else np.int32
    sad = np.empty((len(int_planes), n, n, len(starts)), dtype=np.int64)
    for dy in range(n):  # one row of offsets at a time keeps the temporaries small
        diff = windows[:, dy] - cur_rows
        col_sads = np.abs(diff, out=diff).sum(axis=2, dtype=col_dtype)
        sad[:, dy] = np.add.reduceat(col_sads, starts, axis=2, dtype=np.int64)

    offsets = np.arange(-radius, radius + 1)
    comp_bits = _component_bits(radius)[4 * offsets + 4 * radius + 3]
    cost = sad + (cfg.lambda_mv * (comp_bits[:, None] + comp_bits[None, :]))[:, :, None]
    sad, cost = sad.reshape(len(sad), n * n, -1), cost.reshape(len(sad), n * n, -1)
    l1 = (np.abs(offsets)[:, None] + np.abs(offsets)[None, :]).reshape(-1, 1)
    first = _first_min(cost, l1, axis=1)  # raster order breaks the last ties
    refs, blocks = np.arange(len(sad))[:, None], np.arange(len(starts))
    dy, dx = np.divmod(first, n)
    return _Matches(4 * (dx - radius), 4 * (dy - radius), cost[refs, first, blocks],
                    sad[refs, first, blocks])


def _predict(windows: np.ndarray, ref_idx, x4: np.ndarray, y4: np.ndarray, origin,
             cfg: SearchConfig) -> np.ndarray:
    """Predictions of the blocks of a run, shape (..., blocks, h, block_size).

    `windows` holds every (h, block_size) window of the phase planes of every
    reference, padded by search_range + 1. Block j of the run at `origin` is
    predicted from reference ref_idx[..., j] moved by (x4[..., j], y4[..., j]);
    the three broadcast together.
    """
    x0, y0 = origin
    margin = cfg.search_range + 1
    left = margin + x0 + cfg.block_size * np.arange(x4.shape[-1]) + (x4 >> 2)
    return windows[ref_idx, y4 & 3, x4 & 3, margin + y0 + (y4 >> 2), left]


def _refine(windows: np.ndarray, cur_rows: np.ndarray, origin, coarse: _Matches,
            cfg: SearchConfig) -> _Matches:
    """Half- then quarter-pel refinement of the integer matches of a run of
    blocks, for every reference at once, on the windows `_predict` takes.

    Per step, each match becomes the first least (cost, |mv|_1) among itself
    and its 8 neighbours in raster order.
    """
    h, width = cur_rows.shape
    bs = cfg.block_size
    n_blocks = coarse.x4.shape[-1]
    valid = width - (n_blocks - 1) * bs  # columns of the last block inside the frame
    cur_blocks = np.zeros((h, n_blocks * bs), dtype=cur_rows.dtype)
    cur_blocks[:, :width] = cur_rows
    cur_blocks = cur_blocks.reshape(h, n_blocks, bs).swapaxes(0, 1)
    bits, lim = _component_bits(cfg.search_range), 4 * cfg.search_range + 3
    refs, blocks = np.arange(len(windows))[:, None], np.arange(n_blocks)
    best = coarse
    for step in (2, 1):
        x4 = best.x4 + step * _STEPS[:, :1, None]  # (9, refs, blocks), the incumbent first
        y4 = best.y4 + step * _STEPS[:, 1:, None]
        diff = _predict(windows, refs, x4[1:], y4[1:], origin, cfg) - cur_blocks
        np.abs(diff, out=diff)[..., -1, :, valid:] = 0  # columns past the frame
        sad = np.concatenate([best.sad[None], diff.sum(axis=(3, 4), dtype=np.int64)])
        cost = np.concatenate([best.cost[None], sad[1:] + cfg.lambda_mv * (
            bits[x4[1:] + lim] + bits[y4[1:] + lim])])
        first = _first_min(cost, np.abs(x4) + np.abs(y4), axis=0)
        best = _Matches(*(a[first, refs, blocks] for a in (x4, y4, cost, sad)))
    return best


def _search_run(planes: np.ndarray, int_planes: np.ndarray, cur_rows: np.ndarray, origin,
                cfg: SearchConfig) -> tuple[np.ndarray, _Matches, np.ndarray]:
    """Best reference, match and prediction of every block of a run.

    `planes` holds the phase planes of every reference, padded by
    search_range + 1 and on the right by at least the columns the run's last
    block reaches past the frame; `int_planes` is their integer phase as
    int16. Per block, the first reference with the least refined cost wins.
    Returns the reference index and match of each block and the prediction
    of the run.
    """
    h, width = cur_rows.shape
    windows = np.lib.stride_tricks.sliding_window_view(planes, (h, cfg.block_size),
                                                       axis=(3, 4))
    coarse = _integer_search(int_planes, cur_rows, origin, cfg)
    refined = _refine(windows, cur_rows, origin, coarse, cfg)
    ref_idx = np.argmin(refined.cost, axis=0)
    best = _Matches(*(field[ref_idx, np.arange(len(ref_idx))] for field in refined))
    pred = _predict(windows, ref_idx, best.x4, best.y4, origin, cfg)
    return ref_idx, best, pred.swapaxes(0, 1).reshape(h, -1)[:, :width]


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

    Cost = SAD + lambda_mv * mv_bits. Ties broken by smaller |mv|_1, then by
    raster order of candidates (incumbents win against later equal candidates).
    Each call builds the phase planes of the whole reference; to search many
    blocks of one frame, `encode_frame_proxy` builds them once and shares them.
    """
    ref = np.asarray(ref)
    cur = np.asarray(cur)
    x0, y0 = origin
    bs = cfg.block_size
    _check_block(cur, x0, y0, bs, bs)
    if ref.shape != cur.shape:
        raise ShapeMismatchError(f"ref dims {ref.shape} != cur dims {cur.shape}")
    cfg = _clamp_range(cfg, cur.shape)
    planes = subpel_planes(ref, cfg.search_range + 1)[None]
    cur_blk = cur[y0 : y0 + bs, x0 : x0 + bs].astype(np.int16)
    _, best, _ = _search_run(planes, planes[:, 0, 0].astype(np.int16), cur_blk, origin, cfg)
    return MotionVectorQ(int(best.x4[0]), int(best.y4[0])), float(best.cost[0])


def encode_frame_proxy(
    refs, cur: np.ndarray, cfg: SearchConfig, q: int
) -> tuple[float, np.ndarray, list[MVRecord]]:
    """Inter-code one frame against a reference list at quantizer step q.

    The 16 quarter-pel phase planes of each reference are built once and
    searched one block row at a time. Per block: best (reference, mv) by
    `motion_search` cost (the first reference wins ties), with the prediction
    taken from the planes; residual quantized as round(r/q); bits = mv bits +
    reference-index bits + signed exp-Golomb lengths of the quantized
    residual. Returns (frame bits, reconstruction, mv field).
    """
    refs = list(refs)
    cur = np.asarray(cur)
    if not refs:
        raise ShapeMismatchError("reference list must hold at least one picture")
    check_int("quantizer step", q, 1)
    for i, ref in enumerate(refs):
        if np.asarray(ref).shape != cur.shape:
            raise ShapeMismatchError(
                f"reference {i} dims {np.asarray(ref).shape} != frame dims {cur.shape}"
            )
    fh, fw = cur.shape
    cfg = _clamp_range(cfg, cur.shape)
    bs = cfg.block_size
    m = cfg.search_range + 1
    past = -(-fw // bs) * bs - fw  # columns the last block of a row reaches past the frame
    planes = np.zeros((len(refs), 4, 4, fh + 2 * m, fw + 2 * m + past), dtype=np.uint8)
    for ref_planes, ref in zip(planes, refs):
        ref_planes[..., : fw + 2 * m] = subpel_planes(ref, m)
    int_planes = planes[:, 0, 0].astype(np.int16)  # as cur_i16: no cast per SAD row
    cur_i16 = cur.astype(np.int16)  # 8-bit samples; their differences fit too
    starts = np.arange(0, fw, bs)

    pred = np.empty(cur.shape, dtype=np.uint8)
    mv_field: list[MVRecord] = []
    comp_bits, lim = _component_bits(cfg.search_range), 4 * cfg.search_range + 3
    side_bits = 0
    for by in range(0, fh, bs):
        ref_idx, best, row_pred = _search_run(planes, int_planes, cur_i16[by : by + bs],
                                              (0, by), cfg)
        pred[by : by + bs] = row_pred
        side_bits += int(comp_bits[best.x4 + lim].sum() + comp_bits[best.y4 + lim].sum())
        mv_field += map(MVRecord, starts.tolist(), [by] * len(starts), ref_idx.tolist(),
                        best.x4.tolist(), best.y4.tolist(), best.sad.tolist())
    # every block's residual is quantized and priced on its own, so doing it
    # once for the whole frame gives the same samples and the same bit sum
    qidx = np.rint((cur.astype(np.int64) - pred) / q).astype(np.int64)
    recon = np.clip(pred + qidx * q, 0, 255).astype(np.uint8)
    ref_idx_bits = (len(refs) - 1).bit_length()
    total_bits = side_bits + ref_idx_bits * len(mv_field) + int(_se_bits_array(qidx).sum())
    return float(total_bits), recon, mv_field


def intra_frame_proxy(frame: np.ndarray, q: int) -> tuple[float, np.ndarray]:
    """Stand-in for the first frame: quantize raw samples, price with exp-Golomb."""
    check_int("quantizer step", q, 1)
    qidx = np.rint(np.asarray(frame, dtype=np.float64) / q).astype(np.int64)
    bits = float(_se_bits_array(qidx).sum())
    recon = np.clip(qidx * q, 0, 255).astype(np.uint8)
    return bits, recon


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
    mean luma PSNR)."""
    frames = list(sequence)
    points = []
    for q in q_set:
        run = encode_sequence(frames, net, cfg, q)
        points.append(RDPoint(float(np.mean(run.bits)), float(np.mean(run.psnr))))
    return points
