"""Quarter-pel block motion search, a simplified P-frame codec proxy,
reference-list substitution, and the closed encoding loop.

The proxy codes each block by full integer-pel search (SAD + lambda * mv
bits) followed by half- then quarter-pel refinement, scalar-quantizes the
spatial residual, and prices everything with signed exp-Golomb code lengths.
It is deterministic and dependency-free; its bits are a ranking proxy, not
VVC bits.

Per frame, each reference is interpolated once into its 16 quarter-pel phase
planes (`interp.subpel_planes`), padded by search_range + 1 samples. The
integer search of a whole row of blocks, every fractional candidate and the
final prediction are then slices of those planes, with the same samples
`interp.interpolate_block` gives for one block.

`encode_sequence` is the one low-delay P loop: frame 0 intra, then each frame
against the previous reconstruction or the generated picture made from it.
`rd_sweep` and the `encode` command both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        check_real("lambda_mv", self.lambda_mv, 0)
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
    hi, lo = mag >> np.uint64(32), mag & np.uint64(0xFFFFFFFF)
    # frexp's exponent is the bit length of a positive integer below 2**53
    bit_length = np.where(hi > 0, np.frexp(hi.astype(np.float64))[1] + 32,
                          np.frexp(lo.astype(np.float64))[1])
    return 2 * bit_length.astype(np.int64) + 1


def mv_bits(mv: MotionVectorQ) -> int:
    """Signed exp-Golomb lengths of both quarter-pel components, zero predictor."""
    return signed_exp_golomb_bits(mv.x4) + signed_exp_golomb_bits(mv.y4)


def _check_block(frame: np.ndarray, x0: int, y0: int, w: int, h: int) -> None:
    fh, fw = frame.shape
    if not (0 <= x0 and x0 + w <= fw and 0 <= y0 and y0 + h <= fh):
        raise ShapeMismatchError(f"block ({x0},{y0}) size {w}x{h} outside {fw}x{fh} frame")


class _Match(NamedTuple):
    mv: MotionVectorQ
    cost: float
    sad: int
    pred: np.ndarray | None  # a view into the phase planes


def _integer_search(plane: np.ndarray, cur_rows: np.ndarray, origin, starts,
                    cfg: SearchConfig) -> list[_Match]:
    """Full integer-pel search of every block of a horizontal run of blocks.

    `cur_rows` holds the run's rows of the current frame from column origin[0]
    on, and the blocks start at columns `starts` within it. `plane` is the
    integer phase of the reference padded by search_range + 1. Per block, the
    best offset has the least cost, then the least |mv|_1, then comes first in
    raster order. The matches carry no prediction.
    """
    x0, y0 = origin
    h, width = cur_rows.shape
    radius = cfg.search_range
    n = 2 * radius + 1
    top, left = y0 + 1, x0 + 1  # offset -radius in a plane padded by radius + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        plane[top : top + h + n - 1, left : left + width + n - 1], (h, width))
    sad = np.empty((n, n, len(starts)), dtype=np.int64)
    for dy in range(n):  # one row of offsets at a time keeps the temporaries small
        col_sads = np.abs(windows[dy] - cur_rows).sum(axis=1, dtype=np.int32)
        sad[dy] = np.add.reduceat(col_sads, starts, axis=1, dtype=np.int64)

    offsets = np.arange(-radius, radius + 1)
    comp_bits = _se_bits_array(4 * offsets)
    cost = sad + (cfg.lambda_mv * (comp_bits[:, None] + comp_bits[None, :]))[:, :, None]
    l1 = 4 * (np.abs(offsets)[:, None] + np.abs(offsets)[None, :])
    keys = (np.repeat(l1.reshape(-1, 1), len(starts), axis=1), cost.reshape(n * n, -1))
    firsts = np.lexsort(keys, axis=0)[0]  # stable: raster order breaks ties
    found = []
    for j, flat in enumerate(firsts.tolist()):
        dy, dx = divmod(flat, n)
        mv = MotionVectorQ(4 * (dx - radius), 4 * (dy - radius))
        found.append(_Match(mv, float(cost[dy, dx, j]), int(sad[dy, dx, j]), None))
    return found


def _refine(planes: np.ndarray, cur_blk: np.ndarray, origin, coarse: _Match,
            cfg: SearchConfig) -> _Match:
    """Half- then quarter-pel refinement of one block's integer match, on the
    phase planes of one reference built with margin search_range + 1.

    Every candidate's integer part lies within the margin, so each prediction
    is a slice of the planes; see `subpel_planes`.
    """
    x0, y0 = origin
    h, w = cur_blk.shape
    margin = cfg.search_range + 1

    def block(mv: MotionVectorQ) -> np.ndarray:
        top, left = margin + y0 + (mv.y4 >> 2), margin + x0 + (mv.x4 >> 2)
        return planes[mv.y4 & 3, mv.x4 & 3, top : top + h, left : left + w]

    best_mv, best_cost, best_sad, _ = coarse
    best_l1 = abs(best_mv.x4) + abs(best_mv.y4)
    for step in (2, 1):  # half-pel then quarter-pel neighbors, in raster order
        cx, cy = best_mv
        cands = [MotionVectorQ(cx + ddx, cy + ddy)
                 for ddy in (-step, 0, step) for ddx in (-step, 0, step) if ddx or ddy]
        preds = np.stack([block(cand) for cand in cands])
        sads = np.abs(preds - cur_blk).sum(axis=(1, 2), dtype=np.int64).tolist()
        for cand, cand_sad in zip(cands, sads):
            cand_cost = cand_sad + cfg.lambda_mv * mv_bits(cand)
            cand_l1 = abs(cand.x4) + abs(cand.y4)
            if (cand_cost, cand_l1) < (best_cost, best_l1):
                best_mv, best_cost, best_l1, best_sad = cand, cand_cost, cand_l1, cand_sad
    return _Match(best_mv, float(best_cost), best_sad, block(best_mv))


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
    planes = subpel_planes(ref, cfg.search_range + 1)
    cur_blk = cur[y0 : y0 + bs, x0 : x0 + bs].astype(np.int16)
    (coarse,) = _integer_search(planes[0, 0], cur_blk, origin, [0], cfg)
    match = _refine(planes, cur_blk, origin, coarse, cfg)
    return match.mv, match.cost


def substitute_reference(ref_list, generated: np.ndarray):
    """Return a list whose first entry is the generated picture; rest unchanged."""
    refs = list(ref_list)
    if not refs:
        raise ShapeMismatchError("reference list must hold at least one picture")
    generated = np.asarray(generated)
    for i, ref in enumerate(refs):
        if np.asarray(ref).shape != generated.shape:
            raise ShapeMismatchError(
                f"reference {i} dims {np.asarray(ref).shape} != generated {generated.shape}"
            )
    return [generated] + refs[1:]


def encode_frame_proxy(
    refs, cur: np.ndarray, cfg: SearchConfig, q: int
) -> tuple[float, np.ndarray, list[MVRecord]]:
    """Inter-code one frame against a reference list at quantizer step q.

    The 16 quarter-pel phase planes of each reference are built once. Per
    block: best (reference, mv) by `motion_search` cost (the first reference
    wins ties), with the prediction sliced from the planes; residual
    quantized as round(r/q); bits = mv bits + reference-index bits + signed
    exp-Golomb lengths of the quantized residual. Returns (frame bits,
    reconstruction, mv field).
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
    bs = cfg.block_size
    planes = [subpel_planes(ref, cfg.search_range + 1) for ref in refs]
    cur_i16 = cur.astype(np.int16)  # 8-bit samples; their differences fit too
    starts = np.arange(0, fw, bs)

    pred = np.empty(cur.shape, dtype=np.int64)
    mv_field: list[MVRecord] = []
    side_bits = 0
    for by in range(0, fh, bs):
        cur_rows = cur_i16[by : by + bs]
        row_matches = [_integer_search(p[0, 0], cur_rows, (0, by), starts, cfg) for p in planes]
        for j, bx in enumerate(starts.tolist()):
            cur_blk = cur_rows[:, bx : bx + bs]
            best = None
            for ri, ref_planes in enumerate(planes):
                match = _refine(ref_planes, cur_blk, (bx, by), row_matches[ri][j], cfg)
                if best is None or match.cost < best[1].cost:
                    best = (ri, match)
            ri, match = best
            pred[by : by + bs, bx : bx + bs] = match.pred
            side_bits += mv_bits(match.mv)
            mv_field.append(MVRecord(bx, by, ri, match.mv.x4, match.mv.y4, match.sad))
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
        refs = [prev]
        if net is not None:
            refs = substitute_reference(refs, generate_reference(net, prev))
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
