"""Training-pair extraction from consecutive frames.

Each tile of the current frame becomes a ground-truth block Y. An iterative
per-block Lucas-Kanade solve estimates its fractional motion into the
reference frame; the referenced fractional block is moved toward the top-left
to the nearest integer positions (componentwise floor) and that integer block
becomes the input X. Flat blocks where the structure tensor is degenerate
fall back to zero motion.

The solve runs on a batch of tiles at once (`_lk_blocks`): one gather of all
their gradient windows, then per iteration one bilinear warp of the
reference and both gradients for the tiles still running, with coordinates,
weights and flat indices computed once per row and column and shared by the
three planes. Each tile's scalar step (degeneracy test, update, stop, clamp)
stays Python float math on its own sums, so it gets the bits a solve of it
alone would give. A batch holds as many tiles as keep one float64
(tiles, h, w) array within ``LK_BYTES`` (128 KiB), and at least one: all 16
tiles of a 64x64 frame at block 16 are one batch. With block 32 on 2 vCPUs
(least/median ms for one frame pair over 9 rounds), batches of 64 KiB,
128 KiB, 256 KiB, 1 MiB and 4 MiB took 308/370, 311/340, 323/352, 361/399
and 563/663 ms at 416x240 with stride 8 (1,323 tiles), and 413/480,
355/439, 383/460, 457/512 and 769/853 ms at 832x480 with stride 16 (1,479
tiles); a whole-frame batch spills out of cache.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    ShapeMismatchError,
    check_block,
    check_int,
    check_plane,
    check_real,
)
from .fileio import atomic_write_bytes

DATASET_MAGIC = b"DRPD"
DATASET_VERSION = 1
_F32_MAX = float(np.finfo(np.float32).max)  # the largest mv component a record holds
DEGENERACY_THRESHOLD = 1e-3  # per-pixel floor on the structure tensor's min eigenvalue
INTEGER_SNAP = 0.02  # px; snap near-integer flow before the floor rule
LK_ITERATIONS = 5  # Lucas-Kanade updates per block, at most
LK_EPS = 0.01  # px; stop when |dv| drops below
MV_CLAMP = 8.0  # px per component
LK_BYTES = 1 << 17  # largest float64 (tiles, h, w) array of one solve batch (docstring)


@dataclass
class ExtractionConfig:
    block_size: int = 32
    stride: int | None = None  # None = block_size (non-overlapping tiles)

    def __post_init__(self):
        check_int("block_size", self.block_size, 8)
        if self.stride is not None:
            check_int("stride", self.stride, 1)

    @property
    def effective_stride(self) -> int:
        return self.block_size if self.stride is None else self.stride


@dataclass
class SamplePair:
    x_block: np.ndarray  # integer-aligned reference block (network input)
    y_block: np.ndarray  # current-frame block (ground truth)
    origin: tuple[int, int]  # (bx, by) of Y in the current frame
    mv: tuple[float, float]  # fractional motion that produced the pair


def _warp_planes(ref: np.ndarray) -> np.ndarray:
    """(3, H, W) float64 stack of the reference and its x and y gradients:
    central differences with edge replication, so border blocks work too."""
    padded = np.pad(ref, 1, mode="edge")
    planes = np.empty((3, *ref.shape))
    planes[0] = ref
    np.subtract(padded[1:-1, 2:], padded[1:-1, :-2], out=planes[1])
    np.subtract(padded[2:, 1:-1], padded[:-2, 1:-1], out=planes[2])
    planes[1:] *= 0.5
    return planes


def _lk_blocks(planes, cur, origins, size):
    """Iterative Lucas-Kanade solve of a batch of same-size blocks inside the
    frame: ((vx, vy), degenerate) per (x0, y0) origin, in order.

    `planes` is `_warp_planes(ref)`; warped samples are bilinear with clamp
    addressing. Only the arrays are batched: each block takes its own scalar
    steps and stops on its own, and each of its sums is numpy's sum of its
    own h*w products, so every block gets the bits of a solve of it alone.
    """
    w, h = size
    _, fh, fw = planes.shape
    flat = planes.reshape(3, -1)
    x0, y0 = np.array(origins, dtype=np.intp).T
    rows, cols = np.arange(h), np.arange(w)
    win = (y0 * fw + x0)[:, None, None] + (rows * fw)[:, None] + cols  # flat sample indices
    ix, iy = flat[1:].take(win, axis=1)
    degenerate, active = [], []
    for b, (g11, g12, g22) in enumerate(zip((ix * ix).sum(axis=(1, 2)).tolist(),
                                            (ix * iy).sum(axis=(1, 2)).tolist(),
                                            (iy * iy).sum(axis=(1, 2)).tolist())):
        half_trace = 0.5 * (g11 + g22)
        det = g11 * g22 - g12 * g12
        min_eig = half_trace - math.sqrt(max(half_trace * half_trace - det, 0.0))
        degenerate.append(min_eig < DEGENERACY_THRESHOLD * (w * h))
        if not degenerate[-1]:
            active.append(b)

    if not active:
        return [((0.0, 0.0), True)] * len(origins)
    vx, vy = [0.0] * len(origins), [0.0] * len(origins)
    target = cur.take(win[active])
    grid_y = (y0[active, None] + rows).astype(np.float64)
    grid_x = (x0[active, None] + cols).astype(np.float64)
    for _ in range(LK_ITERATIONS):
        # a block's sample coordinates vary by row (y) or by column (x) only, so
        # they are clamped, floored and weighted per row and per column
        sy = grid_y + np.array([vy[b] for b in active])[:, None]
        sx = grid_x + np.array([vx[b] for b in active])[:, None]
        np.minimum(np.maximum(sy, 0.0, out=sy), fh - 1.0, out=sy)
        np.minimum(np.maximum(sx, 0.0, out=sx), fw - 1.0, out=sx)
        ry0, rx0 = sy.astype(np.intp), sx.astype(np.intp)  # the floor: both are >= 0
        fy, fx = (sy - ry0)[:, :, None], (sx - rx0)[:, None, :]
        r0, r1 = (ry0 * fw)[:, :, None], (np.minimum(ry0 + 1, fh - 1) * fw)[:, :, None]
        c0, c1 = rx0[:, None, :], np.minimum(rx0 + 1, fw - 1)[:, None, :]
        top = flat.take(r0 + c0, axis=1) * (1.0 - fx) + flat.take(r0 + c1, axis=1) * fx
        bot = flat.take(r1 + c0, axis=1) * (1.0 - fx) + flat.take(r1 + c1, axis=1) * fx
        warped = top * (1.0 - fy) + bot * fy  # (3, blocks, h, w): ref, gx, gy
        it = target - warped[0]
        ixw, iyw = warped[1], warped[2]
        sums = zip(*((a * b).sum(axis=(1, 2)).tolist()
                     for a, b in ((ixw, ixw), (ixw, iyw), (iyw, iyw), (ixw, it), (iyw, it))))
        keep = []
        for j, (b, (g11, g12, g22, b1, b2)) in enumerate(zip(active, sums)):
            det = g11 * g22 - g12 * g12
            if det <= 1e-12 * (w * h) ** 2:
                continue
            dvx = (g22 * b1 - g12 * b2) / det
            dvy = (g11 * b2 - g12 * b1) / det
            vx[b] += dvx
            vy[b] += dvy
            if not math.hypot(dvx, dvy) < LK_EPS:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(active):
            active = [active[j] for j in keep]
            target, grid_y, grid_x = target[keep], grid_y[keep], grid_x[keep]

    return [((0.0, 0.0), True) if flat_block else
            ((min(max(bvx, -MV_CLAMP), MV_CLAMP), min(max(bvy, -MV_CLAMP), MV_CLAMP)), False)
            for flat_block, bvx, bvy in zip(degenerate, vx, vy)]


def lucas_kanade_mv(ref, cur, origin, size):
    """Iterative least-squares flow for one block.

    Returns ((vx, vy), degenerate). The vector points from the current block
    into the reference: cur(x) ~= ref(x + v). Degenerate (flat) blocks return
    zero motion with the flag set.
    """
    ref = np.asarray(ref, dtype=np.float64)
    cur = np.asarray(cur, dtype=np.float64)
    if ref.shape != cur.shape:
        raise ShapeMismatchError(f"ref dims {ref.shape} != cur dims {cur.shape}")
    w, h = (size, size) if np.isscalar(size) else (int(size[0]), int(size[1]))
    x0, y0 = origin
    check_block(ref, x0, y0, w, h)
    return _lk_blocks(_warp_planes(ref), cur, [(x0, y0)], (w, h))[0]


def round_mv_topleft(mv) -> tuple[int, int]:
    """Move the fractional position toward the top-left: componentwise floor."""
    return math.floor(mv[0]), math.floor(mv[1])


def _snap_near_integers(mv) -> tuple[float, float]:
    """Estimator noise below INTEGER_SNAP around integers would otherwise flip
    the floor by a whole pixel; snap it away."""
    out = []
    for v in mv:
        nearest = round(v)
        out.append(float(nearest) if abs(v - nearest) < INTEGER_SNAP else float(v))
    return out[0], out[1]


def extract_pairs(ref, cur, cfg: ExtractionConfig) -> list[SamplePair]:
    """Tile the current frame and build one (X, Y) pair per tile.

    Both frames are 8-bit planes (`check_plane`), as the dataset stores them.
    Tiles whose integer-aligned X window would leave the reference frame are
    dropped; degenerate tiles are kept with offset (0,0). Raster tile order.
    """
    ref = check_plane(ref, "reference")
    cur = check_plane(cur, "frame")
    if ref.shape != cur.shape:
        raise ShapeMismatchError(f"ref dims {ref.shape} != cur dims {cur.shape}")
    fh, fw = cur.shape
    bs = cfg.block_size
    stride = cfg.effective_stride

    origins = [(bx, by) for by in range(0, fh - bs + 1, stride)
               for bx in range(0, fw - bs + 1, stride)]
    if not origins:
        return []
    planes = _warp_planes(ref.astype(np.float64))
    cur_f = cur.astype(np.float64)
    per_batch = max(1, LK_BYTES // (8 * bs * bs))
    solved = []
    for start in range(0, len(origins), per_batch):
        solved += _lk_blocks(planes, cur_f, origins[start : start + per_batch], (bs, bs))

    pairs: list[SamplePair] = []
    for (bx, by), (mv, _) in zip(origins, solved):
        mv = _snap_near_integers(mv)
        ox, oy = round_mv_topleft(mv)
        sx, sy = bx + ox, by + oy
        if not (0 <= sx and sx + bs <= fw and 0 <= sy and sy + bs <= fh):
            continue
        pairs.append(
            SamplePair(
                x_block=ref[sy : sy + bs, sx : sx + bs].copy(),
                y_block=cur[by : by + bs, bx : bx + bs].copy(),
                origin=(bx, by),
                mv=mv,
            )
        )
    return pairs


def write_dataset(pairs: list[SamplePair], path, block_size: int) -> None:
    """Binary dataset: magic, version, block size, count, then per-pair
    records. Every X and Y block is an 8-bit (block_size, block_size) plane,
    every origin component a uint32 and every mv component a finite float32."""
    check_int("block_size", block_size, 1)
    for i, pair in enumerate(pairs):
        for k in range(2):
            check_int(f"pair {i} origin[{k}]", pair.origin[k], 0, 2**32 - 1)
            check_real(f"pair {i} mv[{k}]", pair.mv[k], -_F32_MAX, _F32_MAX)
        for name, blk in (("X", pair.x_block), ("Y", pair.y_block)):
            if check_plane(blk, f"pair {i} {name} block").shape != (block_size, block_size):
                raise ShapeMismatchError(
                    f"pair {i}: {name} block shape {blk.shape} != ({block_size},{block_size})")
    buf = bytearray()
    buf += DATASET_MAGIC
    buf += struct.pack("<II", DATASET_VERSION, block_size)
    buf += struct.pack("<Q", len(pairs))
    for pair in pairs:
        buf += struct.pack("<II", int(pair.origin[0]), int(pair.origin[1]))
        buf += struct.pack("<ff", float(pair.mv[0]), float(pair.mv[1]))
        buf += pair.x_block.tobytes()
        buf += pair.y_block.tobytes()
    atomic_write_bytes(path, bytes(buf))


def read_dataset(path) -> list[SamplePair]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {data[:4]!r}")
    if len(data) < 20:
        raise FormatError("truncated dataset header")
    version, block_size = struct.unpack_from("<II", data, 4)
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if block_size < 1:
        raise FormatError("dataset block size is 0; it must be at least 1")
    (count,) = struct.unpack_from("<Q", data, 12)
    record = 16 + 2 * block_size * block_size
    expected = 20 + count * record
    if len(data) != expected:
        raise FormatError(
            f"dataset payload is {len(data)} bytes but the count field "
            f"({count} pairs of {record} bytes) implies {expected}"
        )
    pairs = []
    offset = 20
    for _ in range(count):
        ox, oy = struct.unpack_from("<II", data, offset)
        mvx, mvy = struct.unpack_from("<ff", data, offset + 8)
        if not (math.isfinite(mvx) and math.isfinite(mvy)):
            raise FormatError(f"pair {len(pairs)} has a non-finite mv ({mvx}, {mvy})")
        offset += 16
        n = block_size * block_size
        x_blk = np.frombuffer(data, np.uint8, n, offset).reshape(block_size, block_size)
        offset += n
        y_blk = np.frombuffer(data, np.uint8, n, offset).reshape(block_size, block_size)
        offset += n
        pairs.append(SamplePair(x_blk.copy(), y_blk.copy(), (ox, oy), (mvx, mvy)))
    return pairs
