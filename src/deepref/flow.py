"""Training-pair extraction from consecutive frames.

Each tile of the current frame becomes a ground-truth block Y. An iterative
per-block Lucas-Kanade solve estimates its fractional motion into the
reference frame; the referenced fractional block is moved toward the top-left
to the nearest integer positions (componentwise floor) and that integer block
becomes the input X. Flat blocks where the structure tensor is degenerate
fall back to zero motion. A pair is one record of `pair_dtype(block_size)`,
in memory as in the dataset file.

The solve runs on a batch of tiles at once (`_lk_blocks`): one gather of all
their gradient windows, then per iteration one bilinear warp of the
reference and both gradients for the tiles still running, with coordinates,
weights and flat indices computed once per row and column and shared by the
three planes. Each tile's sums are numpy's sums of its own products, and the
steps on them (degeneracy test, update, stop, clamp) are elementwise float64
operations, which round as Python floats do, so every tile gets the bits a
solve of it alone would give. A batch holds as many tiles as keep one float64
(tiles, h, w) array within ``LK_BYTES`` (128 KiB), and at least one: all 16
tiles of a 64x64 frame at block 16 are one batch. With block 32 on 2 vCPUs
(least/median ms for one frame pair over 9 rounds), batches of 64 KiB,
128 KiB, 256 KiB, 1 MiB and 4 MiB took 368/385, 339/363, 364/377, 475/490
and 611/635 ms at 416x240 with stride 8 (1,323 tiles), and 421/436,
418/425, 430/440, 553/571 and 721/738 ms at 832x480 with stride 16 (1,479
tiles); a whole-frame batch spills out of cache.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    ShapeMismatchError,
    check_block,
    check_int,
    check_plane,
)
from .fileio import atomic_write_bytes

DATASET_MAGIC = b"DRPD"
DATASET_VERSION = 1
# the largest block size whose `pair_dtype` numpy can hold: a dtype's size,
# 16 + 2 * block_size**2 bytes here, is a C int
MAX_BLOCK_SIZE = math.isqrt((2**31 - 1 - 16) // 2)
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
        check_int("block_size", self.block_size, 8, MAX_BLOCK_SIZE)
        if self.stride is not None:
            check_int("stride", self.stride, 1)

    @property
    def effective_stride(self) -> int:
        return self.block_size if self.stride is None else self.stride


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
    addressing. Each block stops on its own, and each of its sums is numpy's
    sum of its own h*w products; the steps on those sums are elementwise, so
    every block gets the bits of a solve of it alone.
    """
    w, h = size
    _, fh, fw = planes.shape
    flat = planes.reshape(3, -1)
    x0, y0 = np.array(origins, dtype=np.intp).T
    rows, cols = np.arange(h), np.arange(w)
    win = (y0 * fw + x0)[:, None, None] + (rows * fw)[:, None] + cols  # flat sample indices
    ix, iy = flat[1:].take(win, axis=1)
    g11, g12, g22 = ((a * b).sum(axis=(1, 2)) for a, b in ((ix, ix), (ix, iy), (iy, iy)))
    half_trace = 0.5 * (g11 + g22)
    det = g11 * g22 - g12 * g12
    min_eig = half_trace - np.sqrt(np.maximum(half_trace * half_trace - det, 0.0))
    degenerate = min_eig < DEGENERACY_THRESHOLD * (w * h)

    vx, vy = np.zeros(len(origins)), np.zeros(len(origins))
    active = np.flatnonzero(~degenerate)  # the blocks still running
    target = cur.take(win[active])
    for _ in range(LK_ITERATIONS):
        if not active.size:
            break
        # a block's sample coordinates vary by row (y) or by column (x) only, so
        # they are clamped, floored and weighted per row and per column
        sy = (y0[active, None] + rows) + vy[active, None]
        sx = (x0[active, None] + cols) + vx[active, None]
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
        g11, g12, g22, b1, b2 = ((a * b).sum(axis=(1, 2)) for a, b in
                                 ((ixw, ixw), (ixw, iyw), (iyw, iyw), (ixw, it), (iyw, it)))
        det = g11 * g22 - g12 * g12
        steps = det > 1e-12 * (w * h) ** 2  # a block failing this stops where it is
        g11, g12, g22, b1, b2, det = (s[steps] for s in (g11, g12, g22, b1, b2, det))
        dvx = (g22 * b1 - g12 * b2) / det
        dvy = (g11 * b2 - g12 * b1) / det
        vx[active[steps]] += dvx
        vy[active[steps]] += dvy
        keep = np.flatnonzero(steps)[np.hypot(dvx, dvy) >= LK_EPS]
        if keep.size < active.size:
            active, target = active[keep], target[keep]

    vx, vy = (np.clip(v, -MV_CLAMP, MV_CLAMP).tolist() for v in (vx, vy))
    return list(zip(zip(vx, vy), degenerate.tolist()))


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
    x0, y0, w, h = check_block(ref, origin, size)
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


def extract_pairs(ref, cur, cfg: ExtractionConfig) -> np.ndarray:
    """Tile the current frame and build one (X, Y) pair per tile, as a 1-D
    array of `pair_dtype(cfg.block_size)` in raster tile order.

    Both frames are 8-bit planes (`check_plane`), as the dataset stores them.
    Tiles whose integer-aligned X window would leave the reference frame are
    dropped; degenerate tiles are kept with offset (0,0).
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
    planes = _warp_planes(ref.astype(np.float64))
    cur_f = cur.astype(np.float64)
    per_batch = max(1, LK_BYTES // (8 * bs * bs))
    solved = []
    for start in range(0, len(origins), per_batch):
        solved += _lk_blocks(planes, cur_f, origins[start : start + per_batch], (bs, bs))

    pairs = []
    for (bx, by), (mv, _) in zip(origins, solved):
        mv = _snap_near_integers(mv)
        ox, oy = round_mv_topleft(mv)
        sx, sy = bx + ox, by + oy
        if 0 <= sx and sx + bs <= fw and 0 <= sy and sy + bs <= fh:
            pairs.append(((bx, by), mv, ref[sy : sy + bs, sx : sx + bs],
                          cur[by : by + bs, bx : bx + bs]))
    return np.array(pairs, pair_dtype(bs))


def pair_dtype(block_size: int) -> np.dtype:
    """One training pair, in memory as in the dataset file: the origin (bx, by)
    of Y in the current frame, the fractional mv (vx, vy) that produced the
    pair, the integer-aligned reference block X (the network input) and the
    current-frame block Y (the ground truth), little-endian."""
    check_int("block_size", block_size, 1, MAX_BLOCK_SIZE)
    block = ("u1", (block_size, block_size))
    return np.dtype([("origin", "<u4", 2), ("mv", "<f4", 2), ("x", *block), ("y", *block)])


def _check_mvs(pairs: np.ndarray, error: type[Exception]) -> None:
    """Raise `error` naming the first pair whose mv is not finite."""
    finite = np.isfinite(pairs["mv"]).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise error(f"pair {bad} has a non-finite mv {tuple(pairs['mv'][bad].tolist())}")


def write_dataset(pairs: np.ndarray, path) -> None:
    """Binary dataset: magic, version, block size, count, then the records of
    `pairs`, a 1-D array of `pair_dtype(block size)` (or a list of its
    records) whose every mv is finite."""
    pairs = np.asarray(pairs)
    # the one block size whose record is this long; the dtype must then be its record
    block_size = math.isqrt(max(pairs.dtype.itemsize - 16, 0) // 2)
    if pairs.ndim != 1 or block_size < 1 or pairs.dtype != pair_dtype(block_size):
        raise ShapeMismatchError(
            f"pairs must be a 1-D array of flow.pair_dtype(block size), "
            f"got {pairs.shape} {pairs.dtype}")
    _check_mvs(pairs, ConfigError)
    header = struct.pack("<IIQ", DATASET_VERSION, block_size, len(pairs))
    atomic_write_bytes(path, DATASET_MAGIC + header + pairs.tobytes())


def read_dataset(path) -> np.ndarray:
    """The pairs of a dataset file: a read-only 1-D array of `pair_dtype(block
    size)` over the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic {data[:4]!r}")
    if len(data) < 20:
        raise FormatError("truncated dataset header")
    version, block_size, count = struct.unpack_from("<IIQ", data, 4)
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    if not 1 <= block_size <= MAX_BLOCK_SIZE:
        raise FormatError(f"dataset block size is {block_size}; it must be in [1, {MAX_BLOCK_SIZE}]")
    record = pair_dtype(block_size)
    expected = 20 + count * record.itemsize
    if len(data) != expected:
        raise FormatError(
            f"dataset payload is {len(data)} bytes but the count field "
            f"({count} pairs of {record.itemsize} bytes) implies {expected}"
        )
    pairs = np.frombuffer(data, record, count, 20)
    _check_mvs(pairs, FormatError)
    return pairs
