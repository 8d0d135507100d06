"""Training-pair extraction from consecutive frames.

Each tile of the current frame becomes a ground-truth block Y. An iterative
per-block Lucas-Kanade solve estimates its fractional motion into the
reference frame; the referenced fractional block is moved toward the top-left
to the nearest integer positions (componentwise floor) and that integer block
becomes the input X. Flat blocks where the structure tensor is degenerate
fall back to zero motion.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeMismatchError, check_int
from .fileio import atomic_write_bytes

DATASET_MAGIC = b"DRPD"
DATASET_VERSION = 1
DEGENERACY_THRESHOLD = 1e-3  # per-pixel floor on the structure tensor's min eigenvalue
INTEGER_SNAP = 0.02  # px; snap near-integer flow before the floor rule
LK_ITERATIONS = 5  # Lucas-Kanade updates per block, at most
LK_EPS = 0.01  # px; stop when |dv| drops below
MV_CLAMP = 8.0  # px per component


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


def _edge_gradients(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with edge replication, so border blocks work too."""
    padded = np.pad(frame, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    return gx, gy


def _bilinear(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear sampling with clamp addressing."""
    h, w = img.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _lk_block(ref, gx, gy, cur, origin, size):
    x0, y0 = origin
    w, h = size
    fh, fw = ref.shape
    if not (0 <= x0 and x0 + w <= fw and 0 <= y0 and y0 + h <= fh):
        raise ShapeMismatchError(f"block ({x0},{y0}) size {w}x{h} outside {fw}x{fh} frame")

    ix = gx[y0 : y0 + h, x0 : x0 + w]
    iy = gy[y0 : y0 + h, x0 : x0 + w]
    g11 = float(np.sum(ix * ix))
    g12 = float(np.sum(ix * iy))
    g22 = float(np.sum(iy * iy))
    half_trace = 0.5 * (g11 + g22)
    det = g11 * g22 - g12 * g12
    min_eig = half_trace - math.sqrt(max(half_trace * half_trace - det, 0.0))
    if min_eig < DEGENERACY_THRESHOLD * (w * h):
        return (0.0, 0.0), True

    target = cur[y0 : y0 + h, x0 : x0 + w]
    grid_y, grid_x = np.mgrid[y0 : y0 + h, x0 : x0 + w]
    grid_y = grid_y.astype(np.float64)
    grid_x = grid_x.astype(np.float64)
    vx = vy = 0.0
    for _ in range(LK_ITERATIONS):
        sy = grid_y + vy
        sx = grid_x + vx
        it = target - _bilinear(ref, sy, sx)
        ixw = _bilinear(gx, sy, sx)
        iyw = _bilinear(gy, sy, sx)
        g11 = float(np.sum(ixw * ixw))
        g12 = float(np.sum(ixw * iyw))
        g22 = float(np.sum(iyw * iyw))
        det = g11 * g22 - g12 * g12
        if det <= 1e-12 * (w * h) ** 2:
            break
        b1 = float(np.sum(ixw * it))
        b2 = float(np.sum(iyw * it))
        dvx = (g22 * b1 - g12 * b2) / det
        dvy = (g11 * b2 - g12 * b1) / det
        vx += dvx
        vy += dvy
        if math.hypot(dvx, dvy) < LK_EPS:
            break
    vx = min(max(vx, -MV_CLAMP), MV_CLAMP)
    vy = min(max(vy, -MV_CLAMP), MV_CLAMP)
    return (vx, vy), False


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
    gx, gy = _edge_gradients(ref)
    w, h = (size, size) if np.isscalar(size) else (int(size[0]), int(size[1]))
    return _lk_block(ref, gx, gy, cur, origin, (w, h))


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

    Tiles whose integer-aligned X window would leave the reference frame are
    dropped; degenerate tiles are kept with offset (0,0). Output order is
    raster-scan tile order.
    """
    ref = np.asarray(ref)
    cur = np.asarray(cur)
    if ref.shape != cur.shape:
        raise ShapeMismatchError(f"ref dims {ref.shape} != cur dims {cur.shape}")
    fh, fw = cur.shape
    bs = cfg.block_size
    stride = cfg.effective_stride

    ref_f = ref.astype(np.float64)
    cur_f = cur.astype(np.float64)
    gx, gy = _edge_gradients(ref_f)

    pairs: list[SamplePair] = []
    for by in range(0, fh - bs + 1, stride):
        for bx in range(0, fw - bs + 1, stride):
            mv, _ = _lk_block(ref_f, gx, gy, cur_f, (bx, by), (bs, bs))
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


def write_dataset(pairs: list[SamplePair], path, block_size: int | None = None) -> None:
    """Binary dataset: magic, version, block size, count, then per-pair records."""
    if pairs:
        block_size = pairs[0].x_block.shape[0]
        for i, pair in enumerate(pairs):
            for name, blk in (("X", pair.x_block), ("Y", pair.y_block)):
                if blk.shape != (block_size, block_size):
                    raise ShapeMismatchError(
                        f"pair {i}: {name} block shape {blk.shape} != "
                        f"({block_size},{block_size})"
                    )
    else:
        block_size = int(block_size or 0)
    buf = bytearray()
    buf += DATASET_MAGIC
    buf += struct.pack("<II", DATASET_VERSION, block_size)
    buf += struct.pack("<Q", len(pairs))
    for pair in pairs:
        buf += struct.pack("<II", int(pair.origin[0]), int(pair.origin[1]))
        buf += struct.pack("<ff", float(pair.mv[0]), float(pair.mv[1]))
        buf += pair.x_block.astype(np.uint8).tobytes()
        buf += pair.y_block.astype(np.uint8).tobytes()
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
        offset += 16
        n = block_size * block_size
        x_blk = np.frombuffer(data, np.uint8, n, offset).reshape(block_size, block_size)
        offset += n
        y_blk = np.frombuffer(data, np.uint8, n, offset).reshape(block_size, block_size)
        offset += n
        pairs.append(SamplePair(x_blk.copy(), y_blk.copy(), (ox, oy), (mvx, mvy)))
    return pairs
