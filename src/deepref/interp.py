"""Quarter-pel fractional-sample interpolation with integer filter arithmetic.

Luma positions between integer samples are synthesized by separable filtering:
a symmetric 8-tap filter at half-sample offsets and an asymmetric 7-tap filter
at quarter-sample offsets (the 3/4 filter is the mirrored 1/4 filter); an
integer dimension takes its samples through the identity tap. One rule:
filter the columns, then the rows, each by its phase at full integer
precision, then round once by 6 bits per fractional dimension (add 2^(s-1),
shift right by s, s = 0, 6 or 12) and clip to 8 bits. Frame edges are handled
by sample replication. `interpolate_block` applies the rule to one block along
one path; `subpel_planes` applies it to a whole plane in one loop over the 16
phases, through three int32 work buffers.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError, check_block, check_int, check_plane


class MotionVectorQ(NamedTuple):
    """Motion vector in quarter-sample units."""

    x4: int
    y4: int


# Integer taps; each set sums to 64 = 2**_SHIFT, so DC is preserved. Tap k of
# ``half`` applies to the sample at offset k-3 (offsets -3..+4), ``quarter``
# to offsets -3..+3, and ``three_quarter`` to offsets -2..+4.
LUMA_FILTERS = namedtuple("LumaFilters", "half quarter three_quarter")(
    half=(-1, 4, -11, 40, 40, -11, 4, -1),
    quarter=(-1, 4, -10, 58, 17, -5, 1),
    three_quarter=(1, -5, 17, 58, -10, 4, -1),
)
_SHIFT = 6
# quarter-pel phase 0..3 -> (taps, offset of the first tap); phase 0 takes the
# integer samples
_PHASES = (
    ((1,), 0),
    (LUMA_FILTERS.quarter, -3),
    (LUMA_FILTERS.half, -3),
    (LUMA_FILTERS.three_quarter, -2),
)

# widest support over all phases: 3 samples left/above, 4 right/below
_MARGIN_LO = 3
_MARGIN_HI = 4


def gather_block(ref: np.ndarray, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Copy a block with clamp (edge-replicating) addressing."""
    rows = np.clip(np.arange(y0, y0 + h), 0, ref.shape[0] - 1)
    cols = np.clip(np.arange(x0, x0 + w), 0, ref.shape[1] - 1)
    return ref[rows[:, None], cols[None, :]]


def interpolate_block(
    ref: np.ndarray,
    origin: tuple[int, int],
    size,
    mv: MotionVectorQ,
) -> np.ndarray:
    """Motion-compensated prediction block for a quarter-pel motion vector.

    Sample (x, y) of the result is the 8-bit reference (`check_plane`) sampled
    at (origin + (x, y) + mv/4), clamped to [0, 255]. This is the per-block
    reference of the rule `subpel_planes` applies to whole planes.
    """
    ref = check_plane(ref, "reference")
    x0, y0, w, h = check_block(ref, origin, size)
    fx, fy = mv.x4 & 3, mv.y4 & 3
    acc = gather_block(
        ref, x0 + (mv.x4 >> 2) - _MARGIN_LO, y0 + (mv.y4 >> 2) - _MARGIN_LO,
        w + _MARGIN_LO + _MARGIN_HI, h + _MARGIN_LO + _MARGIN_HI,
    ).astype(np.int64)
    # the column pass, then the row pass: each filters the last axis by its
    # phase at full precision, then transposes the block so that the next pass
    # takes the other axis
    for frac, n in ((fx, w), (fy, h)):
        taps, start = _PHASES[frac]
        first = _MARGIN_LO + start
        acc = sum(t * acc[:, first + k : first + k + n] for k, t in enumerate(taps)).T
    s = _SHIFT * (bool(fx) + bool(fy))
    return np.clip((acc + ((1 << s) >> 1)) >> s, 0, 255).astype(np.uint8)


def subpel_planes(ref: np.ndarray, margin: int, out: np.ndarray | None = None) -> np.ndarray:
    """All 16 quarter-pel phases of an edge-padded 8-bit reference (`check_plane`)
    as one array: `out` if given (a uint8 array or view of the shape below), else a new one.

    ``planes[fy, fx]`` has shape (H + 2*margin, W + 2*margin), and sample
    (Y, X) of it is the reference sampled at (Y - margin + fy/4,
    X - margin + fx/4) with the arithmetic and edge replication of
    `interpolate_block`. The block `interpolate_block` returns at origin
    (x0, y0) for mv (x4, y4) is therefore the slice
    ``planes[y4 & 3, x4 & 3, margin + y0 + (y4 >> 2) :, margin + x0 + (x4 >> 2) :]``
    of its size, whenever the integer parts x4 >> 2 and y4 >> 2 lie in
    [-margin, margin].
    """
    ref = check_plane(ref, "reference")
    check_int("margin", margin, 0)
    m = margin
    fh, fw = ref.shape
    ph, pw = fh + 2 * m, fw + 2 * m
    # 8-bit samples times taps summed twice stay far inside int32
    src = np.pad(ref, ((m + _MARGIN_LO, m + _MARGIN_HI),) * 2, mode="edge").astype(np.int32)
    if out is None:
        planes = np.empty((4, 4, ph, pw), dtype=np.uint8)
    elif out.shape != (4, 4, ph, pw) or out.dtype != np.uint8:
        raise ShapeMismatchError(f"phase planes need a (4, 4, {ph}, {pw}) uint8 array, "
                                 f"got {out.shape} {out.dtype}")
    else:
        planes = out
    # the column pass, the row pass and one product scratch for both, each
    # allocated once; the row pass runs through transposed views, so that both
    # filter the last axis
    mid = np.empty((src.shape[0], pw), dtype=np.int32)
    acc = np.empty((ph, pw), dtype=np.int32)
    prod = np.empty_like(mid)
    for fx in range(4):
        _filter_into(mid, prod, src, fx)
        for fy in range(4):
            _filter_into(acc.T, prod[:ph].T, mid.T, fy)
            s = _SHIFT * (bool(fx) + bool(fy))
            acc += (1 << s) >> 1
            acc >>= s
            planes[fy, fx] = np.clip(acc, 0, 255, out=acc)
    return planes


def _filter_into(out: np.ndarray, prod: np.ndarray, src: np.ndarray, phase: int) -> np.ndarray:
    """out = the last axis of `src` filtered by quarter-pel `phase` at full
    precision, through the scratch `prod`: out[..., i] is the sum over k of
    taps[k] * src[..., i + _MARGIN_LO + start + k]."""
    taps, start = _PHASES[phase]
    c0, n = _MARGIN_LO + start, out.shape[-1]
    np.multiply(src[..., c0 : c0 + n], taps[0], out=out)
    for k, tap in enumerate(taps[1:], c0 + 1):
        out += np.multiply(src[..., k : k + n], tap, out=prod)
    return out
