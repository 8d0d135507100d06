"""Exception types shared across the package, the two checks every numeric
config value goes through, and the checks of an 8-bit picture and of a block
in a picture."""

import math
import numbers
import sys

import numpy as np


class DeepRefError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(DeepRefError, ValueError):
    """An array has the wrong shape; the message names the offending axis."""


class NonFiniteError(DeepRefError, ValueError):
    """A NaN or Inf was found where only finite values are allowed."""


class FormatError(DeepRefError, ValueError):
    """A file (weights, dataset, sequence, RD curve) failed to parse."""


class ConfigError(DeepRefError, ValueError):
    """A configuration value or run-config document is invalid."""


def check_int(name: str, value, low: int, high: int | None = 2**31 - 1) -> None:
    """Raise ConfigError unless `value` is an integer in [low, high], or at
    least `low` when `high` is None. A bool is not an integer here: JSON
    ``true`` is no count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")


def check_real(name: str, value, low: float, high: float = math.inf, open_low: bool = False) -> None:
    """Raise ConfigError unless `value` is a finite real number in [low, high],
    or in (low, high] when `open_low`; a low of -inf bounds nothing. A bool is
    refused."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            # math.isfinite overflows on an int no float holds
            or not (abs(value) <= sys.float_info.max if isinstance(value, numbers.Integral)
                    else math.isfinite(value))
            or value > high
            or (value <= low if open_low else value < low)):
        bound = ("" if low == -math.inf and high == math.inf
                 else f" {'>' if open_low else '>='} {low}" if high == math.inf
                 else f" in {'(' if open_low else '['}{low}, {high}]")
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")


def check_plane(frame, what: str, min_side: int = 1) -> np.ndarray:
    """`frame` as a 2-D uint8 array with both sides at least `min_side`; for
    anything else, ShapeMismatchError naming `what`, the shape and the dtype."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.dtype != np.uint8 or min(frame.shape) < min_side:
        raise ShapeMismatchError(
            f"{what} must be a 2-D uint8 array of at least {min_side}x{min_side} samples, "
            f"got {frame.shape} {frame.dtype}")
    return frame


def check_block(frame: np.ndarray, origin, size) -> tuple[int, int, int, int]:
    """The (x0, y0, w, h) of a block at `origin` (x0, y0) of `size`, one side
    or (w, h), as ints: ConfigError unless each coordinate is an integer and
    each side an integer >= 1, ShapeMismatchError unless the block lies in
    `frame`."""
    (x0, y0), (fh, fw) = origin, frame.shape
    for name, value in (("x", x0), ("y", y0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"block origin {name} must be an integer, got {value!r}")
    w, h = (size, size) if np.isscalar(size) else size
    check_int("block width", w, 1, None)
    check_int("block height", h, 1, None)
    x0, y0, w, h = int(x0), int(y0), int(w), int(h)  # no numpy integer wraps in the sums
    if not (0 <= x0 and x0 + w <= fw and 0 <= y0 and y0 + h <= fh):
        raise ShapeMismatchError(f"block ({x0},{y0}) size {w}x{h} outside {fw}x{fh} frame")
    return x0, y0, w, h
