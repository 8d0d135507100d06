"""Sequence ingestion: raw YUV 4:2:0 and YUV4MPEG2 (.y4m), luma plane only.
A sequence is a list of (H, W) uint8 luma planes in display order."""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, FormatError, check_plane
from .fileio import atomic_write_bytes

_Y4M_MAGIC = b"YUV4MPEG2"
_SUPPORTED_420 = {"420", "420jpeg", "420mpeg2", "420paldv"}
# the sequence formats `read_sequence` takes, by name
FORMATS = ("yuv", "y4m")


def read_sequence(path, fmt: str | None = None, width: int | None = None,
                  height: int | None = None) -> list[np.ndarray]:
    """Load the luma planes of a raw 4:2:0 file or a .y4m file."""
    if fmt is None:
        fmt = "y4m" if os.fspath(path).lower().endswith(".y4m") else "yuv"
    if fmt not in FORMATS:
        raise ConfigError(f"unknown sequence format {fmt!r}; use {' or '.join(map(repr, FORMATS))}")
    return _read_y4m(path) if fmt == "y4m" else _read_raw_yuv(path, width, height)


def _check_even_dims(width: int, height: int, path) -> None:
    if width % 2 or height % 2:
        raise FormatError(f"{path}: 4:2:0 requires even dims, got {width}x{height}")


def _read_raw_yuv(path, width, height) -> list[np.ndarray]:
    if not width or not height:
        raise ConfigError("raw .yuv input needs explicit width and height")
    if width < 1 or height < 1:
        raise ConfigError(f"raw .yuv width and height must be >= 1, got {width}x{height}")
    _check_even_dims(width, height, path)
    with open(path, "rb") as fh:
        data = fh.read()
    frame_size = width * height * 3 // 2
    if len(data) % frame_size:
        good = len(data) - len(data) % frame_size
        raise FormatError(
            f"{path}: length {len(data)} is not a multiple of the {frame_size}-byte "
            f"4:2:0 frame; trailing partial frame starts at byte offset {good}"
        )
    count = len(data) // frame_size
    if count == 0:
        raise FormatError(f"{path}: no complete frames")
    luma = width * height
    return [
        np.frombuffer(data, np.uint8, luma, offset=i * frame_size)
        .reshape(height, width)
        .copy()
        for i in range(count)
    ]


def _header_dim(value: str, tag: str, path) -> int:
    try:
        dim = int(value)
    except ValueError as exc:
        raise FormatError(f"{path}: Y4M {tag} field {value!r} is not an integer") from exc
    if dim < 1:
        raise FormatError(f"{path}: Y4M {tag} field {value!r} must be >= 1")
    return dim


def _read_y4m(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    newline = data.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing Y4M header line")
    fields = data[:newline].split(b" ")
    if fields[0] != _Y4M_MAGIC:
        raise FormatError(f"{path}: bad Y4M magic {fields[0]!r}")
    width = height = None
    colorspace = "420"
    for token in fields[1:]:
        if not token:
            continue
        tag, value = chr(token[0]), token[1:].decode("ascii", "replace")
        if tag == "W":
            width = _header_dim(value, tag, path)
        elif tag == "H":
            height = _header_dim(value, tag, path)
        elif tag == "C":
            colorspace = value
        # F (rate), I (interlacing), A (aspect), X (extensions) are ignored
    if not width or not height:
        raise FormatError(f"{path}: Y4M header lacks W or H")
    if colorspace not in _SUPPORTED_420:
        raise FormatError(f"{path}: unsupported Y4M colorspace C{colorspace}; need 4:2:0")
    _check_even_dims(width, height, path)

    luma = width * height
    frame_size = luma * 3 // 2
    frames = []
    pos = newline + 1
    while pos < len(data):
        line_end = data.find(b"\n", pos)
        if line_end < 0 or not data[pos:line_end].startswith(b"FRAME"):
            raise FormatError(f"{path}: expected FRAME header at byte offset {pos}")
        pos = line_end + 1
        if pos + frame_size > len(data):
            raise FormatError(
                f"{path}: truncated frame payload at byte offset {pos} "
                f"(need {frame_size} bytes, have {len(data) - pos})"
            )
        frames.append(np.frombuffer(data, np.uint8, luma, offset=pos).reshape(height, width).copy())
        pos += frame_size
    if not frames:
        raise FormatError(f"{path}: no frames after Y4M header")
    return frames


def write_y4m(frames, path) -> None:
    """8-bit luma planes (`check_plane`) as 25 fps C420 Y4M, mid-gray chroma."""
    frames = [check_plane(frame, f"frame {i}") for i, frame in enumerate(frames)]
    if not frames:
        raise ConfigError("write_y4m needs at least one frame")
    height, width = frames[0].shape
    _check_even_dims(width, height, path)
    chroma = np.full((height // 2, width // 2), 128, dtype=np.uint8).tobytes()
    out = bytearray()
    out += f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 C420\n".encode("ascii")
    for frame in frames:
        if frame.shape != (height, width):
            raise FormatError(f"frame shape {frame.shape} != first frame {(height, width)}")
        out += b"FRAME\n" + frame.tobytes() + chroma + chroma
    atomic_write_bytes(path, bytes(out))
