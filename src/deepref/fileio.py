"""Atomic file writing plus the small image/table formats the pipeline emits:
binary PGM (P5) planes, which it only writes, and UTF-8 CSV tables, which it
writes and reads (RD curves for `bdrate`)."""

from __future__ import annotations

import csv
import io
import os
import tempfile

import numpy as np

from .errors import FormatError, check_plane


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file + rename so interrupted runs never leave a
    truncated file that parses as valid. The file gets the mode `open` would
    create it with (0o666 less the umask), not the temp file's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        umask = os.umask(0o077)  # no call reads it without setting it; 0o077 is the safe side
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_plane_pgm(plane: np.ndarray, path) -> None:
    """An 8-bit plane (`check_plane`) as binary PGM (P5), maxval 255."""
    plane = check_plane(plane, "PGM plane")
    h, w = plane.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + plane.tobytes())


def write_csv(rows, path, header: list[str]) -> None:
    """UTF-8 CSV with a header row; written atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty CSV, expected a header row")
    return rows[0], rows[1:]
