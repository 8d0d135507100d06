#!/usr/bin/env python3
"""Synthesize a panning/zooming textured test clip as .y4m.

Example:
    python3 scripts/make_demo_clip.py demo.y4m --frames 30 --size 64x64 \
        --velocity 0.875,0.625 --zoom 0.0005 --seed 11

A malformed value prints one `error: ...` line and exits with status 1.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deepref.errors import ConfigError, DeepRefError
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
from deepref.video_io import write_y4m


def _pair(text: str, sep: str, kind, flag: str, form: str):
    """The two `kind` values of `text` split at `sep`."""
    try:
        a, b = (kind(v) for v in text.split(sep))
    except ValueError as exc:
        raise ConfigError(f"{flag} must be {form}, got {text!r}") from exc
    return a, b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("output")
    ap.add_argument("--frames", type=int, default=30)
    ap.add_argument("--size", default="64x64", help="WxH")
    ap.add_argument("--velocity", default="0.875,0.625", help="px/frame, x,y")
    ap.add_argument("--zoom", type=float, default=0.0005, help="scale growth per frame")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--min-freq", type=float, default=0.08)
    ap.add_argument("--max-freq", type=float, default=0.32)
    ap.add_argument("--contrast", type=float, default=44.0)
    args = ap.parse_args()

    try:
        width, height = _pair(args.size.lower(), "x", int, "--size", "WxH integers")
        vx, vy = _pair(args.velocity, ",", float, "--velocity", "two numbers x,y")
        texture = SinusoidTexture.random(
            args.seed, n_waves=32, min_freq=args.min_freq, max_freq=args.max_freq,
            contrast=args.contrast,
        )
        frames = pan_zoom_sequence(width, height, args.frames, velocity=(vx, vy),
                                   zoom_rate=args.zoom, seed=args.seed, texture=texture)
        write_y4m(frames, args.output)
    except (DeepRefError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.frames} frames of {width}x{height} -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
