"""Analytic test sequences: band-limited sinusoid textures that can be
sampled at any real coordinate, so panned/zoomed frames are rendered exactly
(no resampling error accumulates)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real


@dataclass(frozen=True)
class SinusoidTexture:
    """Sum of random plane waves around mid-gray (128)."""

    freqs: np.ndarray  # (n, 2): cycles per pixel along x and y
    phases: np.ndarray  # (n,)
    amps: np.ndarray  # (n,)

    @classmethod
    def random(
        cls,
        seed: int,
        n_waves: int = 24,
        min_freq: float = 0.015,
        max_freq: float = 0.08,
        contrast: float = 40.0,
    ) -> "SinusoidTexture":
        check_int("seed", seed, 0, None)
        check_int("n_waves", n_waves, 1)
        for name, value in (("min_freq", min_freq), ("max_freq", max_freq),
                            ("contrast", contrast)):
            check_real(name, value, 0)
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi, n_waves)
        mag = rng.uniform(min_freq, max_freq, n_waves)
        freqs = np.stack([mag * np.cos(angle), mag * np.sin(angle)], axis=1)
        phases = rng.uniform(0.0, 2.0 * math.pi, n_waves)
        amps = rng.uniform(0.5, 1.0, n_waves)
        amps *= contrast / math.sqrt(float(np.sum(amps**2)) / 2.0)
        return cls(freqs=freqs, phases=phases, amps=amps)

    def sample(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Texture value at arbitrary real coordinates."""
        acc = np.full(np.broadcast(xs, ys).shape, 128.0)
        for (fx, fy), phase, amp in zip(self.freqs, self.phases, self.amps):
            acc += amp * np.sin(2.0 * math.pi * (fx * xs + fy * ys) + phase)
        return acc

    def render(
        self,
        width: int,
        height: int,
        offset: tuple[float, float] = (0.0, 0.0),
        scale: float = 1.0,
    ) -> np.ndarray:
        """8-bit frame showing the texture at coordinates center + scale*(p-center) + offset."""
        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        sx = cx + scale * (xs - cx) + offset[0]
        sy = cy + scale * (ys - cy) + offset[1]
        return np.clip(np.rint(self.sample(sx, sy)), 0, 255).astype(np.uint8)


def acceptance_texture(seed: int) -> SinusoidTexture:
    """The texture of the acceptance clip and of `deepref make-clip`: 32 waves
    of 0.08-0.32 cycles/px at contrast 44."""
    return SinusoidTexture.random(seed, n_waves=32, min_freq=0.08, max_freq=0.32, contrast=44.0)


def pan_zoom_sequence(
    width: int,
    height: int,
    n_frames: int,
    velocity: tuple[float, float],
    zoom_rate: float = 0.0,
    seed: int = 0,
    texture: SinusoidTexture | None = None,
) -> list[np.ndarray]:
    """Frames where frame t shows the texture displaced by t*velocity and
    scaled by (1+zoom_rate)^t, i.e. frame_t(p) == frame_{t-1}(p + velocity)
    when zoom_rate is 0. Sizes and the frame count are at least 1, the
    velocity finite, zoom_rate finite and > -1, and every frame's texture
    phases finite (ConfigError otherwise)."""
    for name, value in (("width", width), ("height", height), ("n_frames", n_frames)):
        check_int(name, value, 1)
    vx, vy = velocity
    check_real("velocity x", vx, -math.inf)
    check_real("velocity y", vy, -math.inf)
    check_real("zoom_rate", zoom_rate, -1, open_low=True)
    tex = texture if texture is not None else SinusoidTexture.random(seed)
    # every sine's phase is at most 2*pi*(|fx| + |fy|) times `reach`, a bound on
    # the texture coordinates of every frame; past the float range a frame is NaN
    last = n_frames - 1
    try:
        scale = max(1.0, (1.0 + zoom_rate) ** last)
    except OverflowError:
        scale = math.inf
    reach = max(width, height) * (1.0 + scale) + last * max(abs(vx), abs(vy))
    if not math.isfinite(2.0 * math.pi * reach * float(np.abs(tex.freqs).sum(1).max())):
        raise ConfigError(f"velocity {tuple(velocity)} and zoom_rate {zoom_rate!r} take the "
                          f"texture phases of {n_frames} frames past the float range")
    return [
        tex.render(width, height, offset=(t * vx, t * vy), scale=(1.0 + zoom_rate) ** t)
        for t in range(n_frames)
    ]
