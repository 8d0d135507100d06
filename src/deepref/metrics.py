"""Quality and rate metrics: PSNR, SSIM, and Bjontegaard delta rate.

BD-rate fits a cubic log10(bits) = p(psnr) through each four-point curve
(exact interpolation), integrates both fits over the overlapping PSNR range,
and converts the mean log-rate gap back to percent. Negative means the test
curve saves bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeMismatchError


class RDPoint(NamedTuple):
    bits: float  # proxy bits per frame
    psnr: float  # dB of reconstruction vs source


RD_CURVE_POINTS = 4


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE); identical inputs return +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"psnr dims {a.shape} != {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
_SSIM_L = 255.0


def _gaussian_1d() -> np.ndarray:
    xs = np.arange(_SSIM_WINDOW, dtype=np.float64) - (_SSIM_WINDOW - 1) / 2.0
    k = np.exp(-(xs**2) / (2.0 * _SSIM_SIGMA**2))
    return k / k.sum()


def _gauss_filter_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    rows = np.lib.stride_tricks.sliding_window_view(img, len(kernel), axis=0) @ kernel
    return np.lib.stride_tricks.sliding_window_view(rows, len(kernel), axis=1) @ kernel


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local SSIM, 11x11 Gaussian window sigma=1.5, K1=0.01 K2=0.03 L=255."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"ssim dims {a.shape} != {b.shape}")
    if min(a.shape) < _SSIM_WINDOW:
        raise ShapeMismatchError(
            f"ssim needs frames of at least {_SSIM_WINDOW}x{_SSIM_WINDOW}, got {a.shape}"
        )
    kernel = _gaussian_1d()
    mu_a = _gauss_filter_valid(a, kernel)
    mu_b = _gauss_filter_valid(b, kernel)
    var_a = _gauss_filter_valid(a * a, kernel) - mu_a * mu_a
    var_b = _gauss_filter_valid(b * b, kernel) - mu_b * mu_b
    cov = _gauss_filter_valid(a * b, kernel) - mu_a * mu_b
    c1 = (_SSIM_K1 * _SSIM_L) ** 2
    c2 = (_SSIM_K2 * _SSIM_L) ** 2
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def _prepare_curve(points, label: str) -> tuple[np.ndarray, np.ndarray]:
    points = [RDPoint(float(b), float(p)) for b, p in points]
    if len(points) != RD_CURVE_POINTS:
        raise ConfigError(
            f"{label} RD curve must have exactly {RD_CURVE_POINTS} points, got {len(points)}"
        )
    if not all(math.isfinite(v) for pt in points for v in pt):
        raise ConfigError(f"{label} RD curve has non-finite bits or PSNR")
    points.sort(key=lambda pt: pt.bits)
    bits = np.array([pt.bits for pt in points])
    quality = np.array([pt.psnr for pt in points])
    if np.any(bits <= 0):
        raise ConfigError(f"{label} RD curve has non-positive bits")
    if np.any(np.diff(bits) <= 0):
        raise ConfigError(f"{label} RD curve has duplicate bit values")
    if np.any(np.diff(quality) <= 0):
        raise ConfigError(f"{label} RD curve is not monotone: PSNR must rise with bits")
    return bits, quality


def bd_rate(anchor, test) -> float:
    """Average bitrate difference of `test` vs `anchor` in percent.

    Negative = bit saving. Curves are centered before the polynomial fit to
    keep the 4x4 Vandermonde system well conditioned.
    """
    bits_a, psnr_a = _prepare_curve(anchor, "anchor")
    bits_t, psnr_t = _prepare_curve(test, "test")
    lo = max(psnr_a.min(), psnr_t.min())
    hi = min(psnr_a.max(), psnr_t.max())
    if hi <= lo:
        raise ConfigError(
            f"PSNR ranges do not overlap: anchor [{psnr_a.min():.3f},{psnr_a.max():.3f}] "
            f"test [{psnr_t.min():.3f},{psnr_t.max():.3f}]"
        )
    center = (np.sum(psnr_a) + np.sum(psnr_t)) / (2 * RD_CURVE_POINTS)
    fit_a = np.polyfit(psnr_a - center, np.log10(bits_a), 3)
    fit_t = np.polyfit(psnr_t - center, np.log10(bits_t), 3)
    u0, u1 = lo - center, hi - center
    int_a = np.polyval(np.polyint(fit_a), u1) - np.polyval(np.polyint(fit_a), u0)
    int_t = np.polyval(np.polyint(fit_t), u1) - np.polyval(np.polyint(fit_t), u0)
    delta = (int_t - int_a) / (u1 - u0)
    return float((10.0**delta - 1.0) * 100.0)
