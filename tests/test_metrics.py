import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepref.errors import ConfigError, ShapeMismatchError
from deepref.metrics import RDPoint, bd_rate, psnr, ssim


class TestPsnr:
    def test_identical_planes_report_infinity(self, rng):
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert psnr(a, a) == math.inf

    def test_mse_one_closed_form(self):
        a = np.full((32, 32), 100, dtype=np.uint8)
        b = np.full((32, 32), 101, dtype=np.uint8)
        expected = 10.0 * math.log10(255.0**2)  # = 48.1308 at 4 d.p.
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)
        assert round(psnr(a, b), 4) == 48.1308

    def test_full_range_error_is_zero_db(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.full((8, 8), 255, dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_decreases_with_noise_amplitude(self):
        base = np.full((64, 64), 128, dtype=np.int32)
        values = []
        for amp in (2, 8, 24, 60):
            scores = []
            for seed in range(5):
                noise = np.random.default_rng(seed).integers(-amp, amp + 1, base.shape)
                scores.append(psnr(base, np.clip(base + noise, 0, 255)))
            values.append(np.mean(scores))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSsim:
    def test_identical_planes_score_exactly_one(self, rng):
        a = rng.integers(0, 256, (24, 24)).astype(np.uint8)
        assert ssim(a, a) == 1.0

    def test_symmetry(self, rng):
        a = rng.integers(0, 256, (20, 28)).astype(np.uint8)
        b = rng.integers(0, 256, (20, 28)).astype(np.uint8)
        assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)

    def test_constant_planes_closed_form(self):
        # only the luminance term differs from 1
        a = np.full((16, 16), 100, dtype=np.uint8)
        b = np.full((16, 16), 110, dtype=np.uint8)
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 110 + c1) / (100**2 + 110**2 + c1)
        assert ssim(a, b) == pytest.approx(expected, rel=1e-9)
        assert round(ssim(a, b), 5) == 0.99548

    def test_matches_skimage_reference(self, rng):
        skimage = pytest.importorskip("skimage.metrics")
        a = rng.integers(0, 256, (40, 52)).astype(np.uint8)
        b = np.clip(a.astype(np.int32)
                    + rng.integers(-25, 26, a.shape), 0, 255).astype(np.uint8)
        want = skimage.structural_similarity(
            a, b, win_size=11, gaussian_weights=True, sigma=1.5,
            use_sample_covariance=False, data_range=255,
        )
        assert ssim(a, b) == pytest.approx(want, rel=1e-9)

    def test_small_frames_rejected(self):
        with pytest.raises(ShapeMismatchError, match="11"):
            ssim(np.zeros((10, 32)), np.zeros((10, 32)))

    def test_range(self, rng):
        a = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        assert -1.0 <= ssim(a, 255 - a) <= 1.0


def make_curve(bits, quality):
    return [RDPoint(float(b), float(p)) for b, p in zip(bits, quality)]


ANCHOR = make_curve([1000, 2000, 4000, 8000], [30.0, 33.5, 37.0, 41.0])


class TestBdRate:
    def test_identical_curves_give_exactly_zero(self):
        assert bd_rate(ANCHOR, ANCHOR) == 0.0

    def test_ten_percent_rate_offset(self):
        up = make_curve([b * 1.10 for b, _ in ANCHOR], [p for _, p in ANCHOR])
        down = make_curve([b * 0.90 for b, _ in ANCHOR], [p for _, p in ANCHOR])
        assert bd_rate(ANCHOR, up) == pytest.approx(10.0, abs=1e-9)
        assert bd_rate(ANCHOR, down) == pytest.approx(-10.0, abs=1e-9)

    def test_wrong_point_count_rejected(self):
        with pytest.raises(ConfigError, match="exactly 4"):
            bd_rate(ANCHOR[:3], ANCHOR)

    def test_non_monotone_curve_rejected(self):
        bad = make_curve([1000, 2000, 4000, 8000], [30.0, 29.0, 37.0, 41.0])
        with pytest.raises(ConfigError, match="monotone"):
            bd_rate(bad, ANCHOR)

    def test_duplicate_bits_rejected(self):
        bad = make_curve([1000, 1000, 4000, 8000], [30.0, 33.0, 37.0, 41.0])
        with pytest.raises(ConfigError, match="duplicate"):
            bd_rate(bad, ANCHOR)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["bits", "psnr"])
    def test_non_finite_point_rejected(self, field, value):
        # checked before the sort: inf bits would give a nan BD-rate, nan bits
        # a misleading "not monotone" error
        bad = list(ANCHOR)
        bad[2] = bad[2]._replace(**{field: value})
        for anchor, test in ((bad, ANCHOR), (ANCHOR, bad)):
            with pytest.raises(ConfigError, match="non-finite"):
                bd_rate(anchor, test)

    def test_disjoint_psnr_ranges_rejected(self):
        high = make_curve([1000, 2000, 4000, 8000], [50.0, 52.0, 54.0, 56.0])
        with pytest.raises(ConfigError, match="overlap"):
            bd_rate(ANCHOR, high)

    def test_sorting_is_input_order_independent(self):
        shuffled = [ANCHOR[2], ANCHOR[0], ANCHOR[3], ANCHOR[1]]
        up = make_curve([b * 1.10 for b, _ in ANCHOR], [p for _, p in ANCHOR])
        assert bd_rate(shuffled, up) == pytest.approx(10.0, abs=1e-9)


@st.composite
def rd_curves(draw):
    base_q = draw(st.floats(28.0, 36.0))
    gaps = [draw(st.floats(0.8, 4.0)) for _ in range(3)]
    quality = [base_q]
    for g in gaps:
        quality.append(quality[-1] + g)
    base_b = draw(st.floats(500.0, 5000.0))
    ratios = [draw(st.floats(1.3, 3.0)) for _ in range(3)]
    bits = [base_b]
    for r in ratios:
        bits.append(bits[-1] * r)
    return make_curve(bits, quality)


@given(rd_curves(), rd_curves())
@settings(max_examples=40, deadline=None)
def test_bd_rate_log_domain_antisymmetry(curve_a, curve_b):
    lo = max(min(p for _, p in curve_a), min(p for _, p in curve_b))
    hi = min(max(p for _, p in curve_a), max(p for _, p in curve_b))
    if hi <= lo:
        return
    ab = bd_rate(curve_a, curve_b)
    ba = bd_rate(curve_b, curve_a)
    assert (1 + ab / 100.0) * (1 + ba / 100.0) == pytest.approx(1.0, abs=1e-9)


@given(rd_curves(), rd_curves(), st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None)
def test_bd_rate_invariant_to_common_bit_scaling(curve_a, curve_b, scale):
    lo = max(min(p for _, p in curve_a), min(p for _, p in curve_b))
    hi = min(max(p for _, p in curve_a), max(p for _, p in curve_b))
    if hi <= lo:
        return
    plain = bd_rate(curve_a, curve_b)
    scaled = bd_rate(
        make_curve([b * scale for b, _ in curve_a], [p for _, p in curve_a]),
        make_curve([b * scale for b, _ in curve_b], [p for _, p in curve_b]),
    )
    assert scaled == pytest.approx(plain, abs=1e-9)
