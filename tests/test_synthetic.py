import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deepref.synthetic import SinusoidTexture, pan_zoom_sequence

MAKE_DEMO_CLIP = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_clip.py"


def test_frames_are_8bit_and_deterministic():
    a = pan_zoom_sequence(32, 24, 3, velocity=(0.5, 0.25), seed=5)
    b = pan_zoom_sequence(32, 24, 3, velocity=(0.5, 0.25), seed=5)
    for fa, fb in zip(a, b):
        assert fa.dtype == np.uint8 and fa.shape == (24, 32)
        np.testing.assert_array_equal(fa, fb)


def test_integer_pan_matches_rolled_frame_interior():
    frames = pan_zoom_sequence(48, 48, 2, velocity=(3.0, 1.0), seed=2)
    # frame1(x) == frame0(x + v) away from the borders
    rolled = np.roll(np.roll(frames[0], -1, axis=0), -3, axis=1)
    np.testing.assert_array_equal(frames[1][4:-4, 4:-4], rolled[4:-4, 4:-4])


def test_texture_has_contrast():
    frame = SinusoidTexture.random(0).render(64, 64)
    assert frame.std() > 15


def test_zoom_changes_frames():
    frames = pan_zoom_sequence(32, 32, 3, velocity=(0.0, 0.0), zoom_rate=0.01, seed=3)
    assert not np.array_equal(frames[0], frames[2])


def test_sample_at_arbitrary_coordinates():
    tex = SinusoidTexture.random(1)
    xs = np.array([0.0, 1.5, 2.25])
    ys = np.array([0.5, 0.5, 0.5])
    vals = tex.sample(xs, ys)
    assert vals.shape == (3,)
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("flags", [
    ["--size", "abc"], ["--size", "0x0"], ["--size", "33x32"], ["--velocity", "1"],
    ["--velocity", "nan,0"], ["--zoom", "nan"], ["--frames", "0"], ["--seed", "-1"],
])
def test_make_demo_clip_refuses_a_malformed_value(tmp_path, flags):
    out = tmp_path / "clip.y4m"
    proc = subprocess.run([sys.executable, str(MAKE_DEMO_CLIP), str(out), "--frames", "2", *flags],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("error:") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
