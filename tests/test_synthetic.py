import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from deepref.cli import main
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
from deepref.video_io import read_sequence

from test_acceptance import _criterion_9_setup

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
    ["--frames", "abc"],
    # finite motions that take the texture coordinates past the float range
    ["--velocity", "1e308,0"], ["--zoom", "1e308"],
])
def test_make_demo_clip_refuses_a_malformed_value(tmp_path, capsys, flags):
    out = tmp_path / "clip.y4m"
    assert main(["make-clip", str(out), "--frames", "2", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_default_clip_is_criterion_9s_and_the_benchmarks(tmp_path, capsys, monkeypatch):
    # the README's experiment chain reproduces criterion 9 from this clip, and
    # the benchmark times the same one; workloads.py is loaded, not changed
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    out = tmp_path / "c.y4m"
    assert main(["make-clip", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 30 frames of 64x64 -> {out}\n"
    frames = read_sequence(out)
    for want in (_criterion_9_setup(), workloads.clip(11, 64, 30)):
        assert len(frames) == len(want) == 30
        for got, expected in zip(frames, want):
            np.testing.assert_array_equal(got, expected)
