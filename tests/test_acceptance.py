"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from deepref.cli import main as cli_main
from deepref.codec import SearchConfig, encode_sequence, generated, previous, rd_sweep
from deepref.fileio import read_csv
from deepref.flow import ExtractionConfig, extract_pairs, lucas_kanade_mv, round_mv_topleft
from deepref.generator import (
    BRANCH_RECEPTIVE_FIELDS,
    ModelConfig,
    block_forward,
    build_network,
    generate_reference,
    net_backward,
    net_forward,
)
from deepref.interp import LUMA_FILTERS, MotionVectorQ, interpolate_block
from deepref.metrics import RDPoint, bd_rate, psnr, ssim
from deepref.nn import ConvParams, conv2d_backward, conv2d_forward, relu, relu_backward, split_channels
from deepref.synthetic import SinusoidTexture, acceptance_texture, pan_zoom_sequence
from deepref.training import TrainConfig, train
from deepref.video_io import write_y4m

from conftest import branch_layers, central_diff_grad, central_diff_grad_at, max_rel_err

TINY = ModelConfig(head_channels=4, branch_reduce_channels=3, branch_out_channels=3,
                   trunk_channels=4, k=0.5, seed=3, dtype="float64")
SMALL = ModelConfig(head_channels=8, branch_reduce_channels=4, branch_out_channels=4,
                    trunk_channels=8, k=0.5, seed=0, dtype="float32")


@contextmanager
def criterion(number, title, budget_s):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"\n[acceptance] criterion {number:2d} ({title}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number:2d} ({title}): PASS in {elapsed:.1f}s "
          f"(budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def smooth_noise(seed, h, w, passes=3, radius=2):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0, 255, (h, w))
    kernel = np.ones(2 * radius + 1) / (2 * radius + 1)
    for _ in range(passes):
        img = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, img)
        img = np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="same"), 0, img)
    img = (img - img.min()) / (img.max() - img.min()) * 255
    return np.rint(img).astype(np.uint8)


def bilinear_shift(img, sx, sy):
    h, w = img.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys = np.clip(ys + sy, 0, h - 1)
    xs = np.clip(xs + sx, 0, w - 1)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy, fx = ys - y0, xs - x0
    f = img.astype(np.float64)
    top = f[y0, x0] * (1 - fx) + f[y0, x1] * fx
    bot = f[y1, x0] * (1 - fx) + f[y1, x1] * fx
    return np.rint(np.clip(top * (1 - fy) + bot * fy, 0, 255)).astype(np.uint8)


def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite", 60):
        rng = np.random.default_rng(42)
        signed = lambda shape: rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)

        # per-layer checks, rel. error < 1e-6 in 64-bit
        for kernel, dilation in [(1, 1), (3, 1), (3, 3), (3, 5)]:
            x = signed((1, 2, 7, 7))
            p = ConvParams(signed((2, 2, kernel, kernel)), signed(2), dilation=dilation)
            proj = rng.standard_normal((1, 2, 7, 7))
            loss = lambda: float(np.sum(conv2d_forward(x, p) * proj))
            gx, gw, gb = conv2d_backward(x, p, proj)
            assert max_rel_err(gx, central_diff_grad(loss, x)) < 1e-6
            assert max_rel_err(gw, central_diff_grad(loss, p.weights)) < 1e-6
            assert max_rel_err(gb, central_diff_grad(loss, p.bias)) < 1e-6

        x = signed((1, 2, 6, 6))
        p = ConvParams(signed((2, 2, 3, 3)), signed(2))
        proj = rng.standard_normal((1, 2, 6, 6))
        loss = lambda: float(np.sum(relu(conv2d_forward(x, p)) * proj))
        z = conv2d_forward(x, p)
        gx, _, _ = conv2d_backward(x, p, relu_backward(z, proj))
        assert max_rel_err(gx, central_diff_grad(loss, x)) < 1e-6

        parts = [rng.uniform(0.1, 1.0, (1, 2, 5, 5)) for _ in range(3)]
        proj = rng.standard_normal((1, 6, 5, 5))
        loss = lambda: float(np.sum(np.concatenate(parts, axis=1) * proj))
        for part, g in zip(parts, split_channels(proj, [2, 2, 2])):
            assert max_rel_err(g, central_diff_grad(loss, part)) < 1e-6

        # full tiny-config network end-to-end, rel. error < 1e-5
        net = build_network(TINY)
        x = rng.uniform(0.1, 1.0, (1, 1, 8, 8))
        proj = rng.standard_normal((1, 1, 8, 8))
        loss = lambda: float(np.sum(net_forward(net, x) * proj))
        cache = {}
        net_forward(net, x, cache)
        grads, grad_in = net_backward(net, cache, proj)
        checked = 0
        for name, p in net.layers.items():
            gw, _ = grads[name]
            idx = rng.choice(p.weights.size, size=min(4, p.weights.size), replace=False)
            fd = central_diff_grad_at(loss, p.weights, idx)
            assert max_rel_err(gw.reshape(-1)[idx], fd, floor=1e-6) < 1e-5, name
            checked += len(idx)
        assert checked >= 100
        idx = rng.choice(x.size, size=16, replace=False)
        assert max_rel_err(grad_in.reshape(-1)[idx],
                           central_diff_grad_at(loss, x, idx), floor=1e-6) < 1e-5


def test_criterion_02_receptive_field_suite():
    with criterion(2, "receptive fields 3/9/15", 10):
        net = build_network(TINY)
        for p in net.layers.values():
            p.weights = np.abs(p.weights)
        assert BRANCH_RECEPTIVE_FIELDS == (3, 9, 15)
        for branch, expected in zip((1, 2, 3), (3, 9, 15)):
            x = np.zeros((1, 4, 33, 33))
            x[0, 0, 16, 16] = 1.0
            for layer in branch_layers(net, 1, branch):
                x = relu(conv2d_forward(x, layer))
            out = x.sum(axis=(0, 1))
            ys, xs = np.nonzero(out)
            assert (ys.max() - ys.min() + 1, xs.max() - xs.min() + 1) == (expected, expected)

        net = build_network(TINY)
        base = np.full((1, 4, 33, 33), 0.3)
        bumped = base.copy()
        bumped[0, 2, 16, 16] += 0.5
        diff = np.abs(block_forward(net, 0, bumped) - block_forward(net, 0, base)).sum(axis=(0, 1))
        ys, xs = np.nonzero(diff)
        assert ys.min() >= 9 and ys.max() <= 23 and xs.min() >= 9 and xs.max() <= 23


def test_criterion_03_fusion_degeneracy():
    with criterion(3, "k=0 identity-skip degeneracy", 10):
        rng = np.random.default_rng(5)
        net = build_network(replace(TINY, k=0.0))
        skip = net.layers["block1.skip"]
        eye = np.zeros_like(skip.weights)
        for c in range(eye.shape[0]):
            eye[c, c, 0, 0] = 1.0
        skip.weights = eye
        skip.bias = np.zeros_like(skip.bias)
        x = rng.uniform(0.0, 1.0, (2, 4, 11, 13))
        out = block_forward(net, 0, x)
        np.testing.assert_array_equal(out, x)  # bit-exact


def test_criterion_04_interpolation_suite():
    with criterion(4, "fractional interpolation", 10):
        rng = np.random.default_rng(7)
        for taps in (LUMA_FILTERS.half, LUMA_FILTERS.quarter, LUMA_FILTERS.three_quarter):
            assert sum(taps) == 64

        ref = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        out = interpolate_block(ref, (8, 8), (16, 16), MotionVectorQ(0, 0))
        np.testing.assert_array_equal(out, ref[8:24, 8:24])
        out = interpolate_block(ref, (8, 8), (8, 8), MotionVectorQ(-8, 12))
        np.testing.assert_array_equal(out, ref[11:19, 6:14])

        const = np.full((24, 24), 100, dtype=np.uint8)
        for fx in range(4):
            for fy in range(4):
                out = interpolate_block(const, (8, 8), (8, 8), MotionVectorQ(fx, fy))
                assert np.all(out == 100), (fx, fy)

        ramp = np.tile(np.arange(0, 64, 2, dtype=np.uint8), (8, 1))
        out = interpolate_block(ramp, (8, 2), (8, 4), MotionVectorQ(2, 0))
        np.testing.assert_array_equal(out, np.tile(2 * np.arange(8, 16) + 1, (4, 1)))


def test_criterion_05_flow_suite():
    with criterion(5, "Lucas-Kanade shift recovery", 30):
        for seed in (0, 1):
            ref = smooth_noise(seed, 96, 96)
            for sx, sy in [(-4, 0), (4, 4), (0, -4), (3, -2), (2, 1), (-4, 4)]:
                cur = np.roll(np.roll(ref, -sy, axis=0), -sx, axis=1)
                (vx, vy), degenerate = lucas_kanade_mv(ref, cur, (32, 32), 32)
                assert not degenerate
                assert max(abs(vx - sx), abs(vy - sy)) < 0.1, (seed, sx, sy)
            for sx, sy in [(0.25, 0.0), (0.75, -0.5), (2.25, 1.75), (-3.25, 0.25)]:
                cur = bilinear_shift(ref, sx, sy)
                (vx, vy), _ = lucas_kanade_mv(ref, cur, (32, 32), 32)
                assert max(abs(vx - sx), abs(vy - sy)) < 0.25, (seed, sx, sy)
        flat = np.full((64, 64), 77, dtype=np.uint8)
        mv, degenerate = lucas_kanade_mv(flat, flat, (16, 16), 32)
        assert degenerate and mv == (0.0, 0.0)


def test_criterion_06_extraction_suite():
    with criterion(6, "pair extraction + top-left rule", 10):
        frame = smooth_noise(3, 96, 96)
        pairs = extract_pairs(frame, frame, ExtractionConfig(block_size=32))
        assert len(pairs) == 9
        np.testing.assert_array_equal(pairs["x"], pairs["y"])
        assert round_mv_topleft((1.25, -0.5)) == (1, -1)
        assert round_mv_topleft((3.0, 2.0)) == (3, 2)
        assert round_mv_topleft((-0.25, 0.75)) == (-1, 0)


def test_criterion_07_training_suite():
    with criterion(7, "training: overfit, determinism, trend", 300):
        tex = SinusoidTexture.random(7, min_freq=0.05, max_freq=0.2)
        ref = tex.render(64, 64)
        cur = tex.render(64, 64, offset=(0.55, 0.35))
        pair = extract_pairs(ref, cur, ExtractionConfig(block_size=16, stride=16))[5]

        # single repeated batch (batch of one pair), tiny config, 200 epochs
        tiny32 = ModelConfig(**{**SMALL.__dict__, "dtype": "float32"})
        overfit_cfg = TrainConfig(lr0=1.0, epochs=200, batch_size=1,
                                  decay_interval_epochs=10**6, shuffle_seed=0)
        _, report = train(build_network(tiny32), [pair] * 8, overfit_cfg)
        assert report.final_loss < 1e-3, report.final_loss

        # fixed-seed bit-reproducibility
        frames = pan_zoom_sequence(64, 64, 12, velocity=(0.55, 0.35),
                                   zoom_rate=0.001, seed=9)
        ex = ExtractionConfig(block_size=16, stride=8)
        pairs = []
        for a, b in zip(frames, frames[1:]):
            pairs.extend(extract_pairs(a, b, ex))
        pairs = pairs[:500]
        assert len(pairs) == 500
        short = TrainConfig(lr0=1.0, epochs=2, batch_size=32, shuffle_seed=4)
        net_a, rep_a = train(build_network(SMALL), pairs, short)
        net_b, rep_b = train(build_network(SMALL), pairs, short)
        assert [e.loss for e in rep_a.epochs] == [e.loss for e in rep_b.epochs]
        for (name, pa), (_, pb) in zip(net_a.layers.items(), net_b.layers.items()):
            np.testing.assert_array_equal(pa.weights, pb.weights, err_msg=name)

        # loss trend on the 500-pair dataset
        trend_cfg = TrainConfig(lr0=1.0, epochs=25, batch_size=32,
                                decay_interval_epochs=20, decay_factor=0.5,
                                shuffle_seed=0)
        _, report = train(build_network(SMALL), pairs, trend_cfg)
        losses = [e.loss for e in report.epochs]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


def _criterion_9_setup():
    return pan_zoom_sequence(64, 64, 30, velocity=(0.875, 0.625), zoom_rate=0.0005,
                             texture=acceptance_texture(11))


def test_criterion_08_metrics_suite():
    with criterion(8, "PSNR/SSIM/BD-rate closed forms", 30):
        a = np.full((32, 32), 100, dtype=np.uint8)
        assert round(psnr(a, a + 1), 4) == 48.1308

        b = np.full((16, 16), 110, dtype=np.uint8)
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 110 + c1) / (100**2 + 110**2 + c1)
        got = ssim(np.full((16, 16), 100, dtype=np.uint8), b)
        assert got == pytest.approx(expected, rel=1e-9)
        assert round(got, 5) == 0.99548

        anchor = [RDPoint(1000.0, 30.0), RDPoint(2000.0, 33.5),
                  RDPoint(4000.0, 37.0), RDPoint(8000.0, 41.0)]
        assert bd_rate(anchor, anchor) == 0.0
        up = [RDPoint(b * 1.10, p) for b, p in anchor]
        down = [RDPoint(b * 0.90, p) for b, p in anchor]
        assert bd_rate(anchor, up) == pytest.approx(10.0, abs=1e-9)
        assert bd_rate(anchor, down) == pytest.approx(-10.0, abs=1e-9)
        other = [RDPoint(900.0, 29.5), RDPoint(2600.0, 34.0),
                 RDPoint(5200.0, 38.0), RDPoint(7000.0, 40.0)]
        ab, ba = bd_rate(anchor, other), bd_rate(other, anchor)
        assert (1 + ab / 100) * (1 + ba / 100) == pytest.approx(1.0, abs=1e-9)


def test_criterion_09_directional_end_to_end():
    with criterion(9, "directional reference gain + BD-rate", 600):
        frames = _criterion_9_setup()
        extraction = ExtractionConfig(block_size=16, stride=16)
        pairs = []
        for prev, cur in zip(frames[:20], frames[1:20]):
            pairs.extend(extract_pairs(prev, cur, extraction))

        train_cfg = TrainConfig(lr0=1.0, batch_size=8, epochs=150,
                                decay_interval_epochs=60, decay_factor=0.5,
                                shuffle_seed=0)
        net, report = train(build_network(SMALL), pairs, train_cfg)
        print(f"\n[acceptance]   criterion 9 detail: {len(pairs)} pairs, "
              f"final loss {report.final_loss:.6g}")

        search = SearchConfig(search_range=8, lambda_mv=4.0, block_size=16)
        recons = encode_sequence(frames, previous, search, 8).recons
        wins = 0
        for t in range(20, 30):
            picture = generate_reference(net, recons[t - 1])
            wins += psnr(picture, frames[t]) > psnr(recons[t - 1], frames[t])
        assert wins >= 7, f"generated reference won only {wins}/10 held-out frames"

        q_set = [8, 16, 32, 64]
        baseline = rd_sweep(frames, previous, search, q_set)
        with_net = rd_sweep(frames, partial(generated, net), search, q_set)
        for scheme, points in (("baseline", baseline), ("net", with_net)):
            for q, pt in zip(q_set, points):  # as the rows of `deepref sweep`'s RD CSV
                print(f"[acceptance]   {scheme},{q},{pt.bits},{pt.psnr}")
        bd = bd_rate(baseline, with_net)
        print(f"[acceptance]   criterion 9 detail: wins={wins}/10, BD-rate={bd:+.4f}%")
        assert bd < 0.0, f"BD-rate {bd:+.2f}% is not a bit saving"


def test_criterion_10_cli_smoke_chain(tmp_path, capsys):
    with criterion(10, "CLI smoke chain", 300):
        clip = tmp_path / "clip.y4m"
        write_y4m(pan_zoom_sequence(64, 64, 10, velocity=(0.55, 0.35),
                                    zoom_rate=0.001, seed=3), clip)
        dataset = tmp_path / "pairs.drpd"
        weights = tmp_path / "net.drpg"
        loss_csv = tmp_path / "loss.csv"
        rd_csv = tmp_path / "rd.csv"
        gen_dir = tmp_path / "gen"
        tiny_flags = ["--head-channels", "4", "--branch-reduce-channels", "3",
                      "--branch-out-channels", "3", "--trunk-channels", "4"]

        assert cli_main(["extract", "--input", str(clip), "--block-size", "16",
                         "--output", str(dataset)]) == 0
        assert cli_main(["train", "--dataset", str(dataset),
                         "--weights-out", str(weights), "--loss-csv", str(loss_csv),
                         "--epochs", "2", "--lr", "1.0", "--seed", "0",
                         *tiny_flags]) == 0
        assert cli_main(["infer", "--input", str(clip), "--weights", str(weights),
                         "--output-dir", str(gen_dir)]) == 0
        assert cli_main(["sweep", "--input", str(clip), "--weights", str(weights),
                         "--q-set", "8,16,32,64", "--search-range", "4",
                         "--block-size", "16", "--output", str(rd_csv)]) == 0
        assert cli_main(["bdrate", str(rd_csv)]) == 0

        assert dataset.exists() and weights.exists() and loss_csv.exists()
        assert len(list(gen_dir.glob("gen_f*.pgm"))) == 9
        header, rows = read_csv(rd_csv)
        assert len(rows) == 8
        out = capsys.readouterr().out
        assert "BD-rate" in out
