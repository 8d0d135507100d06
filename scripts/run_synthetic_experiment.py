#!/usr/bin/env python3
"""End-to-end experiment on a synthetic panning clip: extract flow pairs from
the first 20 frames, train the generator, then compare the codec proxy with
and without reference substitution (RD curves + BD-rate) and report how often
the generated reference beats the previous reconstruction on held-out frames.

Takes about 5-7 minutes at the default settings.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deepref.codec import SearchConfig, encode_sequence, rd_sweep
from deepref.flow import ExtractionConfig, extract_pairs
from deepref.generator import ModelConfig, build_network, generate_reference, save_weights
from deepref.metrics import bd_rate, psnr
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
from deepref.training import TrainConfig, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--train-frames", type=int, default=20)
    ap.add_argument("--frames", type=int, default=30)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out-dir", default="synthetic_experiment")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    texture = SinusoidTexture.random(args.seed, n_waves=32, min_freq=0.08,
                                     max_freq=0.32, contrast=44.0)
    frames = pan_zoom_sequence(64, 64, args.frames, velocity=(0.875, 0.625),
                               zoom_rate=0.0005, seed=args.seed, texture=texture)

    extraction = ExtractionConfig(block_size=16, stride=16)
    pairs = []
    for prev, cur in zip(frames[: args.train_frames], frames[1 : args.train_frames]):
        pairs.extend(extract_pairs(prev, cur, extraction))
    print(f"extracted {len(pairs)} training pairs")

    model = ModelConfig(head_channels=8, branch_reduce_channels=4,
                        branch_out_channels=4, trunk_channels=8, k=0.5,
                        seed=0, dtype="float32")
    train_cfg = TrainConfig(lr0=1.0, batch_size=8, epochs=args.epochs,
                            decay_interval_epochs=60, decay_factor=0.5, shuffle_seed=0)
    started = time.perf_counter()
    net, report = train(build_network(model), pairs, train_cfg)
    print(f"trained {args.epochs} epochs in {time.perf_counter() - started:.0f}s, "
          f"final loss {report.final_loss:.6g}")
    save_weights(net, out_dir / "generator.drpg")

    search = SearchConfig(search_range=8, lambda_mv=4.0, block_size=16)
    q_set = [8, 16, 32, 64]
    baseline = rd_sweep(frames, None, search, q_set)
    with_net = rd_sweep(frames, net, search, q_set)
    for label, points in (("baseline", baseline), ("net", with_net)):
        for q, pt in zip(q_set, points):
            print(f"  {label:9s} Q={q:3d}  {pt.bits:9.1f} bits/frame  {pt.psnr:6.3f} dB")
    bd = bd_rate(baseline, with_net)
    print(f"BD-rate (net vs baseline): {bd:+.2f}%")

    recons = encode_sequence(frames, None, search, 8).recons
    wins = 0
    holdout = range(args.train_frames, len(frames))
    for t in holdout:
        generated = generate_reference(net, recons[t - 1])
        wins += psnr(generated, frames[t]) > psnr(recons[t - 1], frames[t])
    print(f"generated reference beats previous reconstruction on "
          f"{wins}/{len(list(holdout))} held-out frames")


if __name__ == "__main__":
    main()
