"""Command-line pipeline: extract -> train -> infer / encode / sweep ->
bdrate / metrics, plus feature-map dumps and the block-size study.

Every run with a fixed --seed is bit-reproducible on the same machine. All
file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import codec, flow, generator, metrics, training, video_io
from .config import RunConfig, load_run_config
from .errors import ConfigError, DeepRefError, FormatError
from .fileio import read_csv, write_csv, write_plane_pgm

RD_HEADER = ["scheme", "q", "bits_per_frame", "psnr_db"]
QUALITY_HEADER = ["frame_index", "psnr_db", "ssim"]
MV_HEADER = ["block_x", "block_y", "ref_idx", "mv_x_q4", "mv_y_q4", "sad"]


def _add_common(parser):
    parser.add_argument("--config", help="JSON run configuration; flags override it")
    parser.add_argument("--seed", type=int, help="seed for init and shuffling")


def _add_input(parser):
    parser.add_argument("--input", required=True, help="sequence path (.y4m or raw .yuv)")
    parser.add_argument("--format", choices=["yuv", "y4m"], help="override format detection")
    parser.add_argument("--width", type=int, help="raw .yuv width")
    parser.add_argument("--height", type=int, help="raw .yuv height")


def _add_model_flags(parser):
    parser.add_argument("--head-channels", type=int)
    parser.add_argument("--branch-reduce-channels", type=int)
    parser.add_argument("--branch-out-channels", type=int)
    parser.add_argument("--trunk-channels", type=int)
    parser.add_argument("--k", type=float, help="fusion proportionality factor in [0,1]")
    parser.add_argument("--dtype", choices=["float32", "float64"])


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--lr", type=float, help="learning-rate scale for Adadelta")
    parser.add_argument("--decay-interval", type=int, help="epochs between lr halvings")
    parser.add_argument("--decay-factor", type=float)


def _add_extract_flags(parser):
    parser.add_argument("--block-size", type=int)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--lk-iterations", type=int)
    parser.add_argument("--lk-eps", type=float)
    parser.add_argument("--mv-clamp", type=float)
    parser.add_argument("--drop-degenerate", action="store_true",
                        help="skip flat blocks instead of keeping them with zero motion")


def _add_search_flags(parser):
    parser.add_argument("--search-range", type=int)
    parser.add_argument("--lambda-mv", type=float)
    parser.add_argument("--block-size", type=int, dest="search_block_size")


def _override(cfg_obj, **updates):
    updates = {k: v for k, v in updates.items() if v is not None}
    return dataclasses.replace(cfg_obj, **updates) if updates else cfg_obj


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from exc


def _resolve(args) -> RunConfig:
    cfg = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    a = vars(args)

    if a.get("seed") is not None:
        cfg.model = dataclasses.replace(cfg.model, seed=a["seed"])
        cfg.train = dataclasses.replace(cfg.train, shuffle_seed=a["seed"])
    cfg.model = _override(
        cfg.model,
        head_channels=a.get("head_channels"),
        branch_reduce_channels=a.get("branch_reduce_channels"),
        branch_out_channels=a.get("branch_out_channels"),
        trunk_channels=a.get("trunk_channels"),
        k=a.get("k"),
        dtype=a.get("dtype"),
    )
    cfg.train = _override(
        cfg.train,
        epochs=a.get("epochs"),
        batch_size=a.get("batch_size"),
        lr0=a.get("lr"),
        decay_interval_epochs=a.get("decay_interval"),
        decay_factor=a.get("decay_factor"),
    )
    cfg.train.model = cfg.model
    cfg.extraction = _override(
        cfg.extraction,
        block_size=a.get("block_size"),
        stride=a.get("stride"),
        lk_iterations=a.get("lk_iterations"),
        lk_eps=a.get("lk_eps"),
        mv_clamp=a.get("mv_clamp"),
        keep_degenerate=False if a.get("drop_degenerate") else None,
    )
    cfg.search = _override(
        cfg.search,
        search_range=a.get("search_range"),
        lambda_mv=a.get("lambda_mv"),
        block_size=a.get("search_block_size"),
    )
    if a.get("input") is not None:
        cfg.input_path = a["input"]
    if a.get("format") is not None:
        cfg.input_format = a["format"]
    if a.get("width") is not None:
        cfg.width = a["width"]
    if a.get("height") is not None:
        cfg.height = a["height"]
    if a.get("q_set"):
        cfg.q_set = _int_list(a["q_set"], "--q-set")
    return cfg


def _read_frames(cfg: RunConfig):
    seq = video_io.read_sequence(cfg.input_path, cfg.input_format, cfg.width, cfg.height)
    return seq.frames


def cmd_extract(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    if len(frames) < 2:
        raise DeepRefError("extraction needs at least 2 frames")
    pairs = []
    for prev, cur in zip(frames, frames[1:]):
        pairs.extend(flow.extract_pairs(prev, cur, cfg.extraction))
    flow.write_dataset(pairs, args.output, block_size=cfg.extraction.block_size)
    print(f"extracted {len(pairs)} pairs "
          f"(block {cfg.extraction.block_size}, {len(frames)} frames) -> {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(args)
    pairs = flow.read_dataset(args.dataset)
    net = generator.build_network(cfg.model)
    trained, report = training.train(net, pairs, cfg.train)
    generator.save_weights(trained, args.weights_out)
    if args.loss_csv:
        write_csv(report.csv_rows(), args.loss_csv, header=["epoch", "lr", "loss"])
    print(f"trained {cfg.train.epochs} epochs on {len(pairs)} pairs, "
          f"final loss {report.final_loss:.6g} -> {args.weights_out}")
    return 0


def cmd_infer(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    if len(frames) < 2:
        raise DeepRefError("inference needs at least 2 frames")
    net = generator.load_weights(args.weights)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for t in range(1, len(frames)):
        generated = generator.generate_reference(net, frames[t - 1])
        write_plane_pgm(generated, out_dir / f"gen_f{t:04d}.pgm")
        rows.append((t, metrics.psnr(generated, frames[t]), metrics.ssim(generated, frames[t])))
    csv_path = args.csv or out_dir / "reference_quality.csv"
    write_csv(rows, csv_path, header=QUALITY_HEADER)
    finite = [r[1] for r in rows if np.isfinite(r[1])]
    mean_psnr = float(np.mean(finite)) if finite else float("inf")
    print(f"generated {len(rows)} references -> {out_dir} "
          f"(mean PSNR vs next frame {mean_psnr:.2f} dB)")
    return 0


def cmd_dump_features(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    if not 0 <= args.frame < len(frames):
        raise DeepRefError(f"--frame {args.frame} outside sequence of {len(frames)} frames")
    net = generator.load_weights(args.weights)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    planes = generator.dump_feature_maps(net, frames[args.frame], args.layer)
    for idx, plane in enumerate(planes):
        write_plane_pgm(plane, out_dir / f"{args.layer}_c{idx:03d}.pgm")
    print(f"dumped {len(planes)} {args.layer} feature maps -> {out_dir}")
    return 0


def cmd_encode(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    net = generator.load_weights(args.weights) if args.weights else None
    run = codec.encode_sequence(frames, net, cfg.search, args.q)
    if args.mv_csv_dir:
        mv_dir = Path(args.mv_csv_dir)
        mv_dir.mkdir(parents=True, exist_ok=True)
        for t in range(1, len(frames)):
            write_csv(run.mv_fields[t], mv_dir / f"mv_f{t:04d}.csv", header=MV_HEADER)
    scheme = "net" if net is not None else "baseline"
    bits, quality = float(np.mean(run.bits)), float(np.mean(run.psnr))
    print(f"{scheme} Q={args.q}: {bits:.1f} bits/frame, {quality:.3f} dB "
          f"({len(frames)} frames)")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    net = generator.load_weights(args.weights)
    baseline = codec.rd_sweep(frames, None, cfg.search, cfg.q_set)
    with_net = codec.rd_sweep(frames, net, cfg.search, cfg.q_set)
    rows = [("baseline", q, pt.bits, pt.psnr) for q, pt in zip(cfg.q_set, baseline)]
    rows += [("net", q, pt.bits, pt.psnr) for q, pt in zip(cfg.q_set, with_net)]
    write_csv(rows, args.output, header=RD_HEADER)
    print(f"swept {len(cfg.q_set)} quantizers x 2 schemes on {len(frames)} frames "
          f"-> {args.output}")
    return 0


def _load_curve(path, scheme: str | None):
    header, body = read_csv(path)
    try:
        bits_col = header.index("bits_per_frame")
        psnr_col = header.index("psnr_db")
    except ValueError as exc:
        raise DeepRefError(
            f"{path}: RD CSV needs bits_per_frame and psnr_db columns, got {header}"
        ) from exc
    scheme_col = header.index("scheme") if "scheme" in header else None
    points = []
    seen = set()
    for row in body:
        if scheme_col is not None:
            seen.add(row[scheme_col])
            if scheme is not None and row[scheme_col] != scheme:
                continue
        try:
            bits, quality = float(row[bits_col]), float(row[psnr_col])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}: missing or non-numeric RD value in row {row}") from exc
        points.append(metrics.RDPoint(bits, quality))
    if scheme is not None and scheme_col is None:
        raise DeepRefError(f"{path}: no scheme column to select {scheme!r} from")
    if not points:
        raise DeepRefError(f"{path}: no RD rows for scheme {scheme!r} (has {sorted(seen)})")
    return points


def cmd_bdrate(args) -> int:
    if args.test_csv is None:
        anchor = _load_curve(args.rd_csv, args.anchor_scheme)
        test = _load_curve(args.rd_csv, args.test_scheme)
    else:
        header, _ = read_csv(args.rd_csv)
        anchor_scheme = args.anchor_scheme if "scheme" in header else None
        header, _ = read_csv(args.test_csv)
        test_scheme = args.test_scheme if "scheme" in header else None
        anchor = _load_curve(args.rd_csv, anchor_scheme)
        test = _load_curve(args.test_csv, test_scheme)
    value = metrics.bd_rate(anchor, test)
    print(f"BD-rate (test vs anchor): {value:.4f}%")
    return 0


def cmd_metrics(args) -> int:
    cfg = _resolve(args)
    seq_a = video_io.read_sequence(args.a, cfg.input_format, cfg.width, cfg.height)
    seq_b = video_io.read_sequence(args.b, cfg.input_format, cfg.width, cfg.height)
    if seq_a.count != seq_b.count:
        raise DeepRefError(f"frame counts differ: {seq_a.count} vs {seq_b.count}")
    rows = [
        (i, metrics.psnr(fa, fb), metrics.ssim(fa, fb))
        for i, (fa, fb) in enumerate(zip(seq_a.frames, seq_b.frames))
    ]
    write_csv(rows, args.output, header=QUALITY_HEADER)
    finite = [r[1] for r in rows if np.isfinite(r[1])]
    mean_psnr = float(np.mean(finite)) if finite else float("inf")
    print(f"compared {len(rows)} frames: mean PSNR {mean_psnr:.3f} dB, "
          f"mean SSIM {np.mean([r[2] for r in rows]):.4f} -> {args.output}")
    return 0


def cmd_block_sweep(args) -> int:
    cfg = _resolve(args)
    frames = _read_frames(cfg)
    sizes = _int_list(args.sizes, "--sizes")
    name = Path(cfg.input_path).stem
    rows = training.block_size_sweep(
        frames, sizes, cfg.train, extraction=cfg.extraction, sequence_name=name
    )
    write_csv(rows, args.output, header=["block_size", "sequence", "psnr_db"])
    print(f"block-size sweep over {sizes} -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepref",
        description="Deep reference picture generation toolkit: train a "
        "dilated-inception generator on optical-flow block pairs and measure "
        "its effect in a quarter-pel codec proxy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="build a training dataset from consecutive frames")
    _add_common(p); _add_input(p); _add_extract_flags(p)
    p.add_argument("--output", required=True, help="dataset file to write")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the generator on a dataset file")
    _add_common(p); _add_model_flags(p); _add_train_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--loss-csv", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="generate references from pristine frames and score them")
    _add_common(p); _add_input(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--csv", help="quality CSV path (default: <output-dir>/reference_quality.csv)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("dump-features", help="write hidden-layer feature maps as PGM images")
    _add_common(p); _add_input(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--layer", required=True, choices=list(generator.FEATURE_SELECTORS))
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_dump_features)

    p = sub.add_parser("encode", help="run the codec proxy at one quantizer step")
    _add_common(p); _add_input(p); _add_search_flags(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--weights", help="substitute the generator output as reference")
    p.add_argument("--mv-csv-dir", help="dump per-frame motion fields as CSV")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("sweep", help="RD sweep with and without the network")
    _add_common(p); _add_input(p); _add_search_flags(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--q-set", dest="q_set", help="comma-separated quantizer steps")
    p.add_argument("--output", required=True, help="RD CSV to write")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bdrate", help="BD-rate between two RD curves")
    p.add_argument("rd_csv", help="anchor CSV (or a sweep CSV holding both schemes)")
    p.add_argument("test_csv", nargs="?", help="test CSV; omit to split rd_csv by scheme")
    p.add_argument("--anchor-scheme", default="baseline")
    p.add_argument("--test-scheme", default="net")
    p.set_defaults(func=cmd_bdrate)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two sequences")
    _add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--format", choices=["yuv", "y4m"])
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("block-sweep", help="train at several block sizes and compare PSNR")
    _add_common(p); _add_input(p); _add_model_flags(p); _add_train_flags(p)
    p.add_argument("--sizes", default="16,24,32,40,48")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_block_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (DeepRefError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
