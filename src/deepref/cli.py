"""Command-line pipeline: make-clip -> extract -> train -> infer / encode /
sweep -> bdrate / metrics, plus feature-map dumps and the block-size study.

Every flag that sets a config field is declared once, in FLAG_TABLE, which
names the RunConfig field(s) it sets. `main` resolves the command's RunConfig
once and runs the command with it: flags override the --config JSON, which
overrides the defaults, and both set fields through `config.with_fields`.
`--seed` of `train` and `block-sweep` seeds weight init and shuffling;
`--seed` of `make-clip`, which sets no config field, seeds the clip's texture.

Every run with a fixed --seed is bit-reproducible on the same machine. All
file outputs are written atomically. Every refusal, argparse's own included,
prints one `error: …` line and exits 1; `--help` exits 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import codec, flow, generator, metrics, synthetic, training, video_io
from .config import SEED_FIELDS, RunConfig, load_run_config, with_fields
from .errors import ConfigError, DeepRefError, FormatError
from .fileio import read_csv, write_csv, write_plane_pgm

RD_HEADER = ["scheme", "q", "bits_per_frame", "psnr_db"]
QUALITY_HEADER = ["frame_index", "psnr_db", "ssim"]
MV_HEADER = list(codec.MVRecord._fields)


# Every flag that sets a config field: group -> (flag, the RunConfig fields it
# sets, argparse kwargs). A field is "section.field" or a top-level field.
FLAG_TABLE = {
    "seed": [("--seed", " ".join(f"{s}.{f}" for s, f in SEED_FIELDS.items()),
              dict(type=int, help="seed for init and shuffling"))],
    "input": [("--input", "input_path",
               dict(required=True, help="sequence path (.y4m or raw .yuv)"))],
    "format": [
        ("--format", "input_format",
         dict(choices=video_io.FORMATS, help="override format detection")),
        ("--width", "width", dict(type=int, help="raw .yuv width")),
        ("--height", "height", dict(type=int, help="raw .yuv height")),
    ],
    "model": [
        ("--head-channels", "model.head_channels", dict(type=int)),
        ("--branch-reduce-channels", "model.branch_reduce_channels", dict(type=int)),
        ("--branch-out-channels", "model.branch_out_channels", dict(type=int)),
        ("--trunk-channels", "model.trunk_channels", dict(type=int)),
        ("--k", "model.k", dict(type=float, help="fusion proportionality factor in [0,1]")),
        ("--dtype", "model.dtype", dict(choices=["float32", "float64"])),
    ],
    "train": [
        ("--epochs", "train.epochs", dict(type=int)),
        ("--batch-size", "train.batch_size", dict(type=int)),
        ("--lr", "train.lr0", dict(type=float, help="learning-rate scale for Adadelta")),
        ("--decay-interval", "train.decay_interval_epochs",
         dict(type=int, help="epochs between lr halvings")),
        ("--decay-factor", "train.decay_factor", dict(type=float)),
    ],
    "extract": [
        ("--block-size", "extraction.block_size", dict(type=int)),
        ("--stride", "extraction.stride", dict(type=int)),
    ],
    "search": [
        ("--search-range", "search.search_range", dict(type=int)),
        ("--lambda-mv", "search.lambda_mv", dict(type=float)),
        ("--block-size", "search.block_size", dict(type=int)),
    ],
    "q-set": [("--q-set", "q_set", dict(help="comma-separated quantizer steps"))],
}


def _command(sub, name, func, *groups, help):
    """Subcommand `name` running `func(args, cfg)`; if it takes flag `groups`,
    it also takes --config, and remembers which fields each flag sets."""
    parser = sub.add_parser(name, help=help)
    fields = {}
    parser.set_defaults(func=func, config=None, config_fields=fields)
    if groups:
        parser.add_argument("--config", help="JSON run configuration; flags override it")
        for group in groups:
            for flag, targets, kwargs in FLAG_TABLE[group]:
                fields[parser.add_argument(flag, **kwargs).dest] = targets.split()
    return parser


def _values(text: str, flag: str, form: str, kind=int, sep=",", count=None) -> list:
    """The `kind` values of `text` split at `sep`, exactly `count` of them if given."""
    try:
        values = [kind(item) for item in text.split(sep)]
        if count not in (None, len(values)):
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"{flag} must be {form}, got {text!r}") from exc
    return values


def _resolve(args) -> RunConfig:
    """Defaults < --config JSON < every flag given."""
    cfg = load_run_config(args.config) if args.config else RunConfig()
    values = {}
    for dest, targets in args.config_fields.items():
        value = getattr(args, dest)
        if value is not None:
            if dest == "q_set":
                value = _values(value, "--q-set", "comma-separated integers")
            values.update(dict.fromkeys(targets, value))
    return with_fields(cfg, values)


def _read_frames(cfg: RunConfig, path=None) -> list[np.ndarray]:
    """Luma planes of `path`, or of --input when no path is given."""
    return video_io.read_sequence(cfg.input_path if path is None else path,
                                  cfg.input_format, cfg.width, cfg.height)


def _quality_table(tests, truths, first_index: int, path) -> tuple[list, float]:
    """Write the QUALITY_HEADER CSV of each test plane against its truth, frames
    numbered from `first_index`; return the rows and the mean finite PSNR (inf if none)."""
    rows = [(i, metrics.psnr(a, b), metrics.ssim(a, b))
            for i, (a, b) in enumerate(zip(tests, truths), start=first_index)]
    write_csv(rows, path, header=QUALITY_HEADER)
    finite = [r[1] for r in rows if np.isfinite(r[1])]
    return rows, float(np.mean(finite)) if finite else float("inf")


def cmd_make_clip(args, cfg: RunConfig) -> int:
    width, height = _values(args.size.lower(), "--size", "WxH integers", sep="x", count=2)
    velocity = _values(args.velocity, "--velocity", "two numbers x,y", float, count=2)
    texture = synthetic.acceptance_texture(args.seed)
    frames = synthetic.pan_zoom_sequence(width, height, args.frames, velocity,
                                         zoom_rate=args.zoom, texture=texture)
    video_io.write_y4m(frames, args.output)
    print(f"wrote {args.frames} frames of {width}x{height} -> {args.output}")
    return 0


def cmd_extract(args, cfg: RunConfig) -> int:
    frames = _read_frames(cfg)
    if len(frames) < 2:
        raise DeepRefError("extraction needs at least 2 frames")
    pairs = np.concatenate([flow.extract_pairs(prev, cur, cfg.extraction)
                            for prev, cur in zip(frames, frames[1:])])
    flow.write_dataset(pairs, args.output)
    print(f"extracted {len(pairs)} pairs "
          f"(block {cfg.extraction.block_size}, {len(frames)} frames) -> {args.output}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    pairs = flow.read_dataset(args.dataset)
    net = generator.build_network(cfg.model)
    trained, report = training.train(net, pairs, cfg.train)
    generator.save_weights(trained, args.weights_out)
    if args.loss_csv:
        write_csv(report.csv_rows(), args.loss_csv, header=["epoch", "lr", "loss"])
    print(f"trained {cfg.train.epochs} epochs on {len(pairs)} pairs, "
          f"final loss {report.final_loss:.6g} -> {args.weights_out}")
    return 0


def cmd_infer(args, cfg: RunConfig) -> int:
    frames = _read_frames(cfg)
    if len(frames) < 2:
        raise DeepRefError("inference needs at least 2 frames")
    net = generator.load_weights(args.weights)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    generated = [generator.generate_reference(net, frame) for frame in frames[:-1]]
    for t, plane in enumerate(generated, start=1):
        write_plane_pgm(plane, out_dir / f"gen_f{t:04d}.pgm")
    rows, mean_psnr = _quality_table(generated, frames[1:], 1,
                                     out_dir / "reference_quality.csv")
    print(f"generated {len(rows)} references -> {out_dir} "
          f"(mean PSNR vs next frame {mean_psnr:.2f} dB)")
    return 0


def cmd_dump_features(args, cfg: RunConfig) -> int:
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


def _schemes(weights) -> dict:
    """Scheme name -> reference rule, in RD-row order; `net` only given weights."""
    schemes = {"baseline": codec.previous}
    if weights:
        schemes["net"] = functools.partial(codec.generated, generator.load_weights(weights))
    return schemes


def cmd_encode(args, cfg: RunConfig) -> int:
    frames = _read_frames(cfg)
    scheme = "net" if args.weights else "baseline"
    run = codec.encode_sequence(frames, _schemes(args.weights)[scheme], cfg.search, args.q)
    if args.mv_csv_dir:
        mv_dir = Path(args.mv_csv_dir)
        mv_dir.mkdir(parents=True, exist_ok=True)
        for t in range(1, len(frames)):
            write_csv(run.mv_fields[t], mv_dir / f"mv_f{t:04d}.csv", header=MV_HEADER)
    bits, quality = float(np.mean(run.bits)), float(np.mean(run.psnr))
    print(f"{scheme} Q={args.q}: {bits:.1f} bits/frame, {quality:.3f} dB "
          f"({len(frames)} frames)")
    return 0


def cmd_sweep(args, cfg: RunConfig) -> int:
    frames = _read_frames(cfg)
    schemes = _schemes(args.weights)
    rows = [(scheme, q, pt.bits, pt.psnr) for scheme, refs in schemes.items()
            for q, pt in zip(cfg.q_set, codec.rd_sweep(frames, refs, cfg.search, cfg.q_set))]
    write_csv(rows, args.output, header=RD_HEADER)
    print(f"swept {len(cfg.q_set)} quantizers x {len(schemes)} schemes on {len(frames)} frames "
          f"-> {args.output}")
    return 0


def _load_curve(path, scheme: str | None, need_scheme: bool = True):
    """RD points of `path`: its `scheme` rows if it has a scheme column. A file
    without one is an error if need_scheme, else read whole."""
    header, body = read_csv(path)
    try:
        bits_col = header.index("bits_per_frame")
        psnr_col = header.index("psnr_db")
    except ValueError as exc:
        raise DeepRefError(
            f"{path}: RD CSV needs bits_per_frame and psnr_db columns, got {header}"
        ) from exc
    scheme_col = header.index("scheme") if "scheme" in header else None
    if scheme_col is None and scheme is not None:
        if need_scheme:
            raise DeepRefError(f"{path}: no scheme column to select {scheme!r} from")
        scheme = None
    points = []
    seen = set()
    for row in body:
        if len(row) < len(header):
            raise FormatError(f"{path}: RD row {row} is shorter than the header {header}")
        if scheme_col is not None:
            seen.add(row[scheme_col])
            if scheme is not None and row[scheme_col] != scheme:
                continue
        try:
            bits, quality = float(row[bits_col]), float(row[psnr_col])
        except ValueError as exc:
            raise FormatError(f"{path}: missing or non-numeric RD value in row {row}") from exc
        points.append(metrics.RDPoint(bits, quality))
    if not points:
        raise DeepRefError(f"{path}: no RD rows for scheme {scheme!r} (has {sorted(seen)})")
    return points


def cmd_bdrate(args, cfg: RunConfig) -> int:
    split = args.test_csv is None  # one CSV is split by its scheme column
    anchor = _load_curve(args.rd_csv, args.anchor_scheme, need_scheme=split)
    test = _load_curve(args.rd_csv if split else args.test_csv, args.test_scheme,
                       need_scheme=split)
    value = metrics.bd_rate(anchor, test)
    print(f"BD-rate (test vs anchor): {value:.4f}%")
    return 0


def cmd_metrics(args, cfg: RunConfig) -> int:
    frames_a, frames_b = _read_frames(cfg, args.a), _read_frames(cfg, args.b)
    if len(frames_a) != len(frames_b):
        raise DeepRefError(f"frame counts differ: {len(frames_a)} vs {len(frames_b)}")
    rows, mean_psnr = _quality_table(frames_a, frames_b, 0, args.output)
    print(f"compared {len(rows)} frames: mean PSNR {mean_psnr:.3f} dB, "
          f"mean SSIM {np.mean([r[2] for r in rows]):.4f} -> {args.output}")
    return 0


def cmd_block_sweep(args, cfg: RunConfig) -> int:
    frames = _read_frames(cfg)
    sizes = _values(args.sizes, "--sizes", "comma-separated integers")
    name = Path(cfg.input_path).stem
    rows = training.block_size_sweep(
        frames, sizes, cfg.model, cfg.train, cfg.extraction, sequence_name=name
    )
    write_csv(rows, args.output, header=["block_size", "sequence", "psnr_db"])
    print(f"block-size sweep over {sizes} -> {args.output}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises argparse's refusals as `ConfigError`, for `main` to report;
    its subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves it
    unchanged, and building it took about 3 ms of every `main` call."""
    parser = _Parser(
        prog="deepref",
        description="Deep reference picture generation toolkit: train a "
        "dilated-inception generator on optical-flow block pairs and measure "
        "its effect in a quarter-pel codec proxy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "make-clip", cmd_make_clip,
                 help="synthesize a panning/zooming textured test clip as .y4m")
    p.add_argument("output", help="Y4M file to write")
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--size", default="64x64", help="WxH")
    p.add_argument("--velocity", default="0.875,0.625", help="px/frame, x,y")
    p.add_argument("--zoom", type=float, default=0.0005, help="scale growth per frame")
    p.add_argument("--seed", type=int, default=11, help="texture seed")

    p = _command(sub, "extract", cmd_extract, "input", "format", "extract",
                 help="build a training dataset from consecutive frames")
    p.add_argument("--output", required=True, help="dataset file to write")

    p = _command(sub, "train", cmd_train, "seed", "model", "train",
                 help="train the generator on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--weights-out", required=True)
    p.add_argument("--loss-csv", help="per-epoch loss CSV")

    p = _command(sub, "infer", cmd_infer, "input", "format",
                 help="generate references from pristine frames and score them")
    p.add_argument("--weights", required=True)
    p.add_argument("--output-dir", required=True)

    p = _command(sub, "dump-features", cmd_dump_features, "input", "format",
                 help="write hidden-layer feature maps as PGM images")
    p.add_argument("--weights", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--layer", required=True, choices=list(generator.FEATURE_SELECTORS))
    p.add_argument("--output-dir", required=True)

    p = _command(sub, "encode", cmd_encode, "input", "format", "search",
                 help="run the codec proxy at one quantizer step")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--weights", help="substitute the generator output as reference")
    p.add_argument("--mv-csv-dir", help="dump per-frame motion fields as CSV")

    p = _command(sub, "sweep", cmd_sweep, "input", "format", "search", "q-set",
                 help="RD sweep with and without the network")
    p.add_argument("--weights", required=True)
    p.add_argument("--output", required=True, help="RD CSV to write")

    p = _command(sub, "bdrate", cmd_bdrate, help="BD-rate between two RD curves")
    p.add_argument("rd_csv", help="anchor CSV (or a sweep CSV holding both schemes)")
    p.add_argument("test_csv", nargs="?", help="test CSV; omit to split rd_csv by scheme")
    p.add_argument("--anchor-scheme", default="baseline")
    p.add_argument("--test-scheme", default="net")

    p = _command(sub, "metrics", cmd_metrics, "format", help="PSNR/SSIM between two sequences")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "block-sweep", cmd_block_sweep, "seed", "input", "format", "model",
                 "train", help="train at several block sizes and compare PSNR")
    p.add_argument("--sizes", default="16,24,32,40,48")
    p.add_argument("--output", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _resolve(args))
    except (DeepRefError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
