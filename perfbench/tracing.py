"""Span tracing for the traced benchmark run, applied from outside the package.

`Tracer.install` replaces every module-level reference to a public deepref
function with a wrapper that records one span per call, so calls the package
makes internally are recorded too. A span is the tuple
``(name, start, end, parent, op, note)``: `parent` is the index of the
enclosing span (-1 for none), `op` is the op id current at the call (-1 during
set-up) and `note` holds counts computed from the call's arguments and result.
Spans stay in memory; `write` stores them when the run ends.

`per_layer_metrics` turns the spans of the traced ops into the per-layer
metrics listed in BENCHMARK.json. Computed counts (GFLOP, MB, SAD candidates,
interpolation calls, pair yield, generated-reference share) come from shapes
and results, so they repeat exactly for a given seed and ignore cache misses.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "deepref"

# Per-layer metric name -> (unit, better). The order is the report order.
PER_LAYER = {
    "nn.conv2d_forward.calls": ("count", "lower"),
    "nn.conv2d_forward.s": ("s", "lower"),
    "nn.conv2d_backward.calls": ("count", "lower"),
    "nn.conv2d_backward.s": ("s", "lower"),
    "nn.adadelta_step.calls": ("count", "lower"),
    "nn.adadelta_step.s": ("s", "lower"),
    **{f"nn.{d}.{g}.s": ("s", "lower")
       for d in ("fwd", "bwd") for g in ("k1d1", "k3d1", "k3d3", "k3d5")},
    "nn.conv.gflop": ("GFLOP", "lower"),
    "nn.conv.mb_computed": ("MB", "lower"),
    "nn.conv.gflop_per_s": ("GFLOP/s", "higher"),
    "generator.net_forward.calls": ("count", "lower"),
    "generator.net_forward.self_s": ("s", "lower"),
    "generator.net_backward.self_s": ("s", "lower"),
    "generator.generate_reference.calls": ("count", "lower"),
    "generator.generate_reference.s": ("s", "lower"),
    "generator.load_weights.s": ("s", "lower"),
    "training.train.s": ("s", "lower"),
    "training.mse_loss.s": ("s", "lower"),
    "training.self_s": ("s", "lower"),
    "flow.extract_pairs.calls": ("count", "lower"),
    "flow.extract_pairs.s": ("s", "lower"),
    "flow.pair_yield": ("ratio", "higher"),
    "interp.interpolate_block.calls": ("count", "lower"),
    "interp.interpolate_block.s": ("s", "lower"),
    "interp.frac_share": ("ratio", "lower"),
    "codec.motion_search.calls": ("count", "lower"),
    "codec.motion_search.self_s": ("s", "lower"),
    "codec.encode_frame_proxy.calls": ("count", "lower"),
    "codec.encode_frame_proxy.self_s": ("s", "lower"),
    "codec.intra_frame_proxy.s": ("s", "lower"),
    "codec.rd_sweep.s": ("s", "lower"),
    "codec.sad_candidates": ("count", "lower"),
    "codec.gen_ref_share": ("ratio", "higher"),
    "codec.bits_per_frame": ("bits", "lower"),
    "metrics.psnr.s": ("s", "lower"),
    "metrics.ssim.calls": ("count", "lower"),
    "metrics.ssim.s": ("s", "lower"),
    "metrics.bd_rate.s": ("s", "lower"),
    "video_io.read_sequence.s": ("s", "lower"),
    "video_io.bytes_read": ("bytes", "lower"),
    "fileio.write.s": ("s", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}

# Metrics that are exact counts computed from shapes and results.
COMPUTED = (
    "nn.conv.gflop", "nn.conv.mb_computed", "codec.sad_candidates",
    "interp.interpolate_block.calls", "flow.pair_yield", "codec.gen_ref_share",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_shape(x, params):
    b, c, h, w = x.shape
    k, d, p = params.kernel_size, params.dilation, params.padding
    oh, ow = h + 2 * p - d * (k - 1), w + 2 * p - d * (k - 1)
    flop = 2 * b * params.out_ch * c * k * k * oh * ow
    return f"k{k}d{d}", flop, b * params.out_ch * oh * ow


def _note_conv_forward(args, kwargs, result):
    """Group, multiply-add FLOPs, and bytes of input + weights + output."""
    x, params = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "params")
    group, flop, out_size = _conv_shape(x, params)
    size = x.size + params.weights.size + out_size
    return group, flop, size * x.itemsize


def _note_conv_backward(args, kwargs, result):
    """Group, FLOPs of the weight and input gradients (2x forward), and bytes of
    input, weights, grad_out read plus grad_input and grad_weights written."""
    x, params = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "params")
    group, flop, out_size = _conv_shape(x, params)
    size = 2 * x.size + 2 * params.weights.size + out_size
    return group, 2 * flop, size * x.itemsize


def _note_interp(args, kwargs, result):
    """1 when the motion vector has a fractional component, else 0."""
    mv = _arg(args, kwargs, 3, "mv")
    return int(bool(mv[0] & 3 or mv[1] & 3))


def _note_search(args, kwargs, result):
    """SAD evaluations: (2*range+1)^2 integer positions + 16 sub-pel neighbours."""
    cfg = _arg(args, kwargs, 3, "cfg")
    return (2 * cfg.search_range + 1) ** 2 + 16


def _note_encode(args, kwargs, result):
    """(frame bits, blocks, blocks that chose reference slot 0)."""
    bits, _, mv_field = result
    return bits, len(mv_field), sum(1 for rec in mv_field if rec.ref_idx == 0)


def _note_rd_sweep(args, kwargs, result):
    """1 when a network is supplied (slot 0 then holds the generated picture)."""
    return int(_arg(args, kwargs, 1, "net") is not None)


def _note_extract(args, kwargs, result):
    """(tiles tried, pairs kept)."""
    cur, cfg = _arg(args, kwargs, 1, "cur"), _arg(args, kwargs, 2, "cfg")
    fh, fw = cur.shape
    bs, stride = cfg.block_size, cfg.effective_stride
    tiles = len(range(0, fh - bs + 1, stride)) * len(range(0, fw - bs + 1, stride))
    return tiles, len(result)


def _note_read(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _note_write(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "data"))


# (module, function, note); the span name is "<module>.<function>".
TARGETS = (
    ("nn", "conv2d_forward", _note_conv_forward),
    ("nn", "conv2d_backward", _note_conv_backward),
    ("nn", "adadelta_step", None),
    ("generator", "net_forward", None),
    ("generator", "net_backward", None),
    ("generator", "generate_reference", None),
    ("generator", "load_weights", None),
    ("training", "train", None),
    ("training", "mse_loss", None),
    ("flow", "extract_pairs", _note_extract),
    ("interp", "interpolate_block", _note_interp),
    ("codec", "motion_search", _note_search),
    ("codec", "encode_frame_proxy", _note_encode),
    ("codec", "intra_frame_proxy", None),
    ("codec", "rd_sweep", _note_rd_sweep),
    ("metrics", "psnr", None),
    ("metrics", "ssim", None),
    ("metrics", "bd_rate", None),
    ("video_io", "read_sequence", _note_read),
    ("fileio", "atomic_write_bytes", _note_write),
    ("cli", "main", None),
)


class Tracer:
    """In-memory span recorder; see the module docstring for the span layout."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _enter(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, name, start, end, parent, note):
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op, note)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a set-up or an op."""
        idx, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(idx, name, start, time.perf_counter(), parent, None)

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            idx, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(idx, name, start, time.perf_counter(), parent, None)
                raise
            end = time.perf_counter()
            self._exit(idx, name, start, end, parent, note and note(args, kwargs, result))
            return result

        return traced

    def replace(self, module: str, attr: str, make):
        """Replace every reference to deepref.<module>.<attr> held by a deepref
        module with make(original); `uninstall` restores them."""
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._undo.append((mod, key, original))

    def install(self):
        for module, attr, note in TARGETS:
            self.replace(module, attr, functools.partial(self.wrap, f"{module}.{attr}", note=note))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(spans, n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-op totals over spans with op id >= 0; the flow group, which runs only
    in set-up, is reported per traced set-up instead."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child[parent] += end - start

    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(float)
    sweep_net = {i for i, s in enumerate(spans) if s[0] == "codec.rd_sweep" and s[5]}
    setups = sum(1 for s in spans if s[0] == "bench.setup")
    for i, (name, start, end, parent, op, note) in enumerate(spans):
        if op < 0 and not name.startswith("flow."):
            continue
        dur = end - start
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child[i]
        if note is None:
            continue
        if name.startswith("nn.conv2d_"):
            group, flop, nbytes = note
            kind = "fwd" if name.endswith("forward") else "bwd"
            total[f"nn.{kind}.{group}"] += dur
            counts["flop"] += flop
            counts["bytes"] += nbytes
        elif name == "interp.interpolate_block":
            counts["frac"] += note
        elif name == "codec.motion_search":
            counts["sad"] += note
        elif name == "codec.encode_frame_proxy":
            bits, blocks, slot0 = note
            counts["bits"] += bits
            if parent in sweep_net:
                counts["net_blocks"] += blocks
                counts["gen_blocks"] += slot0
        elif name == "flow.extract_pairs":
            counts["tiles"] += note[0]
            counts["pairs"] += note[1]
        elif name == "video_io.read_sequence":
            counts["read"] += note
        elif name == "fileio.atomic_write_bytes":
            counts["written"] += note

    def ratio(a, b):
        return a / b if b else 0.0

    per = max(n_ops, 1)
    conv_s = total["nn.conv2d_forward"] + total["nn.conv2d_backward"]
    out = {
        "nn.conv2d_forward.calls": calls["nn.conv2d_forward"] / per,
        "nn.conv2d_forward.s": total["nn.conv2d_forward"] / per,
        "nn.conv2d_backward.calls": calls["nn.conv2d_backward"] / per,
        "nn.conv2d_backward.s": total["nn.conv2d_backward"] / per,
        "nn.adadelta_step.calls": calls["nn.adadelta_step"] / per,
        "nn.adadelta_step.s": total["nn.adadelta_step"] / per,
        **{f"nn.{d}.{g}.s": total[f"nn.{d}.{g}"] / per
           for d in ("fwd", "bwd") for g in ("k1d1", "k3d1", "k3d3", "k3d5")},
        "nn.conv.gflop": counts["flop"] / 1e9 / per,
        "nn.conv.mb_computed": counts["bytes"] / 1e6 / per,
        "nn.conv.gflop_per_s": ratio(counts["flop"] / 1e9, conv_s),
        "generator.net_forward.calls": calls["generator.net_forward"] / per,
        "generator.net_forward.self_s": own["generator.net_forward"] / per,
        "generator.net_backward.self_s": own["generator.net_backward"] / per,
        "generator.generate_reference.calls": calls["generator.generate_reference"] / per,
        "generator.generate_reference.s": total["generator.generate_reference"] / per,
        "generator.load_weights.s": total["generator.load_weights"] / per,
        "training.train.s": total["training.train"] / per,
        "training.mse_loss.s": total["training.mse_loss"] / per,
        "training.self_s": own["training.train"] / per,
        "flow.extract_pairs.calls": calls["flow.extract_pairs"] / max(setups, 1),
        "flow.extract_pairs.s": total["flow.extract_pairs"] / max(setups, 1),
        "flow.pair_yield": ratio(counts["pairs"], counts["tiles"]),
        "interp.interpolate_block.calls": calls["interp.interpolate_block"] / per,
        "interp.interpolate_block.s": total["interp.interpolate_block"] / per,
        "interp.frac_share": ratio(counts["frac"], calls["interp.interpolate_block"]),
        "codec.motion_search.calls": calls["codec.motion_search"] / per,
        "codec.motion_search.self_s": own["codec.motion_search"] / per,
        "codec.encode_frame_proxy.calls": calls["codec.encode_frame_proxy"] / per,
        "codec.encode_frame_proxy.self_s": own["codec.encode_frame_proxy"] / per,
        "codec.intra_frame_proxy.s": total["codec.intra_frame_proxy"] / per,
        "codec.rd_sweep.s": total["codec.rd_sweep"] / per,
        "codec.sad_candidates": counts["sad"] / per,
        "codec.gen_ref_share": ratio(counts["gen_blocks"], counts["net_blocks"]),
        "codec.bits_per_frame": ratio(counts["bits"], calls["codec.encode_frame_proxy"]),
        "metrics.psnr.s": total["metrics.psnr"] / per,
        "metrics.ssim.calls": calls["metrics.ssim"] / per,
        "metrics.ssim.s": total["metrics.ssim"] / per,
        "metrics.bd_rate.s": total["metrics.bd_rate"] / per,
        "video_io.read_sequence.s": total["video_io.read_sequence"] / per,
        "video_io.bytes_read": counts["read"] / per,
        "fileio.write.s": total["fileio.atomic_write_bytes"] / per,
        "fileio.bytes_written": counts["written"] / per,
        "cli.self_s": own["cli.main"] / per,
        "trace.overhead_pct": overhead_pct,
        "trace.spans_per_op": sum(1 for s in spans if s[4] >= 0) / per,
    }
    assert list(out) == list(PER_LAYER)
    return out
