"""The benchmark's three workloads: inputs, set-up, ops and output checks.

Every input is generated from the workload seed, which seeds the acceptance
texture (`SinusoidTexture.random(seed, n_waves=32, ...)`, pan (0.875, 0.625),
zoom 0.0005). Each workload is a closed loop: one caller issues the next op
only after the previous one returns.

- train: one `training.train` call on the SMALL net over the pairs of frames
  0-19 of the 64x64x30 clip; one op is one epoch.
- sweep: in-process `deepref sweep` on a 128x128 clip written as Y4M during
  set-up, with the stored SMALL net; one op is one sweep call (2 schemes x 4 q).
- infer: the paper-size net from `ModelConfig()`; one op is one 128x128 frame
  (generate_reference, then PSNR and SSIM against the next frame).

Every untraced op is preceded by `calibrate()`, a fixed pure-Python loop,
so that run.py can report op times at a reference machine speed.

Outputs are checked against the reference outputs in `reference/` (recorded
by `record.py`) when the seed has them. Other seeds are checked for finite,
repeatable outputs, and the run then also repeats one op on the default seed
against its reference (the canary).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the module attributes so that the traced run sees them.
from deepref import cli, fileio, flow, generator, metrics, training
from deepref.flow import ExtractionConfig
from deepref.generator import ModelConfig, build_network
from deepref.synthetic import SinusoidTexture, pan_zoom_sequence
from deepref.training import TrainConfig
from deepref.video_io import write_y4m

DEFAULT_SEED = 11
HELDOUT_SEED = 23
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SWEEP_NET = REFERENCE_DIR / "sweep_net.drpg"

SMALL = ModelConfig(head_channels=8, branch_reduce_channels=4, branch_out_channels=4,
                    trunk_channels=8, k=0.5, seed=0, dtype="float32")
EXTRACTION = ExtractionConfig(block_size=16, stride=16)
TRAIN_ARGS = dict(lr0=1.0, batch_size=8, decay_interval_epochs=60, decay_factor=0.5,
                  shuffle_seed=0)
REFERENCE_EPOCHS = 150
WARM_PAIRS = 64  # 8 full batches
Q_SET = (8, 16, 32, 64)
SWEEP_FRAMES = 2  # one intra + one inter frame per (scheme, q) chain
INFER_FRAMES = 4  # ops cycle over the 3 (previous, next) frame pairs

# Tolerances for outputs that may drift with float32 summation order. Reordering
# the forward conv's contraction moved the first epoch's loss by 2e-8, later
# losses by <= 0.25% over 40 epochs, net RD bits by <= 0.07% and PSNR by
# <= 0.011 dB, and flipped 0.004% of generated pixels by one level. Dropping
# the shuffle moved the first epoch's loss by 0.5%.
FIRST_LOSS_RTOL = 1e-3
LOSS_RTOL = 2e-2
NET_BITS_RTOL = 1e-2
NET_PSNR_ATOL = 0.1
PLANE_MAX_DIFF = 2
PLANE_DIFF_SHARE = 0.01

# On a shared host the CPU speed drifts by 30-50% over tens of seconds, which
# moved whole-run medians by as much. Timing this loop next to every op tracks
# that drift: dividing train's epoch times by it cut the spread of 8-epoch
# medians over a 90-epoch run from 34% to 3%. CAL_REF_S is what the loop takes
# on a quiet core of the 2-vCPU x86_64 machine the references were recorded on.
CAL_ITERATIONS = 400_000
CAL_REF_S = 0.028


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    started = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - started


def clip(seed: int, size: int, n_frames: int) -> list[np.ndarray]:
    texture = SinusoidTexture.random(seed, n_waves=32, min_freq=0.08, max_freq=0.32,
                                     contrast=44.0)
    return pan_zoom_sequence(size, size, n_frames, velocity=(0.875, 0.625),
                             zoom_rate=0.0005, seed=seed, texture=texture)


def train_pairs(seed: int):
    frames = clip(seed, 64, 30)
    return [pair for prev, cur in zip(frames[:20], frames[1:20])
            for pair in flow.extract_pairs(prev, cur, EXTRACTION)]


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed_{seed}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    ref["infer_planes"] = np.load(REFERENCE_DIR / f"infer_seed_{seed}.npz")["planes"]
    return ref


@dataclass
class Measurement:
    latencies: list[float]  # seconds per op
    failures: dict[int, str]  # op index -> why its output check failed
    items: int  # work items done: pairs x epochs, inter-coded frames, or frames
    calibrations: list[float] = field(default_factory=list)  # calibrate() before each op
    quality: dict = field(default_factory=dict)


def _ops(seconds: float, min_ops: int, tracer, op, check):
    """Closed loop: run op(i) until `seconds` have passed and `min_ops` are done.

    Only the op is timed; check(i, output) runs after and returns why it failed.
    Untraced ops are each preceded by calibrate().
    """
    latencies, failures, calibrations = [], {}, []
    started = time.perf_counter()
    while len(latencies) < min_ops or time.perf_counter() - started < seconds:
        i = len(latencies)
        if tracer is None:
            calibrations.append(calibrate())
        else:
            tracer.op = i
        with tracer.span("bench.op") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                output, why = op(i), None
            except Exception as exc:
                output, why = None, repr(exc)
            latencies.append(time.perf_counter() - t0)
        why = why or check(i, output)
        if why:
            failures[i] = why
    return latencies, failures, calibrations


class Train:
    name = "train"
    item_metric = ("train_pairs_per_s", "pairs/s")

    def __init__(self):
        self.epoch_estimates = []  # one per warm set-up; they size the measured call

    def setup(self, seed, workdir, warm=True):
        pairs = train_pairs(seed)
        net = build_network(SMALL)
        if warm:  # a partial epoch runs every batch shape
            warm_pairs = pairs[:WARM_PAIRS]
            _, report = training.train(net, warm_pairs, TrainConfig(epochs=1, **TRAIN_ARGS))
            self.epoch_estimates.append(report.epochs[-1].seconds * len(pairs) / len(warm_pairs))
        return {"pairs": pairs, "net": net}

    def measure(self, state, seconds, min_ops, reference, tracer=None):
        epochs = max(min_ops, math.ceil(seconds / statistics.median(self.epoch_estimates)))
        calibrations = []
        lr_schedule = training.lr_schedule
        if tracer is None:  # train calls lr_schedule before it starts each epoch's clock
            def calibrated(epoch, cfg):
                calibrations.append(calibrate())
                return lr_schedule(epoch, cfg)
            training.lr_schedule = calibrated
        else:
            def mark(lr_schedule):  # epochs of the one call are the ops
                def marked(epoch, cfg):
                    tracer.op = epoch
                    return lr_schedule(epoch, cfg)
                return marked
            tracer.replace("training", "lr_schedule", mark)
        started = time.perf_counter()
        try:
            _, report = training.train(state["net"], state["pairs"], TrainConfig(epochs=epochs, **TRAIN_ARGS))
        except Exception as exc:  # the whole call failed: every epoch counts as failed
            wall = time.perf_counter() - started
            return Measurement([wall / epochs] * epochs, dict.fromkeys(range(epochs), repr(exc)),
                               len(state["pairs"]) * epochs)
        finally:
            if tracer is None:
                training.lr_schedule = lr_schedule
        losses = [e.loss for e in report.epochs]
        failures = {epoch: why for epoch, loss in enumerate(losses)
                    if (why := self.check_loss(epoch, loss, reference))}
        if not losses[-1] < losses[0]:
            failures.setdefault(epochs - 1, f"no training progress: loss {losses[0]:.6g} "
                                            f"-> {losses[-1]:.6g}")
        return Measurement([e.seconds for e in report.epochs], failures,
                           len(state["pairs"]) * epochs, calibrations,
                           {"final_loss": losses[-1]})

    @staticmethod
    def check_loss(epoch, loss, reference):
        if not math.isfinite(loss):
            return f"epoch {epoch}: non-finite loss {loss}"
        if reference and epoch < len(reference["train_losses"]):
            want = reference["train_losses"][epoch]
            if abs(loss - want) > (LOSS_RTOL if epoch else FIRST_LOSS_RTOL) * want:
                return f"epoch {epoch}: loss {loss:.6g} != reference {want:.6g}"
        return None

    def canary(self, workdir, reference):
        pairs = train_pairs(DEFAULT_SEED)
        _, report = training.train(build_network(SMALL), pairs, TrainConfig(epochs=1, **TRAIN_ARGS))
        return self.check_loss(0, report.epochs[0].loss, reference)


class Sweep:
    name = "sweep"
    item_metric = ("encode_frames_per_s", "frames/s")
    frames_per_op = 2 * len(Q_SET) * (SWEEP_FRAMES - 1)

    def setup(self, seed, workdir, warm=True):
        state = {"clip": workdir / f"clip_{seed}.y4m", "csv": workdir / "rd.csv"}
        write_y4m(clip(seed, 128, SWEEP_FRAMES), state["clip"])
        if warm:
            self.op(state, q_set=Q_SET[:1])
        return state

    @staticmethod
    def op(state, q_set=Q_SET):
        """One `deepref sweep` call; returns its RD rows and the net-vs-baseline BD-rate."""
        argv = ["sweep", "--input", str(state["clip"]), "--weights", str(SWEEP_NET),
                "--q-set", ",".join(map(str, q_set)), "--block-size", "16",
                "--search-range", "8", "--output", str(state["csv"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"deepref sweep exited with code {code}")
        _, body = fileio.read_csv(state["csv"])
        rows = [(scheme, int(q), float(bits), float(db)) for scheme, q, bits, db in body]
        curves = {s: [metrics.RDPoint(b, p) for scheme, _, b, p in rows if scheme == s]
                  for s in ("baseline", "net")}
        bd = metrics.bd_rate(curves["baseline"], curves["net"]) if len(q_set) == len(Q_SET) else None
        return rows, bd

    @staticmethod
    def check(rows, first, reference):
        if [(r[0], r[1]) for r in rows] != [(s, q) for s in ("baseline", "net") for q in Q_SET]:
            return f"unexpected RD rows {rows}"
        if not all(math.isfinite(r[2]) and math.isfinite(r[3]) and r[2] > 0 for r in rows):
            return f"non-finite or non-positive RD values {rows}"
        if rows != first:
            return "RD rows differ from the first op of this run"
        if reference:
            for got, want in zip(rows, reference["sweep_rows"]):
                if got[0] == "baseline" and list(got) != list(want):
                    return f"baseline row {got} != reference {want} (must be bit-exact)"
                if got[0] == "net" and (abs(got[2] - want[2]) > NET_BITS_RTOL * want[2]
                                        or abs(got[3] - want[3]) > NET_PSNR_ATOL):
                    return f"net row {got} != reference {want} within tolerance"
        return None

    def measure(self, state, seconds, min_ops, reference, tracer=None):
        outputs = []

        def check(i, output):
            outputs.append(output)
            return self.check(output[0], outputs[0][0], reference)

        latencies, failures, calibrations = _ops(seconds, min_ops, tracer,
                                                 lambda i: self.op(state), check)
        bd = outputs[0][1] if outputs else math.nan
        return Measurement(latencies, failures, self.frames_per_op * len(latencies),
                           calibrations, {"bd_rate_pct": bd})

    def canary(self, workdir, reference):
        rows, _ = self.op(self.setup(DEFAULT_SEED, workdir, warm=False))
        return self.check(rows, rows, reference)


class Infer:
    name = "infer"
    item_metric = ("infer_frames_per_s", "frames/s")

    def setup(self, seed, workdir, warm=True):
        state = {"frames": clip(seed, 128, INFER_FRAMES),
                 "net": build_network(ModelConfig())}
        if warm:
            self.op(state, 0)
        return state

    @staticmethod
    def op(state, i):
        t = 1 + i % (INFER_FRAMES - 1)
        frames = state["frames"]
        generated = generator.generate_reference(state["net"], frames[t - 1])
        return t, generated, metrics.psnr(generated, frames[t]), metrics.ssim(generated, frames[t])

    @staticmethod
    def check(t, generated, db, score, first, reference):
        if generated.shape != (128, 128) or generated.dtype != np.uint8:
            return f"frame {t}: generated plane {generated.shape} {generated.dtype}"
        if not (math.isfinite(db) and -1.0 <= score <= 1.0):
            return f"frame {t}: PSNR {db} / SSIM {score} out of range"
        if not np.array_equal(generated, first):
            return f"frame {t}: output differs from its first computation in this run"
        if reference:
            diff = np.abs(generated.astype(np.int16) - reference["infer_planes"][t - 1])
            if diff.max() > PLANE_MAX_DIFF or np.mean(diff > 0) > PLANE_DIFF_SHARE:
                return (f"frame {t}: {np.mean(diff > 0):.3%} of pixels differ from the "
                        f"reference, by up to {diff.max()}")
        return None

    def measure(self, state, seconds, min_ops, reference, tracer=None):
        first = {}

        def check(i, output):
            t, generated = output[:2]
            first.setdefault(t, generated)
            return self.check(*output, first[t], reference)

        latencies, failures, calibrations = _ops(seconds, min_ops, tracer,
                                                 lambda i: self.op(state, i), check)
        return Measurement(latencies, failures, len(latencies), calibrations)

    def canary(self, workdir, reference):
        state = self.setup(DEFAULT_SEED, workdir, warm=False)
        t, generated, db, score = self.op(state, 0)
        return self.check(t, generated, db, score, generated, reference)


WORKLOADS = {w.name: w for w in (Train(), Sweep(), Infer())}
