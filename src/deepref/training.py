"""Generator training: MSE loss over (X, Y) block pairs, Adadelta updates,
stepped learning-rate decay, deterministic seeded shuffling.

`train` runs on two CPUs where `parallel.map_jobs` would use a worker: it
keeps one `parallel.deferral()` open for the whole call, each batch's backward
hands every 3x3 conv's weight gradient to share 1's worker while the caller
goes on down the input-gradient chain, and the batch collects them before its
Adadelta step. The worker computes each of them as the caller would, from a
copy of the same operands, so the bits are those of the one-CPU run."""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeMismatchError, check_int, check_real
from .flow import ExtractionConfig, extract_pairs
from .generator import (
    GeneratorNet,
    ModelConfig,
    build_network,
    generate_reference,
    net_backward,
    net_forward,
    normalize_plane,
)
from .metrics import psnr
from .nn import AdadeltaState, adadelta_step
from .parallel import Deferral, deferral, map_jobs


@dataclass
class TrainConfig:
    lr0: float = 1e-4
    decay_interval_epochs: int = 20
    decay_factor: float = 0.5
    batch_size: int = 32
    epochs: int = 80
    shuffle_seed: int = 0

    def __post_init__(self):
        check_real("lr0", self.lr0, 0)
        check_int("decay_interval_epochs", self.decay_interval_epochs, 1)
        check_real("decay_factor", self.decay_factor, 0, 1, open_low=True)
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 1)
        check_int("shuffle_seed", self.shuffle_seed, 0, None)


class EpochStats(NamedTuple):
    epoch: int
    lr: float
    loss: float  # mean per-sample training loss over the epoch
    seconds: float


@dataclass
class LossReport:
    epochs: list[EpochStats] = field(default_factory=list)

    def csv_rows(self):
        return [(e.epoch, e.lr, e.loss) for e in self.epochs]

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """loss = (1/M) sum_i ||pred_i - target_i||^2 / (m*n) over the batch.

    Returns the loss and its gradient w.r.t. pred: 2*(pred-target)/(M*m*n).
    """
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"pred shape {pred.shape} != target shape {target.shape}")
    # a diverging net overflows here; `train` then refuses the loss by epoch and batch
    with np.errstate(over="ignore", invalid="ignore"):
        diff = pred - target
        loss = float(np.sum(diff * diff)) / diff.size
        grad = (2.0 / diff.size) * diff
    return loss, grad


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """lr0 decayed by decay_factor at every decay_interval_epochs boundary."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_interval_epochs)


def _share_one_vector(layers) -> np.ndarray:
    """Copy every weight and bias of `layers`, in order, into one flat vector
    and make each of them a view into it; returns the vector."""
    tensors = [(p, attr) for p in layers for attr in ("weights", "bias")]
    theta = np.concatenate([getattr(p, attr).ravel() for p, attr in tensors])
    start = 0
    for p, attr in tensors:
        shape = getattr(p, attr).shape
        size = math.prod(shape)
        setattr(p, attr, theta[start : start + size].reshape(shape))
        start += size
    return theta


def _batch_gradient(net: GeneratorNet, x: np.ndarray, y: np.ndarray,
                    deferred: Deferral) -> tuple[float, np.ndarray]:
    """MSE loss of one batch and its gradient w.r.t. every parameter, as one
    vector in layer order; the 3x3 weight gradients go through `deferred`.
    The batch's output, cache and loss gradient are freed on return, so the
    next batch's forward runs without them."""
    cache = {}
    out = net_forward(net, x, cache)
    loss, grad = mse_loss(out, y)
    if not math.isfinite(loss):
        raise NonFiniteError("non-finite training loss")
    grads, _ = net_backward(net, cache, grad, want_grad_input=False, defer=deferred.submit)
    deferred.collect()
    # the update is elementwise, so one step over the concatenated tensors
    # gives the bits of one step per tensor
    return loss, np.concatenate([g.ravel() for name in net.layers for g in grads[name]])


def train(net: GeneratorNet, dataset, cfg: TrainConfig) -> tuple[GeneratorNet, LossReport]:
    """Optimize a copy of `net` on `dataset`, an array of `flow.pair_dtype`
    records or a list of them; the input network is untouched.

    Bit-deterministic for a fixed shuffle seed on a fixed machine, with one
    usable CPU or more (module docstring). One batch's activations are alive
    at a time: each is freed before the next batch's forward, so the peak is
    one batch's cache and its backward.
    """
    pairs = np.asarray(dataset)
    if not len(pairs):
        raise ConfigError("training dataset is empty")
    dtype = np.dtype(net.config.dtype)
    xs = normalize_plane(pairs["x"], dtype)
    ys = normalize_plane(pairs["y"], dtype)

    net = copy.deepcopy(net)
    theta = _share_one_vector(net.layers.values())
    state = AdadeltaState.zeros_like(theta)
    rng = np.random.default_rng(cfg.shuffle_seed)
    report = LossReport()
    n = len(pairs)
    with deferral() as deferred:
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg)
            started = time.perf_counter()
            order = rng.permutation(n)
            epoch_loss = 0.0
            for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                try:
                    loss, grad_theta = _batch_gradient(net, xs[idx], ys[idx], deferred)
                    theta[...], state = adadelta_step(theta, grad_theta, state, lr)
                except NonFiniteError as exc:
                    raise NonFiniteError(f"{exc} at epoch {epoch}, batch {batch_index}") from None
                epoch_loss += loss * len(idx)
            report.epochs.append(
                EpochStats(epoch, lr, epoch_loss / n, time.perf_counter() - started)
            )
    return net, report


def block_size_sweep(
    frames,
    sizes,
    model: ModelConfig,
    cfg: TrainConfig,
    extraction: ExtractionConfig,
    sequence_name: str = "sequence",
) -> list[tuple[int, str, float]]:
    """Train one fresh `model` per block size and measure whole-frame PSNR of
    generated references on the last third of the frames (at least 2).
    Rows: (block_size, name, psnr). The sizes train on every usable CPU
    (`parallel.map_jobs`), each worker holding its own net and batches."""
    frames = [np.asarray(f) for f in frames]
    if len(frames) < 4:
        raise ConfigError(f"block_size_sweep needs at least 4 frames, got {len(frames)}")
    n_hold = max(2, int(round(len(frames) * (1.0 / 3.0))))
    train_frames = frames[: len(frames) - n_hold]
    holdout = frames[len(frames) - n_hold :]

    return map_jobs(partial(_size_row, train_frames, holdout, model, cfg, extraction,
                            sequence_name), sizes)


def _size_row(train_frames, holdout, model, cfg, extraction, name, size) -> tuple[int, str, float]:
    """The row of one `block_size_sweep` size."""
    ex = replace(extraction, block_size=int(size))
    pairs = np.concatenate([extract_pairs(prev, cur, ex)
                            for prev, cur in zip(train_frames, train_frames[1:])])
    if not len(pairs):
        raise ConfigError(f"no training pairs extracted at block size {size}")
    trained, _ = train(build_network(model), pairs, cfg)
    scores = [
        psnr(generate_reference(trained, holdout[i - 1]), holdout[i])
        for i in range(1, len(holdout))
    ]
    return int(size), name, float(np.mean(scores))
