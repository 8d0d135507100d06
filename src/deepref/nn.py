"""Minimal deterministic NN primitives on plain numpy arrays.

Provides exactly the layers the reference-picture generator needs: standard
and dilated 2-D convolution with explicit analytic backward passes, ReLU,
the channel split that backpropagates a concatenation, and the Adadelta
update rule. Arrays are laid out
(batch, channel, height, width). All functions are pure (state is passed
explicitly).

Convolution is im2col + GEMM (Chellapilla et al., 2006): the k*k dilated
taps of the zero-padded input are copied into a (c*k*k, b*h*w) matrix,
so the weight gradient and the input gradient are each one ``np.matmul``
over the whole batch. The summation order is fixed by the BLAS kernels and
the operand layouts, so repeated calls are bit-identical on one machine with
OpenBLAS at one thread.

The forward pass builds a k>1 im2col matrix larger than ``COLS_BYTES``
(256 KiB) in bands of whole output rows of at most that size (at least one
row; whole items per band once one fits), one GEMM per band into that band's
columns of the output, so its workspace is one band instead of 2,304 bytes
per pixel for a 64-channel 3x3 layer. Training and inference run this one
forward. Each output column sees the same operands as in one GEMM over the
whole matrix, but OpenBLAS picks the kernels of a GEMM's last columns by the
column count, so a band can round its last columns differently from it; the
losses recorded in perfbench/reference and the generated planes came out
byte-identical all the same. The backward pass is not banded: splitting the
weight-gradient contraction or col2im's per-pixel tap order would change
training's bits.

Training is chaotic, so every backward kernel, and the forward of a one-band
matrix, keeps the bits of the plain engine it replaced (kept in the tests as
the oracle): each GEMM gets the same operands in the same layouts, and only
the copies and adds around it are rearranged. The weight-gradient matrix is
filled tap by tap from a channels-last copy of the input, so each copy runs
over w*c samples rather than w. col2im copies each tap's gradient into
zero-padded (hp, wp) planes, one per channel and item, then adds them as one
contiguous run into a flat channel-major buffer, shifted by d*(i*wp + j). The
extra adds are exact zeros into sums that start at +0, and the taps keep
their order, so every input pixel sums the same values in the same order.
GEMMs over padded rows would save the copies, but OpenBLAS computes the last
columns of a GEMM with other kernels, chosen by the column count, and on some
shapes they round differently: padding moves pixels across that boundary and
changes their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError


def same_padding(kernel_size: int, dilation: int) -> int:
    """Zero-padding per side that preserves spatial dims for odd kernels."""
    return dilation * (kernel_size - 1) // 2


@dataclass(eq=False)
class ConvParams:
    """Square, odd-kernel 2-D convolution parameters; stride is fixed at 1
    and the zero padding is "same", so a conv keeps H and W. Compares and
    hashes by identity.
    """

    weights: np.ndarray  # (out_ch, in_ch, k, k)
    bias: np.ndarray  # (out_ch,)
    dilation: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 4:
            raise ShapeMismatchError(
                f"conv weights must be 4-D (out,in,kH,kW), got {self.weights.shape}"
            )
        if self.weights.shape[2] != self.weights.shape[3]:
            raise ShapeMismatchError(
                f"kernel must be square, got {self.weights.shape[2]}x{self.weights.shape[3]}"
            )
        if self.kernel_size % 2 == 0:
            raise ShapeMismatchError(
                f"kernel size must be odd for \"same\" padding, got {self.kernel_size}"
            )
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatchError(
                f"bias shape {self.bias.shape} does not match out_ch axis "
                f"({self.weights.shape[0]})"
            )
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def out_ch(self) -> int:
        return self.weights.shape[0]

    @property
    def in_ch(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def padding(self) -> int:
        return same_padding(self.kernel_size, self.dilation)


def _check_4d(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeMismatchError(f"{what} must be 4-D (batch,channel,H,W), got {x.shape}")
    return x


def _rows(x: np.ndarray, k: int, d: int) -> np.ndarray:
    """The (b*h*w, c*k*k) im2col matrix of x, for the weight gradient.

    Row n*h*w + y*w + x holds output pixel (y, x) of batch item n; column
    ch*k*k + i*k + j is tap (i, j) of channel ch, matching
    ``weights.reshape(out_ch, -1)``. Its memory layout is part of the result:
    a transposed GEMM operand selects another OpenBLAS kernel, which rounds
    differently, and zero rows for padding pixels would change how BLAS
    blocks the long contraction. A 1x1 kernel takes numpy's reshape of the
    input (a strided view of a channel-major x, else a C-ordered copy);
    larger kernels take a C-ordered matrix, filled tap by tap from a
    channels-last copy of the padded input, so that each copy runs over w*c
    samples. Keep these layouts: with them, training reproduces the losses
    recorded in perfbench/reference bit for bit.
    """
    b, c, h, w = x.shape
    if k == 1:
        return x.transpose(0, 2, 3, 1).reshape(b * h * w, c)
    p = same_padding(k, d)
    x_last = np.zeros((b, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    x_last[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
    rows = np.empty((b, h, w, c, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            rows[..., i, j] = x_last[:, i * d : i * d + h, j * d : j * d + w]
    return rows.reshape(b * h * w, c * k * k)


def _check_conv_input(x: np.ndarray, params: ConvParams) -> np.ndarray:
    x = _check_4d(x, "conv input")
    if x.shape[1] != params.in_ch:
        raise ShapeMismatchError(
            f"channel axis mismatch: input has {x.shape[1]} channels, "
            f"weights expect {params.in_ch}"
        )
    if not x.shape[2] or not x.shape[3]:
        raise ShapeMismatchError(f"conv input {x.shape} has no pixels")
    return x


# largest im2col band the forward pass builds (module docstring): on `sweep`,
# 256 KiB bands ran 8% faster than 1 MiB ones
COLS_BYTES = 1 << 18


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """out[b,o,y,x] = bias[o] + sum_{c,i,j} w[o,c,i,j] * in[b,c,y+d(i-(k-1)/2),x+d(j-(k-1)/2)]

    with zero padding outside bounds, so H and W are preserved. The result
    is a channel-major view: out.transpose(1, 0, 2, 3) is contiguous. A k>1
    im2col matrix larger than ``COLS_BYTES`` is built in bands of output rows.
    """
    x = _check_conv_input(x, params)
    b, c, oh, ow = x.shape
    k, d, p = params.kernel_size, params.dilation, params.padding
    w = params.weights.reshape(params.out_ch, -1)
    if k == 1:
        # the im2col matrix is a reshape, free when x is channel-major, as
        # conv outputs are
        out = np.matmul(w, x.transpose(1, 0, 2, 3).reshape(c, b * oh * ow))
    else:
        # row ch*k*k + i*k + j of the matrix is tap (i, j) of channel ch,
        # matching w; column n*oh*ow + y*ow + x is output pixel (y, x) of
        # item n. Bands of whole output rows (whole items once one fits) are
        # copied from a view of every tap into one reused buffer, and each
        # band's GEMM writes its own columns of the output
        x_pad = np.zeros((b, c, oh + 2 * p, ow + 2 * p), dtype=x.dtype)
        x_pad[:, :, p : p + oh, p : p + ow] = x
        out = np.empty((params.out_ch, b * oh * ow), dtype=np.result_type(w, x_pad))
        rows = max(1, COLS_BYTES // (w.shape[1] * ow * x_pad.itemsize))
        items, rows = max(1, rows // oh), min(rows, oh)
        # every tap as one (c, k, k, b, oh, ow) view of x_pad; built from its
        # buffer, since sliding_window_view cost 19 us a call and 3% of `train`
        s0, s1, s2, s3 = x_pad.strides
        taps = np.ndarray((c, k, k, b, oh, ow), x_pad.dtype, x_pad, 0,
                          (s1, d * s2, d * s3, s0, s2, s3))
        buf = np.empty(w.shape[1] * items * rows * ow, dtype=x_pad.dtype)
        for n in range(0, b, items):
            for y in range(0, oh, rows):
                band = taps[:, :, :, n : n + items, y : y + rows]
                cols = buf[: band.size].reshape(band.shape)
                cols[...] = band
                start = (n * oh + y) * ow
                np.matmul(w, cols.reshape(w.shape[1], -1),
                          out=out[:, start : start + band.size // w.shape[1]])
    out = out.reshape(params.out_ch, b, oh, ow).transpose(1, 0, 2, 3)
    out += params.bias[None, :, None, None]
    return out


def conv2d_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray, want_grad_input: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`conv2d_forward`.

    Returns (grad_input, grad_weights, grad_bias) with the shapes of their
    primal counterparts; grad_input is C-contiguous, or None when
    `want_grad_input` is false (the first layer of a network has no use for it).
    """
    x = _check_conv_input(x, params)
    grad_out = _check_4d(grad_out, "grad_out")
    b, c, h, w = x.shape
    expect = (b, params.out_ch, h, w)
    if grad_out.shape != expect:
        raise ShapeMismatchError(f"grad_out shape {grad_out.shape} != forward output {expect}")
    k, d, p = params.kernel_size, params.dilation, params.padding

    g = grad_out.transpose(1, 0, 2, 3).reshape(params.out_ch, b * h * w)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    # the im2col matrix is rebuilt rather than kept from the forward pass:
    # keeping it for every layer would hold k*k copies of each activation
    grad_weights = np.matmul(g, _rows(x, k, d)).reshape(params.weights.shape)
    if not want_grad_input:
        return None, grad_weights, grad_bias

    weights_t = params.weights.reshape(params.out_ch, -1).T
    if k == 1:
        grad_input = np.matmul(weights_t, g).reshape(c, b, h, w).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(grad_input), grad_weights, grad_bias
    if params.out_ch == 1:
        # numpy runs a matmul with a contraction of 1 outside BLAS, ~20x
        # slower; the broadcast multiply rounds each product once, as it does,
        # and a -0 product is absorbed by the +0 start of col2im's sums
        grad_cols = weights_t * g
    else:
        grad_cols = np.matmul(weights_t, g)
    # col2im: each tap's gradient lands on the input pixels it read, as one
    # contiguous run over zero-padded planes (module docstring)
    hp, wp = h + 2 * p, w + 2 * p
    grad_cols = grad_cols.reshape(c, k, k, b, h, w)
    size = c * b * hp * wp
    # slack for the run at the largest tap offset
    grad_flat = np.zeros(size + d * (k - 1) * (wp + 1), dtype=grad_cols.dtype)
    tap_pad = np.zeros((c, b, hp, wp), dtype=grad_cols.dtype)  # the padding stays 0
    for i in range(k):
        for j in range(k):
            tap_pad[:, :, :h, :w] = grad_cols[:, i, j]
            off = d * (i * wp + j)
            grad_flat[off : off + size] += tap_pad.reshape(-1)
    del grad_cols, tap_pad
    grad_pad = grad_flat[:size].reshape(c, b, hp, wp)
    grad_input = grad_pad[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)
    return np.ascontiguousarray(grad_input), grad_weights, grad_bias


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), into `out` if given (it may be x itself)."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where x > 0; subgradient at exactly 0 is 0.

    `x` may be the ReLU's input or its output: max(0, x) > 0 exactly where
    x > 0 (NaN in neither), so the mask is the same and a ReLU run in place
    needs no copy of its input. The mask multiplies, about 6x faster than a
    select, so a masked entry is -0 where grad_out is negative; training's
    losses and weights keep their bits (tested against the select form).
    """
    if np.shape(x) != np.shape(grad_out):
        raise ShapeMismatchError(
            f"relu grad_out shape {np.shape(grad_out)} != input shape {np.shape(x)}"
        )
    return grad_out * (np.asarray(x) > 0)


def split_channels(grad_out: np.ndarray, channel_counts: list[int]) -> list[np.ndarray]:
    """Backward of concat: split grad_out by the original channel ranges,
    as views (the generator also slices its concatenations with it)."""
    grad_out = _check_4d(grad_out, "grad_out")
    if sum(channel_counts) != grad_out.shape[1]:
        raise ShapeMismatchError(
            f"channel counts {channel_counts} do not sum to {grad_out.shape[1]}"
        )
    out, start = [], 0
    for count in channel_counts:
        out.append(grad_out[:, start : start + count])
        start += count
    return out


# Adadelta's decay rate and conditioning constant (Zeiler, 2012)
RHO = 0.95
EPS = 1e-6


class AdadeltaState(NamedTuple):
    """Running averages for one parameter tensor."""

    acc_grad_sq: np.ndarray  # E[g^2]
    acc_delta_sq: np.ndarray  # E[delta^2]

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdadeltaState":
        return cls(np.zeros_like(param), np.zeros_like(param))


def adadelta_step(
    param: np.ndarray, grad: np.ndarray, state: AdadeltaState, lr: float
) -> tuple[np.ndarray, AdadeltaState]:
    """One Adadelta update; returns the new parameter and new state.

        E[g^2]  <- RHO*E[g^2] + (1-RHO)*g^2
        delta    = -sqrt((E[d^2]+EPS) / (E[g^2]+EPS)) * g
        E[d^2]  <- RHO*E[d^2] + (1-RHO)*delta^2
        param   <- param + lr*delta

    ``lr`` is a plain scale on the step. An update whose parameter or running
    averages are not finite (a NaN or Inf gradient, or an overflow) raises
    NonFiniteError; the inputs are never modified.
    """
    if param.shape != grad.shape:
        raise ShapeMismatchError(f"grad shape {grad.shape} != param shape {param.shape}")
    if state.acc_grad_sq.shape != param.shape:
        raise ShapeMismatchError(
            f"state shape {state.acc_grad_sq.shape} != param shape {param.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        eg = RHO * state.acc_grad_sq + (1.0 - RHO) * grad * grad
        delta = -np.sqrt((state.acc_delta_sq + EPS) / (eg + EPS)) * grad
        ed = RHO * state.acc_delta_sq + (1.0 - RHO) * delta * delta
        new_param = param + lr * delta
    if not all(np.all(np.isfinite(a)) for a in (new_param, eg, ed)):
        raise NonFiniteError("Adadelta update is not finite; update aborted")
    return new_param, AdadeltaState(eg, ed)
