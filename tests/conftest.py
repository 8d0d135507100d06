"""Shared oracles: finite-difference gradients and a brute-force convolution
with its brute-force gradients."""

import numpy as np
import pytest


def central_diff_grad(loss_fn, x, eps=1e-5):
    """Central finite differences of scalar loss_fn() w.r.t. every entry of x.

    Mutates x in place coordinate by coordinate and restores it; loss_fn must
    recompute the loss from the (possibly mutated) x.
    """
    grad = np.zeros(x.shape, dtype=np.float64)
    flat_x, flat_g = x.reshape(-1), grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = loss_fn()
        flat_x[i] = orig - eps
        lo = loss_fn()
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2.0 * eps)
    return grad


def central_diff_grad_at(loss_fn, x, flat_indices, eps=1e-5):
    """Finite differences at selected flat coordinates only (for big tensors)."""
    grad = np.zeros(len(flat_indices), dtype=np.float64)
    flat_x = x.reshape(-1)
    for n, i in enumerate(flat_indices):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = loss_fn()
        flat_x[i] = orig - eps
        lo = loss_fn()
        flat_x[i] = orig
        grad[n] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def naive_conv2d(x, weights, bias, dilation, padding):
    """Loop-based zero-padded dilated convolution; the independent oracle."""
    b, c, h, w = x.shape
    o, _, k, _ = weights.shape
    oh = h + 2 * padding - dilation * (k - 1)
    ow = w + 2 * padding - dilation * (k - 1)
    out = np.zeros((b, o, oh, ow), dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for y in range(oh):
                for xx in range(ow):
                    acc = float(bias[oi])
                    for ci in range(c):
                        for i in range(k):
                            for j in range(k):
                                yy = y + dilation * i - padding
                                xj = xx + dilation * j - padding
                                if 0 <= yy < h and 0 <= xj < w:
                                    acc += weights[oi, ci, i, j] * x[bi, ci, yy, xj]
                    out[bi, oi, y, xx] = acc
    return out


def naive_conv2d_backward(x, weights, dilation, padding, grad_out):
    """Loop-based gradients of :func:`naive_conv2d`: (grad_x, grad_w, grad_b)."""
    b, c, h, w = x.shape
    o, _, k, _ = weights.shape
    _, _, oh, ow = grad_out.shape
    grad_x = np.zeros(x.shape, dtype=np.float64)
    grad_w = np.zeros(weights.shape, dtype=np.float64)
    grad_b = np.zeros(o, dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for y in range(oh):
                for xx in range(ow):
                    g = float(grad_out[bi, oi, y, xx])
                    grad_b[oi] += g
                    for ci in range(c):
                        for i in range(k):
                            for j in range(k):
                                yy = y + dilation * i - padding
                                xj = xx + dilation * j - padding
                                if 0 <= yy < h and 0 <= xj < w:
                                    grad_x[bi, ci, yy, xj] += weights[oi, ci, i, j] * g
                                    grad_w[oi, ci, i, j] += x[bi, ci, yy, xj] * g
    return grad_x, grad_w, grad_b


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
