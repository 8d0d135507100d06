"""Shared oracles: finite-difference gradients, a brute-force convolution
with its brute-force gradients, the plain im2col engine and the per-block
Lucas-Kanade solve."""

import math
import os

# one BLAS thread, as the benchmark and its recorded references run; set
# before the first numpy import, which loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from deepref import flow
from deepref.errors import ShapeMismatchError


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


def branch_layers(net, block, branch):
    """The conv layers of one branch (both counted from 1), input side first."""
    prefix = f"block{block}.branch{branch}."
    return [p for name, p in net.layers.items() if name.startswith(prefix)]


# The im2col + GEMM engine with its original copies and col2im, kept as the
# byte-level oracle: the kernels in deepref.nn must return the same bits,
# because training is chaotic and any change to a summation order moves the
# recorded losses within a few dozen epochs.


def _plain_pad(x, p):
    if not p:
        return x
    b, c, h, w = x.shape
    x_pad = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    x_pad[:, :, p : p + h, p : p + w] = x
    return x_pad


def _plain_cols(x_pad, k, d, oh, ow):
    b, c = x_pad.shape[:2]
    xt = x_pad.transpose(1, 0, 2, 3)
    if k == 1:
        return xt.reshape(c, b * oh * ow)
    cols = np.empty((c, k, k, b, oh, ow), dtype=x_pad.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xt[:, :, i * d : i * d + oh, j * d : j * d + ow]
    return cols.reshape(c * k * k, b * oh * ow)


def _plain_rows(x_pad, k, d, oh, ow):
    if k == 1:
        b, c = x_pad.shape[:2]
        return x_pad.transpose(0, 2, 3, 1).reshape(b * oh * ow, c)
    return np.ascontiguousarray(_plain_cols(x_pad, k, d, oh, ow).T)


def _plain_output_hw(x, params):
    reach = params.dilation * (params.kernel_size - 1)
    return x.shape[2] + 2 * params.padding - reach, x.shape[3] + 2 * params.padding - reach


def plain_conv2d_forward(x, params):
    """Forward pass of the plain im2col engine (no validation)."""
    b = x.shape[0]
    oh, ow = _plain_output_hw(x, params)
    cols = _plain_cols(_plain_pad(x, params.padding), params.kernel_size, params.dilation, oh, ow)
    out = np.matmul(params.weights.reshape(params.out_ch, -1), cols)
    out = out.reshape(params.out_ch, b, oh, ow).transpose(1, 0, 2, 3)
    out += params.bias[None, :, None, None]
    return out


def plain_conv2d_backward(x, params, grad_out):
    """(grad_input, grad_weights, grad_bias) of the plain im2col engine."""
    oh, ow = _plain_output_hw(x, params)
    b, c, h, w = x.shape
    k, d, p = params.kernel_size, params.dilation, params.padding

    g = grad_out.transpose(1, 0, 2, 3).reshape(params.out_ch, b * oh * ow)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weights = np.matmul(g, _plain_rows(_plain_pad(x, p), k, d, oh, ow))
    grad_weights = grad_weights.reshape(params.weights.shape)

    grad_cols = np.matmul(params.weights.reshape(params.out_ch, -1).T, g)
    if k == 1:
        grad_pad = grad_cols.reshape(c, b, oh, ow).transpose(1, 0, 2, 3)
    else:
        grad_cols = grad_cols.reshape(c, k, k, b, oh, ow)
        grad_pad = np.zeros((b, c, h + 2 * p, w + 2 * p), dtype=grad_cols.dtype)
        grad_t = grad_pad.transpose(1, 0, 2, 3)
        for i in range(k):
            for j in range(k):
                grad_t[:, :, i * d : i * d + oh, j * d : j * d + ow] += grad_cols[:, i, j]
    grad_input = grad_pad[:, :, p : p + h, p : p + w] if p else grad_pad
    return np.ascontiguousarray(grad_input), grad_weights, grad_bias


def where_relu_backward(x, grad_out):
    """ReLU backward as a select, the form `deepref.nn.relu_backward` replaced."""
    return np.where(np.asarray(x) > 0, grad_out, 0)



def store_fusion_factors(path, ks):
    """Overwrite the k tensor of a weight file, the last one `save_weights`
    writes: a net holds one k, so unequal ones are made here."""
    data = path.read_bytes()
    path.write_bytes(data[: -4 * len(ks)] + np.asarray(ks, dtype="<f4").tobytes())

# The per-block Lucas-Kanade solve that `deepref.flow` batched, kept as the
# oracle: every block of a batch must get the bits this gives it.


def naive_bilinear(img, ys, xs):
    """Bilinear sampling with clamp addressing."""
    h, w = img.shape
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = ys - y0
    fx = xs - x0
    top = img[y0, x0] * (1.0 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1.0 - fx) + img[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def naive_edge_gradients(frame):
    """Central differences with edge replication, so border blocks work too."""
    padded = np.pad(frame, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    return gx, gy


def naive_lk_block(ref, gx, gy, cur, origin, size):
    """((vx, vy), degenerate) of one block; reads the flow constants at call time."""
    x0, y0 = origin
    w, h = size
    fh, fw = ref.shape
    if not (0 <= x0 and x0 + w <= fw and 0 <= y0 and y0 + h <= fh):
        raise ShapeMismatchError(f"block ({x0},{y0}) size {w}x{h} outside {fw}x{fh} frame")

    ix = gx[y0 : y0 + h, x0 : x0 + w]
    iy = gy[y0 : y0 + h, x0 : x0 + w]
    g11 = float(np.sum(ix * ix))
    g12 = float(np.sum(ix * iy))
    g22 = float(np.sum(iy * iy))
    half_trace = 0.5 * (g11 + g22)
    det = g11 * g22 - g12 * g12
    min_eig = half_trace - math.sqrt(max(half_trace * half_trace - det, 0.0))
    if min_eig < flow.DEGENERACY_THRESHOLD * (w * h):
        return (0.0, 0.0), True

    target = cur[y0 : y0 + h, x0 : x0 + w]
    grid_y, grid_x = np.mgrid[y0 : y0 + h, x0 : x0 + w]
    grid_y = grid_y.astype(np.float64)
    grid_x = grid_x.astype(np.float64)
    vx = vy = 0.0
    for _ in range(flow.LK_ITERATIONS):
        sy = grid_y + vy
        sx = grid_x + vx
        it = target - naive_bilinear(ref, sy, sx)
        ixw = naive_bilinear(gx, sy, sx)
        iyw = naive_bilinear(gy, sy, sx)
        g11 = float(np.sum(ixw * ixw))
        g12 = float(np.sum(ixw * iyw))
        g22 = float(np.sum(iyw * iyw))
        det = g11 * g22 - g12 * g12
        if det <= 1e-12 * (w * h) ** 2:
            break
        b1 = float(np.sum(ixw * it))
        b2 = float(np.sum(iyw * it))
        dvx = (g22 * b1 - g12 * b2) / det
        dvy = (g11 * b2 - g12 * b1) / det
        vx += dvx
        vy += dvy
        if math.hypot(dvx, dvy) < flow.LK_EPS:
            break
    vx = min(max(vx, -flow.MV_CLAMP), flow.MV_CLAMP)
    vy = min(max(vy, -flow.MV_CLAMP), flow.MV_CLAMP)
    return (vx, vy), False
