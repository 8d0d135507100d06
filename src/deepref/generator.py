"""The reference-picture generator network.

Topology: two 3x3 head convolutions (each + ReLU), three dilated-inception
blocks, and a final 3x3 convolution with no activation. Each block runs three
multi-scale convolution branches (receptive fields 3, 9 and 15), concatenates
them, and fuses with the block input through two 1x1 convolutions:

    out = ReLU( k * fuse(concat(branch1, branch2, branch3)) + skip(x) )

where ``k`` in [0, 1] weights how much of the newly learned features is kept
and ``skip`` is a 1x1 convolution that approximately carries the input
through. The whole network is same-padded, so it maps a single-channel plane
of any size >= the kernel size to a plane of identical size.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeMismatchError, check_int, check_real
from .fileio import atomic_write_bytes
from .nn import (
    ConvParams,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
    split_channels,
)

WEIGHT_MAGIC = b"DRPG"
WEIGHT_VERSION = 1

# (kernel, dilation) per conv, per branch; every branch starts with a 1x1
# channel reduction. Receptive fields: 3, 9, 15.
_BRANCH_LAYOUT = (
    ((1, 1), (3, 1)),
    ((1, 1), (3, 1), (3, 3)),
    ((1, 1), (3, 1), (3, 1), (3, 5)),
)
_NUM_BLOCKS = 3


@dataclass
class ModelConfig:
    head_channels: int = 64
    branch_reduce_channels: int = 32
    branch_out_channels: int = 32
    trunk_channels: int = 64
    k: float = 0.5
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("head_channels", "branch_reduce_channels",
                     "branch_out_channels", "trunk_channels"):
            check_int(name, getattr(self, name), 1)
        check_real("k", self.k, 0, 1)
        check_int("seed", self.seed, 0, None)  # default_rng takes any such integer
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be \"float32\" or \"float64\", got {self.dtype!r}")


@dataclass
class BranchSpec:
    """One multi-scale branch: a stack of convolutions, each followed by ReLU."""

    layers: list[ConvParams]

    @property
    def receptive_field(self) -> int:
        return 1 + sum(p.dilation * (p.kernel_size - 1) for p in self.layers)


@dataclass
class DilatedInceptionBlock:
    branches: list[BranchSpec]
    fuse: ConvParams  # 1x1 on the concatenated branch outputs
    skip: ConvParams  # 1x1 on the block input (approximate-identity branch)
    k: float


@dataclass
class GeneratorNet:
    head: list[ConvParams]
    blocks: list[DilatedInceptionBlock]
    tail: ConvParams
    config: ModelConfig


def build_network(config: ModelConfig) -> GeneratorNet:
    """Build the generator with seeded Kaiming-style initialization; the skip
    (approximate-identity) 1x1 convolutions start as exact identities so the
    stacked blocks begin as near-pass-through maps.

    Two builds from the same config are bit-identical.
    """
    rng = np.random.default_rng(config.seed)
    dtype = np.dtype(config.dtype)

    def conv(cin, cout, kernel, dilation=1):
        std = np.sqrt(2.0 / (cin * kernel * kernel))
        w = rng.normal(0.0, std, size=(cout, cin, kernel, kernel)).astype(dtype)
        return ConvParams(w, np.zeros(cout, dtype=dtype), dilation=dilation)

    def identity_conv(ch):
        w = np.zeros((ch, ch, 1, 1), dtype=dtype)
        w[np.arange(ch), np.arange(ch), 0, 0] = 1.0
        return ConvParams(w, np.zeros(ch, dtype=dtype))

    t = config.trunk_channels
    r = config.branch_reduce_channels
    o = config.branch_out_channels

    head = [conv(1, config.head_channels, 3), conv(config.head_channels, t, 3)]
    blocks = []
    for _ in range(_NUM_BLOCKS):
        branches = []
        for layout in _BRANCH_LAYOUT:
            layers, cin = [], t
            for kernel, dilation in layout:
                cout = r if kernel == 1 else o
                layers.append(conv(cin, cout, kernel, dilation))
                cin = cout
            branches.append(BranchSpec(layers))
        fuse = conv(len(branches) * o, t, 1)
        skip = identity_conv(t)
        blocks.append(DilatedInceptionBlock(branches, fuse, skip, config.k))
    tail = conv(t, 1, 3)
    return GeneratorNet(head, blocks, tail, config)


def named_params(net: GeneratorNet) -> list[tuple[str, ConvParams]]:
    """Every trainable convolution with its name, in fixed traversal order."""
    items = [(f"head{i + 1}", p) for i, p in enumerate(net.head)]
    for bi, blk in enumerate(net.blocks, start=1):
        for ri, branch in enumerate(blk.branches, start=1):
            for li, layer in enumerate(branch.layers, start=1):
                items.append((f"block{bi}.branch{ri}.conv{li}", layer))
        items.append((f"block{bi}.fuse", blk.fuse))
        items.append((f"block{bi}.skip", blk.skip))
    items.append(("tail", net.tail))
    return items


def _conv_relu_stack(layers, x: np.ndarray, cache: list | None = None) -> np.ndarray:
    """conv + ReLU per layer; appends (input, pre-activation) to `cache` if given."""
    for layer in layers:
        z = conv2d_forward(x, layer)
        if cache is not None:
            cache.append((x, z))
        x = relu(z)
    return x


def _conv_relu_stack_backward(layers, cache, g, grads, want_grad_input=True):
    """Backward through `_conv_relu_stack`; stores each layer's (grad_w, grad_b)
    under the layer and returns the gradient w.r.t. the stack input (None when
    `want_grad_input` is false)."""
    for li in reversed(range(len(layers))):
        h_in, z = cache[li]
        g, gw, gb = conv2d_backward(h_in, layers[li], relu_backward(z, g),
                                    want_grad_input=li > 0 or want_grad_input)
        grads[layers[li]] = (gw, gb)
    return g


def block_forward(block: DilatedInceptionBlock, x: np.ndarray, want_cache: bool = False):
    """out = ReLU(k * fuse(concat(branches(x))) + skip(x)); spatial dims preserved."""
    branch_caches = [[] if want_cache else None for _ in block.branches]
    phi = concat_channels([_conv_relu_stack(branch.layers, x, cache)
                           for branch, cache in zip(block.branches, branch_caches)])
    pre = block.k * conv2d_forward(phi, block.fuse) + conv2d_forward(x, block.skip)
    out = relu(pre)
    if want_cache:
        return out, (x, branch_caches, phi, pre)
    return out


def _block_backward(block, cache, grad_out, grads):
    x, branch_caches, phi, pre = cache
    g_pre = relu_backward(pre, grad_out)
    g_phi, gw, gb = conv2d_backward(phi, block.fuse, block.k * g_pre)
    grads[block.fuse] = (gw, gb)
    g_x, gw, gb = conv2d_backward(x, block.skip, g_pre)
    grads[block.skip] = (gw, gb)
    parts = split_channels(g_phi, [b.layers[-1].out_ch for b in block.branches])
    for branch, cache_b, g in zip(block.branches, branch_caches, parts):
        g_x = g_x + _conv_relu_stack_backward(branch.layers, cache_b, g, grads)
    return g_x


def _trunk(net: GeneratorNet, x: np.ndarray, head_cache=None, block_caches=None):
    """Head and blocks, lazily: yields (stage name, activation) after each head
    conv and each block, so a caller can stop at any `FEATURE_SELECTORS` stage.
    Backward caches go to the given lists."""
    for i, layer in enumerate(net.head, start=1):
        x = _conv_relu_stack([layer], x, head_cache)
        yield f"head{i}", x
    for i, blk in enumerate(net.blocks, start=1):
        if block_caches is None:
            x = block_forward(blk, x)
        else:
            x, cache = block_forward(blk, x, want_cache=True)
            block_caches.append(cache)
        yield f"block{i}", x


def net_forward(net: GeneratorNet, x: np.ndarray, want_cache: bool = False):
    """Full forward pass on a (batch, 1, H, W) tensor in the [0,1] domain."""
    head_cache, block_caches = ([], []) if want_cache else (None, None)
    for _, h in _trunk(net, x, head_cache, block_caches):
        pass
    out = conv2d_forward(h, net.tail)
    if want_cache:
        return out, (head_cache, block_caches, h)
    return out


def net_backward(net: GeneratorNet, cache, grad_out: np.ndarray, want_grad_input: bool = True):
    """Backward through the fixed graph; returns {name: (grad_w, grad_b)} and the
    gradient w.r.t. the network input, or None for it when `want_grad_input` is
    false (training needs only the parameter gradients)."""
    head_cache, block_caches, tail_in = cache
    grads = {}
    g, gw, gb = conv2d_backward(tail_in, net.tail, grad_out)
    grads[net.tail] = (gw, gb)
    for blk, blk_cache in zip(reversed(net.blocks), reversed(block_caches)):
        g = _block_backward(blk, blk_cache, g, grads)
    g = _conv_relu_stack_backward(net.head, head_cache, g, grads, want_grad_input)
    return {name: grads[p] for name, p in named_params(net)}, g


def normalize_plane(planes: np.ndarray, dtype) -> np.ndarray:
    """8-bit (H, W) plane or (N, H, W) stack -> (N, 1, H, W) tensor in [0, 1]."""
    x = np.asarray(planes, dtype=dtype) / 255.0
    return x.reshape(-1, 1, *x.shape[-2:])


def denormalize_plane(x: np.ndarray) -> np.ndarray:
    """[0, 1] tensor values -> rounded, clamped 8-bit plane."""
    return np.clip(np.rint(np.asarray(x, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def generate_reference(net: GeneratorNet, frame: np.ndarray) -> np.ndarray:
    """Run the whole frame through the generator; output dims equal input dims."""
    frame = np.asarray(frame)
    if frame.ndim != 2:
        raise ShapeMismatchError(f"frame must be 2-D, got {frame.shape}")
    if min(frame.shape) < net.tail.kernel_size:
        raise ShapeMismatchError(
            f"frame {frame.shape} smaller than the {net.tail.kernel_size}x"
            f"{net.tail.kernel_size} tail kernel"
        )
    x = normalize_plane(frame, np.dtype(net.config.dtype))
    y = net_forward(net, x)
    return denormalize_plane(y[0, 0])


FEATURE_SELECTORS = ("head1", "head2", "block1", "block2", "block3")


def dump_feature_maps(net: GeneratorNet, frame: np.ndarray, layer_selector: str) -> list[np.ndarray]:
    """Min-max normalize every channel of the selected activation to 8-bit planes.

    Constant channels map to 0.
    """
    if layer_selector not in FEATURE_SELECTORS:
        raise ConfigError(
            f"unknown feature selector {layer_selector!r}; choose from {FEATURE_SELECTORS}"
        )
    x = normalize_plane(np.asarray(frame), np.dtype(net.config.dtype))
    act = next(h for name, h in _trunk(net, x) if name == layer_selector)[0]
    planes = []
    for chan in act:
        lo, hi = float(chan.min()), float(chan.max())
        if hi == lo:
            planes.append(np.zeros(chan.shape, dtype=np.uint8))
        else:
            planes.append(np.rint((chan - lo) / (hi - lo) * 255.0).astype(np.uint8))
    return planes


def save_weights(net: GeneratorNet, path) -> None:
    """Binary weight file: magic, version, then named little-endian f32 tensors."""
    tensors: list[tuple[str, np.ndarray]] = []
    for name, p in named_params(net):
        tensors.append((f"{name}.weight", p.weights))
        tensors.append((f"{name}.bias", p.bias))
    tensors.append(("k", np.array([blk.k for blk in net.blocks], dtype=np.float32)))

    buf = bytearray()
    buf += WEIGHT_MAGIC
    buf += struct.pack("<II", WEIGHT_VERSION, len(tensors))
    for name, arr in tensors:
        encoded = name.encode("utf-8")
        buf += struct.pack("<H", len(encoded)) + encoded
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    atomic_write_bytes(path, bytes(buf))


def _parse_weight_file(data: bytes) -> dict[str, np.ndarray]:
    if data[:4] != WEIGHT_MAGIC:
        raise FormatError(f"bad weight-file magic {data[:4]!r}")
    try:
        version, count = struct.unpack_from("<II", data, 4)
        if version != WEIGHT_VERSION:
            raise FormatError(f"unsupported weight-file version {version}")
        offset = 12
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            if len(data) < offset + name_len:
                raise FormatError("truncated weight file inside tensor name")
            try:
                name = data[offset : offset + name_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"tensor name at byte {offset} is not UTF-8") from exc
            offset += name_len
            (ndim,) = struct.unpack_from("<B", data, offset)
            offset += 1
            if ndim > 4:
                raise FormatError(f"tensor {name!r} has {ndim} dims; at most 4 are stored")
            dims = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            if 0 in dims:  # no layer is empty, and numpy refuses some such shapes
                raise FormatError(f"tensor {name!r} has an empty dim: shape {dims}")
            size = math.prod(dims)  # exact; an int64 product can wrap to 0
            end = offset + 4 * size
            if end > len(data):
                raise FormatError(f"truncated weight file in tensor {name!r}")
            tensors[name] = np.frombuffer(data[offset:end], dtype="<f4").reshape(dims)
            if not np.all(np.isfinite(tensors[name])):
                raise FormatError(f"tensor {name!r} holds NaN or Inf")
            offset = end
        if offset != len(data):
            raise FormatError(f"{len(data) - offset} trailing bytes after last tensor")
        return tensors
    except struct.error as exc:
        raise FormatError(f"truncated weight file: {exc}") from exc


def load_weights(path) -> GeneratorNet:
    """Rebuild a network from a weight file; shapes are validated per layer."""
    with open(path, "rb") as fh:
        tensors = _parse_weight_file(fh.read())

    # the four weights whose out-channel counts give the channel widths
    width_tensors = ("head1.weight", "head2.weight",
                     "block1.branch1.conv1.weight", "block1.branch1.conv2.weight")
    for required in (*width_tensors, "k"):
        if required not in tensors:
            raise FormatError(f"weight file is missing tensor {required!r}")
    for name in width_tensors:
        if tensors[name].ndim != 4:
            raise FormatError(f"tensor {name!r} has shape {tensors[name].shape}; "
                              f"a conv weight has 4 dims")
    ks = tensors["k"]
    if ks.shape != (_NUM_BLOCKS,):
        raise FormatError(f"k tensor has shape {ks.shape}, expected ({_NUM_BLOCKS},)")
    for k in ks:
        if not 0.0 <= k <= 1.0:
            raise FormatError(f"stored k {float(k)} outside [0,1]")
    config = ModelConfig(
        head_channels=tensors["head1.weight"].shape[0],
        branch_reduce_channels=tensors["block1.branch1.conv1.weight"].shape[0],
        branch_out_channels=tensors["block1.branch1.conv2.weight"].shape[0],
        trunk_channels=tensors["head2.weight"].shape[0],
        k=float(ks[0]),
    )
    net = build_network(config)

    expected = {"k"}
    for name, _ in named_params(net):
        expected.update((f"{name}.weight", f"{name}.bias"))
    missing = expected - set(tensors)
    unexpected = set(tensors) - expected
    if missing:
        raise FormatError(f"weight file is missing tensors: {sorted(missing)}")
    if unexpected:
        raise FormatError(f"weight file has unexpected tensors: {sorted(unexpected)}")

    for name, p in named_params(net):
        for part, current in (("weight", p.weights), ("bias", p.bias)):
            arr = tensors[f"{name}.{part}"]
            if arr.shape != current.shape:
                raise FormatError(
                    f"layer {name}: {part} shape {arr.shape} != expected {current.shape}"
                )
        p.weights = tensors[f"{name}.weight"].astype(np.float32)
        p.bias = tensors[f"{name}.bias"].astype(np.float32)
    for blk, k in zip(net.blocks, ks):
        blk.k = float(k)
    return net
