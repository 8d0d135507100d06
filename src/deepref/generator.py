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

from .errors import (ConfigError, FormatError, NonFiniteError, check_int, check_plane,
                     check_real)
from .fileio import atomic_write_bytes
from .nn import (
    ConvParams,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
    split_channels,
)

WEIGHT_MAGIC = b"DRPG"
WEIGHT_VERSION = 1

# (kernel, dilation) per conv, per branch; every branch starts with a 1x1
# channel reduction.
_BRANCH_LAYOUT = (
    ((1, 1), (3, 1)),
    ((1, 1), (3, 1), (3, 3)),
    ((1, 1), (3, 1), (3, 1), (3, 5)),
)
_NUM_BLOCKS = 3
# the side of the square each branch sees: 3, 9, 15
BRANCH_RECEPTIVE_FIELDS = tuple(1 + sum(dilation * (kernel - 1) for kernel, dilation in layout)
                                for layout in _BRANCH_LAYOUT)


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
class GeneratorNet:
    config: ModelConfig
    layers: dict[str, ConvParams]  # every convolution by name, in `_layer_specs` order


# The layer names, looked up by the passes below: the head convolutions, then
# per block its stage name, the conv names of each branch, and its fuse (1x1
# on the concatenated branch outputs) and skip (1x1 approximate identity on
# the block input) convolutions, then the tail.
_HEAD = ("head1", "head2")
_BLOCKS = tuple(
    (f"block{b}",
     tuple(tuple(f"block{b}.branch{r}.conv{c}" for c in range(1, len(layout) + 1))
           for r, layout in enumerate(_BRANCH_LAYOUT, start=1)),
     f"block{b}.fuse", f"block{b}.skip")
    for b in range(1, _NUM_BLOCKS + 1)
)
_TAIL = "tail"


def _layer_specs(config: ModelConfig) -> list[tuple[str, int, int, int, int]]:
    """(name, in_ch, out_ch, kernel, dilation) of every convolution in
    traversal order. Computed from the config alone, so a weight file is
    checked before any layer is allocated."""
    t = config.trunk_channels
    r = config.branch_reduce_channels
    o = config.branch_out_channels
    specs = [(_HEAD[0], 1, config.head_channels, 3, 1), (_HEAD[1], config.head_channels, t, 3, 1)]
    for _, branches, fuse, skip in _BLOCKS:
        for names, layout in zip(branches, _BRANCH_LAYOUT):
            cin = t
            for name, (kernel, dilation) in zip(names, layout):
                cout = r if kernel == 1 else o
                specs.append((name, cin, cout, kernel, dilation))
                cin = cout
        specs.append((fuse, len(_BRANCH_LAYOUT) * o, t, 1, 1))
        specs.append((skip, t, t, 1, 1))
    specs.append((_TAIL, t, 1, 3, 1))
    return specs


def build_network(config: ModelConfig) -> GeneratorNet:
    """Build the generator with seeded Kaiming-style initialization; the skip
    (approximate-identity) 1x1 convolutions start as exact identities so the
    stacked blocks begin as near-pass-through maps.

    Two builds from the same config are bit-identical.
    """
    rng = np.random.default_rng(config.seed)
    dtype = np.dtype(config.dtype)
    layers = {}
    for name, cin, cout, kernel, dilation in _layer_specs(config):
        if name.endswith(".skip"):
            w = np.zeros((cout, cin, 1, 1), dtype=dtype)
            w[np.arange(cout), np.arange(cin), 0, 0] = 1.0
        else:
            std = np.sqrt(2.0 / (cin * kernel * kernel))
            w = rng.normal(0.0, std, size=(cout, cin, kernel, kernel)).astype(dtype)
        layers[name] = ConvParams(w, np.zeros(cout, dtype=dtype), dilation=dilation)
    return GeneratorNet(config, layers)


def _conv_relu_stack(net, names, x: np.ndarray, cache: dict | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """conv + ReLU per named layer, each ReLU overwriting its conv output but
    the last, which writes into `out` if given (a block's channels of `phi`).
    With a `cache`, stores each conv's input under its name (the ReLU output
    of the layer before, so each activation is held once)."""
    last = len(names) - 1
    for li, name in enumerate(names):
        if cache is not None:
            cache[name] = x
        z = conv2d_forward(x, net.layers[name])
        x = relu(z, out=out if li == last and out is not None else z)
    return x


def _branch_widths(net, branches) -> list[int]:
    return [net.layers[names[-1]].out_ch for names in branches]


def block_forward(net: GeneratorNet, i: int, x: np.ndarray, cache: dict | None = None):
    """Block i (from 0): out = ReLU(k * fuse(concat(branches(x))) + skip(x));
    spatial dims preserved. Each branch's last ReLU writes into its channels
    of the concatenation `phi`. A `cache` gets each conv's input by name:
    the fuse conv's is `phi`, the skip conv's the block input `x`."""
    _, branches, fuse, skip = _BLOCKS[i]
    widths = _branch_widths(net, branches)
    dtype = np.result_type(x, *(net.layers[name].weights for names in branches for name in names))
    # channel-major, as conv outputs and their concatenation are: the fuse
    # conv's GEMM operands keep their layouts, and so training its bits
    phi = np.empty((sum(widths), x.shape[0], *x.shape[2:]), dtype=dtype).transpose(1, 0, 2, 3)
    for names, part in zip(branches, split_channels(phi, widths)):
        _conv_relu_stack(net, names, x, cache, out=part)
    if cache is not None:
        cache[fuse], cache[skip] = phi, x
    out = conv2d_forward(phi, net.layers[fuse])
    out *= net.config.k
    out += conv2d_forward(x, net.layers[skip])
    relu(out, out=out)
    return out


def _trunk(net: GeneratorNet, x: np.ndarray, cache: dict | None = None):
    """Head and blocks, lazily: yields (stage name, activation) after each head
    conv and each block, so a caller can stop at any `FEATURE_SELECTORS` stage.
    Conv inputs go to the given `cache`."""
    for name in _HEAD:
        x = _conv_relu_stack(net, (name,), x, cache)
        yield name, x
    for i, (stage, *_) in enumerate(_BLOCKS):
        x = block_forward(net, i, x, cache)
        yield stage, x


def net_forward(net: GeneratorNet, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Full forward pass on a (batch, 1, H, W) tensor in the [0,1] domain.

    Training and inference run the same banded convs (see the `nn`
    docstring). Given a `cache` dict, as training gives it, the pass records
    what `net_backward` reads: every conv's input under that conv's name
    (a block's fuse conv holds its `phi`), no pre-activation. Every ReLU runs
    in place, so each activation is held once, and each ReLU's backward mask
    is read from its output. A diverging net gives NaN or Inf without a
    warning; callers check the output once (`generate_reference`,
    `dump_feature_maps`, the training loss)."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _, h in _trunk(net, x, cache):
            pass
        if cache is not None:
            cache[_TAIL] = h
        return conv2d_forward(h, net.layers[_TAIL])


def net_backward(net: GeneratorNet, cache: dict, grad_out: np.ndarray,
                 want_grad_input: bool = True, defer=None):
    """Backward through the fixed graph from `net_forward`'s cache, which is
    only read, so it can be backpropagated again; returns {name: (grad_w,
    grad_b)} in layer order and the network input's gradient, or None when
    `want_grad_input` is false (training needs no input gradient).

    With `defer` (a `parallel.Deferral.submit`), every 3x3 conv hands it its
    weight gradient (`nn.conv2d_backward`), and those arrays hold their values
    once the deferral has collected; meanwhile this pass goes on with the
    input gradients, the bias gradients and the 1x1 weight gradients."""
    grads = {}

    def conv(name, g, want=True):
        g, gw, gb = conv2d_backward(cache[name], net.layers[name], g, want, defer)
        grads[name] = (gw, gb)
        return g

    def relu_stack(names, out, g, want=True):
        # backward through `_conv_relu_stack`, whose last ReLU gave `out`
        for name in reversed(names):
            g = conv(name, relu_backward(out, g), want or name != names[0])
            out = cache[name]
        return g

    g = conv(_TAIL, grad_out)
    out = cache[_TAIL]
    for _, branches, fuse, skip in reversed(_BLOCKS):
        g_pre = relu_backward(out, g)
        g_phi = conv(fuse, net.config.k * g_pre)
        g = conv(skip, g_pre)
        widths = _branch_widths(net, branches)
        for names, phi_b, g_b in zip(branches, split_channels(cache[fuse], widths),
                                     split_channels(g_phi, widths)):
            g = g + relu_stack(names, phi_b, g_b)
        out = cache[skip]  # a stage's output is the next stage's skip input
    g = relu_stack(_HEAD, out, g, want_grad_input)
    return {name: grads[name] for name in net.layers}, g


def normalize_plane(planes: np.ndarray, dtype) -> np.ndarray:
    """8-bit (H, W) plane or (N, H, W) stack -> (N, 1, H, W) tensor in [0, 1]."""
    x = np.asarray(planes, dtype=dtype) / 255.0
    return x.reshape(-1, 1, *x.shape[-2:])


def denormalize_plane(x: np.ndarray) -> np.ndarray:
    """[0, 1] tensor values -> rounded, clamped 8-bit plane."""
    return np.clip(np.rint(np.asarray(x, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def _frame_input(net: GeneratorNet, frame: np.ndarray) -> np.ndarray:
    """An 8-bit plane (`check_plane`) with both sides at least the tail
    kernel, as the (1, 1, H, W) network input."""
    frame = check_plane(frame, "frame", min_side=net.layers[_TAIL].kernel_size)
    return normalize_plane(frame, np.dtype(net.config.dtype))


def generate_reference(net: GeneratorNet, frame: np.ndarray) -> np.ndarray:
    """Run the whole 8-bit frame (`_frame_input`) through the generator: an
    8-bit plane of the same dims."""
    y = net_forward(net, _frame_input(net, frame))
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("generator output contains NaN or Inf")
    return denormalize_plane(y[0, 0])


FEATURE_SELECTORS = (*_HEAD, *(stage for stage, *_ in _BLOCKS))


def dump_feature_maps(net: GeneratorNet, frame: np.ndarray, layer_selector: str) -> list[np.ndarray]:
    """Min-max normalize every channel of the selected activation to 8-bit
    planes; the frame is checked as `generate_reference` checks it.

    Constant channels map to 0.
    """
    if layer_selector not in FEATURE_SELECTORS:
        raise ConfigError(
            f"unknown feature selector {layer_selector!r}; choose from {FEATURE_SELECTORS}"
        )
    x = _frame_input(net, frame)
    with np.errstate(over="ignore", invalid="ignore"):
        act = next(h for name, h in _trunk(net, x) if name == layer_selector)[0]
    if not np.all(np.isfinite(act)):
        raise NonFiniteError(f"{layer_selector} activation contains NaN or Inf")
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
    for name, p in net.layers.items():
        tensors.append((f"{name}.weight", p.weights))
        tensors.append((f"{name}.bias", p.bias))
    tensors.append(("k", np.full(_NUM_BLOCKS, net.config.k, dtype=np.float32)))

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
            if name in tensors:
                raise FormatError(f"tensor {name!r} appears twice in the weight file")
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
    """Build a network from a weight file's tensors; every name and shape is
    checked against the layers its channel widths imply."""
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
    if len(set(ks.tolist())) > 1:  # so that config.k tells the truth
        raise FormatError(f"stored k {ks.tolist()} differ between blocks; one k is used for all")
    config = ModelConfig(
        head_channels=tensors["head1.weight"].shape[0],
        branch_reduce_channels=tensors["block1.branch1.conv1.weight"].shape[0],
        branch_out_channels=tensors["block1.branch1.conv2.weight"].shape[0],
        trunk_channels=tensors["head2.weight"].shape[0],
        k=float(ks[0]),
    )
    # every name and shape is checked before any layer is made
    specs = _layer_specs(config)
    expected = {}
    for name, cin, cout, kernel, _ in specs:
        expected[f"{name}.weight"] = (cout, cin, kernel, kernel)
        expected[f"{name}.bias"] = (cout,)
    missing = expected.keys() - tensors.keys()
    unexpected = tensors.keys() - expected.keys() - {"k"}
    if missing:
        raise FormatError(f"weight file is missing tensors: {sorted(missing)}")
    if unexpected:
        raise FormatError(f"weight file has unexpected tensors: {sorted(unexpected)}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            layer, part = name.rsplit(".", 1)
            raise FormatError(
                f"layer {layer}: {part} shape {tensors[name].shape} != expected {shape}"
            )

    layers = {name: ConvParams(tensors[f"{name}.weight"].astype(np.float32),
                               tensors[f"{name}.bias"].astype(np.float32), dilation=dilation)
              for name, _, _, _, dilation in specs}
    return GeneratorNet(config, layers)
