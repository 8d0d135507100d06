import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepref.generator as generator_mod
from deepref.errors import ConfigError, FormatError, NonFiniteError, ShapeMismatchError
from deepref.nn import conv2d_forward, relu
from deepref.generator import (
    BRANCH_RECEPTIVE_FIELDS,
    FEATURE_SELECTORS,
    ModelConfig,
    block_forward,
    build_network,
    dump_feature_maps,
    generate_reference,
    load_weights,
    net_backward,
    net_forward,
    save_weights,
)

from conftest import branch_layers, central_diff_grad_at, max_rel_err, store_fusion_factors

TINY = ModelConfig(head_channels=4, branch_reduce_channels=3, branch_out_channels=3,
                   trunk_channels=4, k=0.5, seed=3, dtype="float64")
SWEEP_NET = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "sweep_net.drpg"


def abs_weights(net):
    for p in net.layers.values():
        p.weights = np.abs(p.weights)
    return net


def overflowing_net():
    """A float32 net whose head1 weights of 1e38 overflow on any non-zero input."""
    net = build_network(replace(TINY, dtype="float32"))
    net.layers["head1"].weights = np.full_like(net.layers["head1"].weights, 1e38)
    return net


def support_box(plane):
    ys, xs = np.nonzero(plane)
    return ys.max() - ys.min() + 1, xs.max() - xs.min() + 1


def weight_tensors(net):
    """Name -> array of each tensor `save_weights` writes for `net`, in its order."""
    tensors = {f"{name}.{part}": arr for name, p in net.layers.items()
               for part, arr in (("weight", p.weights), ("bias", p.bias))}
    return {**tensors, "k": np.full(3, net.config.k)}


def write_weight_file(path, tensors, tail=b""):
    """A weight file holding `tensors` (name -> array) as given, then `tail`."""
    data = bytearray(b"DRPG" + struct.pack("<II", 1, len(tensors)))
    for name, arr in tensors.items():
        data += struct.pack(f"<H{len(name)}sB{arr.ndim}I", len(name), name.encode(),
                            arr.ndim, *arr.shape)
        data += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    path.write_bytes(bytes(data) + tail)


class TestBuild:
    def test_branch_receptive_fields(self):
        assert BRANCH_RECEPTIVE_FIELDS == (3, 9, 15)
        net = build_network(TINY)
        for block in (1, 2, 3):
            rfs = [1 + sum(p.dilation * (p.kernel_size - 1) for p in branch_layers(net, block, b))
                   for b in (1, 2, 3)]
            assert rfs == [3, 9, 15]

    def test_stacked_3x3_pair_spans_5x5_before_dilated_layer(self):
        net = build_network(TINY)
        b3 = branch_layers(net, 1, 3)
        rf_before_dilated = 1 + sum(p.dilation * (p.kernel_size - 1) for p in b3[:3])
        assert rf_before_dilated == 5
        assert b3[3].dilation == 5
        assert net.layers["block1.branch2.conv3"].dilation == 3

    def test_same_seed_bit_identical(self):
        a, b = build_network(TINY), build_network(TINY)
        for (name_a, pa), (_, pb) in zip(a.layers.items(), b.layers.items()):
            np.testing.assert_array_equal(pa.weights, pb.weights, err_msg=name_a)
            np.testing.assert_array_equal(pa.bias, pb.bias)

    def test_different_seed_differs(self):
        a = build_network(TINY)
        b = build_network(ModelConfig(**{**TINY.__dict__, "seed": 99}))
        assert not np.array_equal(a.layers["head1"].weights, b.layers["head1"].weights)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(trunk_channels=0)
        with pytest.raises(ConfigError):
            ModelConfig(k=1.5)

    def test_default_config_builds(self):
        net = build_network(ModelConfig())
        assert net.config.k == 0.5
        assert net.layers["head1"].in_ch == 1 and net.layers["tail"].out_ch == 1


class TestBlockForward:
    def test_k_zero_identity_skip_reproduces_input(self, rng):
        net = build_network(replace(TINY, k=0.0))
        skip = net.layers["block1.skip"]
        eye = np.zeros_like(skip.weights)
        for c in range(eye.shape[0]):
            eye[c, c, 0, 0] = 1.0
        skip.weights = eye
        skip.bias = np.zeros_like(skip.bias)
        x = rng.uniform(0.0, 1.0, (1, 4, 9, 9))
        np.testing.assert_array_equal(block_forward(net, 0, x), x)

    def test_output_dims_equal_input_dims(self, rng):
        net = build_network(TINY)
        for h, w in [(16, 16), (17, 11), (3, 29)]:
            x = rng.standard_normal((2, 4, h, w))
            assert block_forward(net, 0, x).shape == (2, 4, h, w)

    def test_impulse_support_confined_to_15x15(self):
        net = build_network(TINY)
        base = np.full((1, 4, 33, 33), 0.3)
        bumped = base.copy()
        bumped[0, 1, 16, 16] += 0.5
        diff = np.abs(block_forward(net, 1, bumped) - block_forward(net, 1, base)).sum(axis=(0, 1))
        ys, xs = np.nonzero(diff)
        assert ys.min() >= 16 - 7 and ys.max() <= 16 + 7
        assert xs.min() >= 16 - 7 and xs.max() <= 16 + 7

    def test_preactivation_affine_in_k(self, rng):
        net = build_network(TINY)
        x = rng.uniform(0.1, 1.0, (1, 4, 8, 8))
        pres = {}
        for k in (0.0, 0.5, 1.0):
            net = build_network(replace(TINY, k=k))
            # the cache holds the ReLU output; rebuild the pre-activation
            # k * fuse(phi) + skip(x) from its phi and x
            cache = {}
            block_forward(net, 0, x, cache)
            pres[k] = (k * conv2d_forward(cache["block1.fuse"], net.layers["block1.fuse"])
                       + conv2d_forward(cache["block1.skip"], net.layers["block1.skip"]))
        np.testing.assert_allclose(pres[0.5], 0.5 * (pres[0.0] + pres[1.0]), rtol=1e-12)


class TestBranchImpulseResponse:
    @pytest.mark.parametrize("branch_idx,rf", [(0, 3), (1, 9), (2, 15)])
    def test_measured_receptive_field_exact(self, branch_idx, rf):
        net = abs_weights(build_network(TINY))
        x = np.zeros((1, 4, 31, 31))
        x[0, 0, 15, 15] = 1.0
        for layer in branch_layers(net, 1, branch_idx + 1):
            x = relu(conv2d_forward(x, layer))
        out = x.sum(axis=(0, 1))
        assert support_box(out) == (rf, rf)
        # full box: positive everywhere inside the receptive field
        r = rf // 2
        assert np.all(out[15 - r : 15 + r + 1, 15 - r : 15 + r + 1] > 0)


class TestGenerateReference:
    def test_zero_net_with_tail_bias_is_constant_map(self):
        net = build_network(TINY)
        for p in net.layers.values():
            p.weights = np.zeros_like(p.weights)
            p.bias = np.zeros_like(p.bias)
        net.layers["tail"].bias = np.array([0.4], dtype=np.float64)
        frame = np.random.default_rng(0).integers(0, 256, (12, 16)).astype(np.uint8)
        out = generate_reference(net, frame)
        assert np.all(out == int(round(0.4 * 255)))

    @pytest.mark.parametrize("h,w", [(48, 64), (17, 33)])
    def test_output_dims_match_input(self, h, w):
        net = build_network(TINY)
        frame = np.random.default_rng(1).integers(0, 256, (h, w)).astype(np.uint8)
        assert generate_reference(net, frame).shape == (h, w)

    def test_deterministic_and_pure(self):
        net = build_network(TINY)
        frame = np.random.default_rng(2).integers(0, 256, (16, 16)).astype(np.uint8)
        a = generate_reference(net, frame)
        b = generate_reference(net, frame)
        np.testing.assert_array_equal(a, b)

    def test_too_small_frame_rejected(self):
        net = build_network(TINY)
        with pytest.raises(ShapeMismatchError):
            generate_reference(net, np.zeros((2, 10), dtype=np.uint8))

    def test_overflowing_net_raises_once_at_the_output(self):
        # head1 overflows float32 to Inf and the layers after it make NaN; no
        # conv checks its input, and no numpy warning escapes on the way
        net = overflowing_net()
        frame = np.random.default_rng(6).integers(1, 256, (16, 16)).astype(np.uint8)
        with pytest.raises(NonFiniteError, match="generator output"):
            generate_reference(net, frame)
        for sel in FEATURE_SELECTORS:
            with pytest.raises(NonFiniteError, match=sel):
                dump_feature_maps(net, frame, sel)


class TestWholeNetGradient:
    def test_backprop_matches_finite_differences(self, rng):
        net = build_network(TINY)
        x = rng.uniform(0.1, 1.0, (1, 1, 8, 8))
        proj = rng.standard_normal((1, 1, 8, 8))

        def loss():
            return float(np.sum(net_forward(net, x) * proj))

        cache = {}
        out = net_forward(net, x, cache)
        grads, grad_in = net_backward(net, cache, proj)

        checked = 0
        for name, p in net.layers.items():
            gw, gb = grads[name]
            idx = rng.choice(p.weights.size, size=min(4, p.weights.size), replace=False)
            fd = central_diff_grad_at(loss, p.weights, idx)
            assert max_rel_err(gw.reshape(-1)[idx], fd, floor=1e-6) < 1e-5, name
            checked += len(idx)
        assert checked >= 100

        idx = rng.choice(x.size, size=20, replace=False)
        fd = central_diff_grad_at(loss, x, idx)
        assert max_rel_err(grad_in.reshape(-1)[idx], fd, floor=1e-6) < 1e-5

    def test_defer_gets_each_3x3_weight_gradient_and_no_1x1(self, rng):
        net = build_network(replace(TINY, dtype="float32"))
        x = rng.uniform(0.1, 1.0, (2, 1, 8, 8)).astype(np.float32)
        grad_out = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        cache = {}
        net_forward(net, x, cache)
        plain, plain_in = net_backward(net, cache, grad_out)
        jobs = []
        grads, grad_in = net_backward(net, cache, grad_out,
                                      defer=lambda out, fn, *args: jobs.append((out, fn, args)))
        layer_of = {id(gw): name for name, (gw, _) in grads.items()}
        three = [name for name, p in net.layers.items() if p.kernel_size == 3]
        assert len(three) == 21 and len(net.layers) - len(three) == 15
        assert len(jobs) == 21
        assert sorted(layer_of[id(out)] for out, _, _ in jobs) == sorted(three)
        assert all(args[2] == 3 for _, _, args in jobs)  # (g, x, k, d)
        for out, fn, args in jobs:
            out[...] = fn(*args)
        for name in net.layers:
            for a, b in zip(plain[name], grads[name]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert plain_in.tobytes() == grad_in.tobytes()


def array_leaves(tree):
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        tree = tree.values()
    return [leaf for item in tree for leaf in array_leaves(item)]


class TestCache:
    def test_each_activation_held_once(self, monkeypatch):
        # every ReLU output is the next conv's cached input or its branch's
        # channels of phi, and the cache holds nothing else but the input
        outputs = []

        def spy(x, out=None):
            outputs.append(relu(x, out=out))
            return outputs[-1]

        monkeypatch.setattr(generator_mod, "relu", spy)
        net = build_network(TINY)
        x = np.random.default_rng(2).uniform(0, 1, (2, 1, 9, 9))
        cache = {}
        net_forward(net, x, cache)
        cached = array_leaves(cache)
        assert len(outputs) == 2 + 3 * 10  # two head convs, nine branch convs and a fuse per block
        for i, a in enumerate(outputs):
            assert any(np.shares_memory(a, c) for c in cached), f"ReLU output {i} is not cached"
        for i, c in enumerate(cached):
            assert any(np.shares_memory(c, a) for a in [x, *outputs]), \
                f"cached array {i} {c.shape} is no activation"

    def test_cached_forward_builds_no_whole_im2col_matrix(self):
        # 2 items of 32x32 at ModelConfig(): the whole im2col matrix of a
        # 64-channel 3x3 layer would take 4.5 MiB, a band at most 256 KiB
        net = build_network(ModelConfig())
        x = np.random.default_rng(8).uniform(0, 1, (2, 1, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            cache = {}
            out = net_forward(net, x, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = {}
        for a in array_leaves([out, cache]):
            while a.base is not None:  # the buffer that a view or reshape reads
                a = a.base
            held[id(a)] = a.nbytes
        assert peak < sum(held.values()) + (2 << 20)


class TestWeightFile:
    def test_round_trip_forward_bit_identical(self, rng, tmp_path):
        cfg = ModelConfig(head_channels=4, branch_reduce_channels=3, branch_out_channels=3,
                          trunk_channels=4, k=0.25, seed=11, dtype="float32")
        net = build_network(cfg)
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.config.trunk_channels == 4
        assert loaded.config.k == 0.25
        x = rng.uniform(0, 1, (1, 1, 10, 10)).astype(np.float32)
        np.testing.assert_array_equal(net_forward(net, x), net_forward(loaded, x))

    def test_truncated_file_rejected(self, tmp_path):
        net = build_network(TINY)
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        data = path.read_bytes()
        (tmp_path / "cut.drpg").write_bytes(data[: len(data) - 7])
        with pytest.raises(FormatError, match="truncated|trailing"):
            load_weights(tmp_path / "cut.drpg")

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "w.drpg"
        save_weights(build_network(TINY), path)
        data = bytearray(path.read_bytes())
        data[14] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="UTF-8"):
            load_weights(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # a second `tail.bias` after the whole file: a dict would keep the later copy
        path = tmp_path / "w.drpg"
        save_weights(build_network(TINY), path)
        data = bytearray(path.read_bytes())
        (count,) = struct.unpack_from("<I", data, 8)
        struct.pack_into("<I", data, 8, count + 1)
        name = b"tail.bias"
        data += struct.pack("<H", len(name)) + name + struct.pack("<BIf", 1, 1, 5.0)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="'tail.bias' appears twice"):
            load_weights(path)

    def test_dims_whose_int64_product_wraps_rejected(self, tmp_path):
        # 2**31 * 2**31 * 4 is 0 in int64; the exact size is far past the file end
        name = b"head1.weight"
        data = (b"DRPG" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
                + struct.pack("<B3I", 3, 2**31, 2**31, 4))
        (tmp_path / "wrap.drpg").write_bytes(data)
        with pytest.raises(FormatError, match="truncated"):
            load_weights(tmp_path / "wrap.drpg")

    def test_more_than_four_dims_rejected(self, tmp_path):
        name = b"head1.weight"
        data = (b"DRPG" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
                + struct.pack("<B", 100) + b"\x01\x00\x00\x00" * 100)
        (tmp_path / "deep.drpg").write_bytes(data)
        with pytest.raises(FormatError, match="dims"):
            load_weights(tmp_path / "deep.drpg")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        net = build_network(TINY)
        net.layers["tail"].weights[0, 1, 2, 0] = value
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        with pytest.raises(FormatError, match="'tail.weight' holds NaN or Inf"):
            load_weights(path)

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.drpg").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_weights(tmp_path / "bad.drpg")

    @pytest.mark.parametrize("shape", [(), (4,), (4, 1, 3)])
    @pytest.mark.parametrize("name", ["head1", "head2", "block1.branch1.conv1",
                                      "block1.branch1.conv2"])
    def test_width_tensor_must_be_4d(self, tmp_path, name, shape):
        # the channel widths are read from these four tensors' first axis
        net = build_network(TINY)
        net.layers[name].weights = np.zeros(shape)
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        with pytest.raises(FormatError, match=f"'{name}.weight' has shape"):
            load_weights(path)

    @pytest.mark.parametrize("shape", [(2**20, 0, 3, 3), (0, 1, 3, 3)])
    def test_empty_dim_rejected(self, tmp_path, shape):
        # an empty head1 could claim any width without storing its weights
        net = build_network(TINY)
        net.layers["head1"].weights = np.zeros(shape)
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        with pytest.raises(FormatError, match="'head1.weight' has an empty dim"):
            load_weights(path)

    @pytest.mark.parametrize("edit, tail, match", [
        ({}, b"\0", "1 trailing bytes after last tensor"),
        ({"k": None}, b"", "missing tensor 'k'"),
        ({"head1.weight": None}, b"", "missing tensor 'head1.weight'"),
        ({"k": np.full(2, 0.5)}, b"", r"k tensor has shape \(2,\)"),
        ({"k": np.array(0.5)}, b"", r"k tensor has shape \(\)"),
        ({"k": np.full(3, 1.5)}, b"", r"stored k 1.5 outside \[0,1\]"),
        ({"extra.weight": np.zeros(1)}, b"", r"unexpected tensors: \['extra.weight'\]"),
    ], ids=["trailing byte", "no k", "no head1.weight", "k of shape (2,)", "k of shape ()",
            "k 1.5", "extra.weight"])
    def test_malformed_tensor_table_rejected(self, tmp_path, edit, tail, match):
        # `edit` replaces tensors of a TINY net's file; None drops one
        tensors = {**weight_tensors(build_network(TINY)), **edit}
        path = tmp_path / "w.drpg"
        write_weight_file(path, {n: a for n, a in tensors.items() if a is not None}, tail)
        with pytest.raises(FormatError, match=match):
            load_weights(path)

    def test_mismatched_layer_shape_names_the_layer(self, tmp_path):
        net = build_network(TINY)
        # bypass constructor validation to emit an inconsistent file
        net.layers["block2.fuse"].weights = np.zeros((4, 7, 1, 1), dtype=np.float64)
        net.layers["block2.fuse"].bias = np.zeros(4, dtype=np.float64)
        path = tmp_path / "w.drpg"
        save_weights(net, path)
        with pytest.raises(FormatError, match="block2.fuse"):
            load_weights(path)

    def test_wide_layer_refused_before_allocating(self, tmp_path):
        # a 36 KB file claims 800 branch output channels and stores no
        # branch 2 or 3: building that net takes ~240 MB, so its names and
        # shapes must be refused first
        net = build_network(ModelConfig(head_channels=8, branch_reduce_channels=4,
                                        branch_out_channels=4, trunk_channels=8))
        net.layers["block1.branch1.conv2"].weights = np.zeros((800, 1, 3, 3), np.float32)
        path = tmp_path / "w.drpg"
        write_weight_file(path, {name: arr for name, arr in weight_tensors(net).items()
                                 if ".branch2." not in name and ".branch3." not in name})
        assert path.stat().st_size < 40_000
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="missing tensors"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestLayerTable:
    def test_layers_follow_the_spec_order(self, tmp_path):
        net = build_network(TINY)
        assert list(net.layers) == [spec[0] for spec in generator_mod._layer_specs(TINY)]
        save_weights(net, tmp_path / "w.drpg")
        loaded = load_weights(tmp_path / "w.drpg")
        assert list(loaded.layers) == [spec[0] for spec in generator_mod._layer_specs(TINY)]

    def test_sweep_net_round_trips_byte_for_byte(self, tmp_path):
        save_weights(load_weights(SWEEP_NET), tmp_path / "again.drpg")
        assert (tmp_path / "again.drpg").read_bytes() == SWEEP_NET.read_bytes()

    def test_unequal_fusion_factors_refused(self, tmp_path):
        # the loaded config.k would name only one of them
        path = tmp_path / "w.drpg"
        save_weights(build_network(TINY), path)
        store_fusion_factors(path, [0.0, 0.5, 1.0])
        with pytest.raises(FormatError, match=r"\[0\.0, 0\.5, 1\.0\]"):
            load_weights(path)
        store_fusion_factors(path, [0.25] * 3)
        assert load_weights(path).config.k == 0.25

    def test_load_builds_the_net_from_the_file(self, tmp_path, monkeypatch):
        # no random net is drawn and then overwritten
        path = tmp_path / "w.drpg"
        save_weights(build_network(TINY), path)
        calls = []
        build = generator_mod.build_network
        monkeypatch.setattr(generator_mod, "build_network",
                            lambda config: calls.append(config) or build(config))
        load_weights(path)
        assert calls == []


def explicit_stage_activations(net, x):
    """Every `FEATURE_SELECTORS` stage by a plain conv/ReLU loop over the layers."""
    acts, h = {}, x
    for name in ("head1", "head2"):
        h = np.maximum(conv2d_forward(h, net.layers[name]), 0)
        acts[name] = h
    for i in (1, 2, 3):
        outs = []
        for branch in (1, 2, 3):
            b = h
            for layer in branch_layers(net, i, branch):
                b = np.maximum(conv2d_forward(b, layer), 0)
            outs.append(b)
        phi = np.concatenate(outs, axis=1)
        fuse, skip = net.layers[f"block{i}.fuse"], net.layers[f"block{i}.skip"]
        h = np.maximum(net.config.k * conv2d_forward(phi, fuse) + conv2d_forward(h, skip), 0)
        acts[f"block{i}"] = h
    return acts


class TestFeatureDump:
    def test_every_selector_matches_explicit_loop(self):
        net = build_network(TINY)
        rng = np.random.default_rng(9)
        for p in net.layers.values():
            p.bias = rng.normal(0.0, 0.1, p.bias.shape)
        frame = rng.integers(0, 256, (15, 19)).astype(np.uint8)
        acts = explicit_stage_activations(net, (frame / 255.0)[None, None])
        for sel in FEATURE_SELECTORS:
            want = []
            for chan in acts[sel][0]:
                lo, hi = chan.min(), chan.max()
                scaled = np.zeros(chan.shape) if hi == lo else (chan - lo) / (hi - lo) * 255.0
                want.append(np.rint(scaled).astype(np.uint8))
            got = dump_feature_maps(net, frame, sel)
            assert len(got) == len(want), sel
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w, err_msg=sel)

    def test_head1_yields_one_plane_per_channel(self):
        net = build_network(TINY)
        frame = np.random.default_rng(5).integers(0, 256, (14, 18)).astype(np.uint8)
        planes = dump_feature_maps(net, frame, "head1")
        assert len(planes) == TINY.head_channels
        assert all(p.shape == (14, 18) and p.dtype == np.uint8 for p in planes)

    def test_zero_frame_dumps_constant_maps(self):
        # fresh nets have zero biases, so a zero frame keeps every activation 0
        net = build_network(TINY)
        for sel in FEATURE_SELECTORS:
            planes = dump_feature_maps(net, np.zeros((16, 16), dtype=np.uint8), sel)
            for p in planes:
                assert np.all(p == p.flat[0])

    def test_impulse_support_grows_with_block_depth(self):
        net = abs_weights(build_network(TINY))
        frame = np.zeros((41, 41), dtype=np.uint8)
        frame[20, 20] = 255
        areas = []
        for sel in ("block1", "block2", "block3"):
            planes = dump_feature_maps(net, frame, sel)
            stack = np.stack(planes).astype(np.int32).sum(axis=0)
            areas.append(int(np.count_nonzero(stack)))
        assert areas[0] < areas[1] < areas[2]

    def test_unknown_selector_rejected(self):
        net = build_network(TINY)
        with pytest.raises(ConfigError, match="selector"):
            dump_feature_maps(net, np.zeros((8, 8), dtype=np.uint8), "bogus")

    @pytest.mark.parametrize("shape", [(3, 16, 16), (1, 2)])
    def test_frame_checked_as_generate_reference_checks_it(self, shape):
        # a stack of planes, or a frame smaller than the tail kernel
        net = build_network(TINY)
        frame = np.zeros(shape, dtype=np.uint8)
        for run in (generate_reference, lambda n, f: dump_feature_maps(n, f, "head1")):
            with pytest.raises(ShapeMismatchError, match="frame"):
                run(net, frame)


@given(st.integers(3, 24), st.integers(3, 24))
@settings(max_examples=12, deadline=None)
def test_spatial_dims_preserved_for_any_size(h, w):
    net = build_network(TINY)
    frame = np.random.default_rng(h * 31 + w).integers(0, 256, (h, w)).astype(np.uint8)
    assert generate_reference(net, frame).shape == (h, w)
