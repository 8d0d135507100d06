import copy
import tracemalloc

import numpy as np
import pytest

from deepref import generator as generator_mod
from deepref import training as training_mod
from deepref.errors import ConfigError, NonFiniteError, ShapeMismatchError
from deepref.flow import ExtractionConfig, SamplePair, extract_pairs
from deepref.generator import (
    ModelConfig,
    build_network,
    denormalize_plane,
    net_backward,
    net_forward,
    normalize_plane,
)
from deepref.nn import AdadeltaState, adadelta_step
from deepref.synthetic import SinusoidTexture
from deepref.training import (
    TrainConfig,
    block_size_sweep,
    lr_schedule,
    mse_loss,
    train,
)

from conftest import (
    central_diff_grad,
    max_rel_err,
    plain_conv2d_backward,
    plain_conv2d_forward,
    where_relu_backward,
)

TINY = ModelConfig(head_channels=4, branch_reduce_channels=3, branch_out_channels=3,
                   trunk_channels=4, k=0.5, seed=3, dtype="float32")


def shift_pairs(seed=7, n=8, block=16):
    tex = SinusoidTexture.random(seed, min_freq=0.05, max_freq=0.2)
    ref = tex.render(64, 64)
    cur = tex.render(64, 64, offset=(0.55, 0.35))
    return extract_pairs(ref, cur, ExtractionConfig(block_size=block, stride=block))[:n]


class TestMseLoss:
    def test_zero_for_identical(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_constant_offset_gives_c_squared(self, rng):
        for m, n in [(1, 4), (3, 8), (5, 16)]:
            target = rng.standard_normal((m, 1, n, n))
            loss, _ = mse_loss(target + 0.25, target)
            assert loss == pytest.approx(0.25**2, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.uniform(0.1, 1.0, (2, 1, 5, 5))
        target = rng.uniform(0.1, 1.0, (2, 1, 5, 5))
        _, grad = mse_loss(pred, target)
        fd = central_diff_grad(lambda: mse_loss(pred, target)[0], pred)
        assert max_rel_err(grad, fd) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 5)))


class TestLrSchedule:
    def test_documented_initial_rate(self):
        assert lr_schedule(0, TrainConfig()) == pytest.approx(1e-4)

    def test_decay_boundary(self):
        cfg = TrainConfig(lr0=1e-4, decay_interval_epochs=20, decay_factor=0.5)
        assert lr_schedule(19, cfg) == pytest.approx(1e-4)
        assert lr_schedule(20, cfg) == pytest.approx(5e-5)
        assert lr_schedule(40, cfg) == pytest.approx(2.5e-5)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule(-1, TrainConfig())


class TestNormalization:
    def test_round_trip_all_byte_values(self):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for dtype in (np.float32, np.float64):
            back = denormalize_plane(normalize_plane(plane, dtype)[0, 0])
            np.testing.assert_array_equal(back, plane)

    def test_stack_equals_per_plane_bytes(self):
        planes = np.random.default_rng(5).integers(0, 256, (4, 8, 6), dtype=np.uint8)
        for dtype in (np.float32, np.float64):
            stacked = normalize_plane(planes, dtype)
            assert stacked.shape == (4, 1, 8, 6)
            per_plane = np.concatenate([normalize_plane(p, dtype) for p in planes])
            assert stacked.tobytes() == per_plane.tobytes()


class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train(build_network(TINY), [], TrainConfig())

    def test_same_seed_bit_identical(self):
        pairs = shift_pairs()
        cfg = TrainConfig(lr0=1.0, epochs=3, batch_size=4, shuffle_seed=5)

        def run():
            return train(build_network(TINY), pairs, cfg)

        net_a, rep_a = run()
        net_b, rep_b = run()
        assert rep_a == rep_b or [e.loss for e in rep_a.epochs] == [e.loss for e in rep_b.epochs]
        for (name, pa), (_, pb) in zip(net_a.layers.items(), net_b.layers.items()):
            np.testing.assert_array_equal(pa.weights, pb.weights, err_msg=name)

    def test_one_and_two_usable_cpus_bit_identical(self, usable_cpus):
        # with two, every 3x3 weight gradient is computed on the worker
        small = ModelConfig(head_channels=8, branch_reduce_channels=4, branch_out_channels=4,
                            trunk_channels=8, k=0.5, seed=0, dtype="float32")
        pairs = shift_pairs(n=16)
        cfg = TrainConfig(lr0=1.0, epochs=4, batch_size=3, shuffle_seed=1)
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            net, report = train(build_network(small), pairs, cfg)
            runs.append(([e.loss for e in report.epochs], param_bytes(net)))
        assert runs[0] == runs[1]

    def test_input_network_untouched(self):
        pairs = shift_pairs()
        net = build_network(TINY)
        before = param_bytes(net)
        trained, _ = train(net, pairs, TrainConfig(lr0=1.0, epochs=1, batch_size=8))
        assert param_bytes(net) == before
        assert param_bytes(trained) != before

    def test_single_step_decreases_loss_at_small_lr(self):
        # float64 so the tiny step is resolved exactly
        cfg64 = ModelConfig(**{**TINY.__dict__, "dtype": "float64"})
        pairs = shift_pairs()
        batch_cfg = TrainConfig(lr0=1e-6, epochs=2, batch_size=len(pairs), shuffle_seed=0)
        _, report = train(build_network(cfg64), pairs, batch_cfg)
        assert report.epochs[1].loss < report.epochs[0].loss

    def test_partial_last_batch_kept(self, monkeypatch):
        pairs = shift_pairs(n=5)
        seen = []
        original = training_mod.net_forward

        def spy(net, x, want_cache=False):
            if want_cache:
                seen.append(x.shape[0])
            return original(net, x, want_cache)

        monkeypatch.setattr(training_mod, "net_forward", spy)
        train(build_network(TINY), pairs, TrainConfig(lr0=1.0, epochs=2, batch_size=2))
        assert seen == [2, 2, 1, 2, 2, 1]

    def test_every_sample_visited_once_per_epoch(self, monkeypatch):
        pairs = shift_pairs(n=6)
        batches = []
        original = training_mod.mse_loss

        def spy(pred, target):
            batches.append(np.asarray(target).copy())
            return original(pred, target)

        monkeypatch.setattr(training_mod, "mse_loss", spy)
        train(build_network(TINY), pairs, TrainConfig(lr0=1.0, epochs=1, batch_size=4))
        seen = np.concatenate(batches, axis=0)
        expected = np.sort(
            np.stack([p.y_block for p in pairs]).astype(np.float32).reshape(6, -1) / 255.0,
            axis=0,
        )
        np.testing.assert_allclose(np.sort(seen.reshape(6, -1), axis=0), expected)

    def test_nonfinite_loss_aborts_with_location(self):
        # 1e30 overflows only the loss; 1e38 already overflows the forward
        # pass, which checks nothing itself and lets the loss carry the NaN
        pairs = shift_pairs()
        for scale in (1e30, 1e38):
            net = build_network(TINY)
            net.layers["head1"].weights = np.full_like(net.layers["head1"].weights, scale)
            with pytest.raises(NonFiniteError, match="non-finite training loss at epoch 0"):
                train(net, pairs, TrainConfig(lr0=1.0, epochs=1, batch_size=8))

    def test_loss_report_csv_rows(self):
        pairs = shift_pairs(n=4)
        _, report = train(build_network(TINY), pairs,
                          TrainConfig(lr0=1.0, epochs=3, batch_size=4))
        rows = report.csv_rows()
        assert len(rows) == 3
        assert [r[0] for r in rows] == [0, 1, 2]
        assert all(np.isfinite(r[2]) for r in rows)


def param_bytes(net):
    return [np.ascontiguousarray(t).tobytes()
            for p in net.layers.values() for t in (p.weights, p.bias)]


class TestFusedUpdate:
    def test_one_vector_step_equals_one_step_per_tensor(self):
        rng = np.random.default_rng(4)
        net = build_network(TINY)
        per_tensor = copy.deepcopy(net)
        params = list(net.layers.items())
        theta = training_mod._share_one_vector(net.layers.values())
        for _, p in params:
            assert np.shares_memory(p.weights, theta) and np.shares_memory(p.bias, theta)
        state = AdadeltaState.zeros_like(theta)
        states = {}
        for step, lr in enumerate([1.0, 1.0, 1.0, 0.5, 0.5, 0.25]):
            grads = {name: (rng.standard_normal(p.weights.shape).astype(np.float32),
                            rng.standard_normal(p.bias.shape).astype(np.float32))
                     for name, p in params}
            grads["head1"][0][...] = 0.0
            grad_theta = np.concatenate([g.ravel() for name, _ in params for g in grads[name]])
            new_theta, state = adadelta_step(theta, grad_theta, state, lr)
            theta[...] = new_theta
            for name, p in per_tensor.layers.items():
                for attr, g in zip(("weights", "bias"), grads[name]):
                    prior = states.get((name, attr)) or AdadeltaState.zeros_like(g)
                    value, states[name, attr] = adadelta_step(getattr(p, attr), g, prior, lr)
                    setattr(p, attr, value)
            assert param_bytes(net) == param_bytes(per_tensor), f"step {step}"
        acc = np.concatenate([states[name, attr].acc_delta_sq.ravel()
                              for name, _ in params for attr in ("weights", "bias")])
        assert acc.tobytes() == state.acc_delta_sq.tobytes()

    def test_training_matches_plain_conv_engine(self, monkeypatch, usable_cpus):
        # the engine's 3x3 weight gradients run on the worker; the plain
        # engine ignores `defer` and computes every gradient in this process
        pairs = shift_pairs(n=7)
        cfg = TrainConfig(lr0=1.0, epochs=3, batch_size=3, shuffle_seed=2)
        usable_cpus(2)
        net_a, rep_a = train(build_network(TINY), pairs, cfg)
        monkeypatch.setattr(generator_mod, "conv2d_forward", plain_conv2d_forward)
        monkeypatch.setattr(generator_mod, "conv2d_backward",
                            lambda x, p, g, want_grad_input=True, defer=None:
                            plain_conv2d_backward(x, p, g))
        net_b, rep_b = train(build_network(TINY), pairs, cfg)
        assert [e.loss for e in rep_a.epochs] == [e.loss for e in rep_b.epochs]
        assert param_bytes(net_a) == param_bytes(net_b)

    def test_relu_mask_multiply_keeps_training_bits(self, monkeypatch):
        # the multiply leaves -0 where the select gave +0; losses and weights
        # of a 3-epoch SMALL run must not move
        small = ModelConfig(head_channels=8, branch_reduce_channels=4, branch_out_channels=4,
                            trunk_channels=8, k=0.5, seed=0, dtype="float32")
        pairs = shift_pairs(n=16)
        cfg = TrainConfig(lr0=1.0, epochs=3, batch_size=8)
        net_a, rep_a = train(build_network(small), pairs, cfg)
        monkeypatch.setattr(generator_mod, "relu_backward", where_relu_backward)
        net_b, rep_b = train(build_network(small), pairs, cfg)
        assert [e.loss for e in rep_a.epochs] == [e.loss for e in rep_b.epochs]
        assert param_bytes(net_a) == param_bytes(net_b)


class TestPeakMemory:
    def test_one_batch_of_activations_alive_at_a_time(self):
        # 16/8/8/16 widths, 2 batches of 8 32x32 blocks: the epoch's peak
        # stays within 1.6x one batch's conv outputs and phi (13.0 MiB). Kept
        # pre-activations, branch outputs beside phi, or the last batch's
        # cache through the next forward each break that
        model = ModelConfig(head_channels=16, branch_reduce_channels=8, branch_out_channels=8,
                            trunk_channels=16, k=0.5, seed=0, dtype="float32")
        rng = np.random.default_rng(5)
        pairs = [SamplePair(*rng.integers(0, 256, (2, 32, 32), dtype=np.uint8), (0, 0), (0.0, 0.0))
                 for _ in range(16)]
        net = build_network(model)
        channels = (sum(p.out_ch for p in net.layers.values())
                    + 3 * 3 * model.branch_out_channels)  # + phi of each block
        footprint = channels * 8 * 32 * 32 * 4
        tracemalloc.start()
        try:
            train(net, pairs, TrainConfig(lr0=1.0, epochs=1, batch_size=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * footprint, f"peak {peak / 2**20:.1f} MiB, {peak / footprint:.2f}x"


class TestNoInputGradient:
    def test_train_skips_the_network_input_gradient(self, monkeypatch):
        calls = []
        original = generator_mod.conv2d_backward

        def spy(x, params, grad_out, want_grad_input=True, defer=None):
            result = original(x, params, grad_out, want_grad_input, defer)
            calls.append((params.in_ch, result[0]))
            return result

        monkeypatch.setattr(generator_mod, "conv2d_backward", spy)
        train(build_network(TINY), shift_pairs(n=4), TrainConfig(lr0=1.0, epochs=1, batch_size=2))
        head1 = [g for in_ch, g in calls if in_ch == 1]  # only head1 reads the 1-channel input
        assert len(head1) == 2 and all(g is None for g in head1)
        assert all(g is not None for in_ch, g in calls if in_ch != 1)

    def test_net_backward_still_returns_it_by_default(self):
        net = build_network(TINY)
        x = np.random.default_rng(1).uniform(0.0, 1.0, (2, 1, 8, 8)).astype(np.float32)
        out, cache = net_forward(net, x, want_cache=True)
        grads, grad_in = net_backward(net, cache, out)
        assert grad_in.shape == x.shape and np.any(grad_in != 0)
        grads_only, none = net_backward(net, cache, out, want_grad_input=False)
        assert none is None
        for name in net.layers:
            for a, b in zip(grads[name], grads_only[name]):
                assert a.tobytes() == b.tobytes(), name


class TestOverfit:
    def test_repeated_single_batch_overfits(self):
        # one pair repeated as batch-of-one steps: loss must collapse
        pair = shift_pairs(n=8)[5]
        cfg = TrainConfig(lr0=1.0, epochs=40, batch_size=1,
                          decay_interval_epochs=10**6, shuffle_seed=0)
        _, report = train(build_network(TINY), [pair] * 4, cfg)
        assert report.final_loss < report.epochs[0].loss * 0.2


class TestBlockSizeSweep:
    def make_frames(self, n=6):
        tex = SinusoidTexture.random(21, min_freq=0.05, max_freq=0.2)
        return [tex.render(48, 48, offset=(0.5 * t, 0.3 * t)) for t in range(n)]

    def sweep(self, frames, sizes, **kwargs):
        cfg = TrainConfig(lr0=1.0, epochs=2, batch_size=8, shuffle_seed=0)
        return block_size_sweep(frames, sizes, TINY, cfg, ExtractionConfig(), **kwargs)

    def test_one_row_per_size(self):
        rows = self.sweep(self.make_frames(), [8, 16], sequence_name="pan")
        assert [r[0] for r in rows] == [8, 16]
        assert all(r[1] == "pan" and np.isfinite(r[2]) for r in rows)

    def test_deterministic(self):
        frames = self.make_frames()
        a = self.sweep(frames, [8])
        b = self.sweep(frames, [8])
        assert a == b

    def test_too_few_frames_rejected(self):
        with pytest.raises(ConfigError):
            self.sweep(self.make_frames(2), [8])

    def test_rows_identical_forked_and_in_process(self, usable_cpus):
        frames = self.make_frames()
        usable_cpus(1)
        in_process = self.sweep(frames, [8, 16, 12])
        usable_cpus(2)
        assert self.sweep(frames, [8, 16, 12]) == in_process

    def test_error_of_a_size_trained_in_a_child_reported(self, usable_cpus):
        # size 64 (job 1, a child's) leaves no tile in a 48x48 frame
        usable_cpus(2)
        with pytest.raises(ConfigError, match="no training pairs extracted at block size 64"):
            self.sweep(self.make_frames(), [8, 64])
