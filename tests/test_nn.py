import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepref.errors import NonFiniteError, ShapeMismatchError
from deepref.nn import (
    COLS_BYTES,
    EPS,
    RHO,
    AdadeltaState,
    ConvParams,
    adadelta_step,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    relu,
    relu_backward,
    same_padding,
    split_channels,
)

from conftest import (
    central_diff_grad,
    max_rel_err,
    naive_conv2d,
    naive_conv2d_backward,
    plain_conv2d_backward,
    plain_conv2d_forward,
)


def make_params(rng, cout, cin, k, dilation=1, dtype=np.float64):
    w = rng.standard_normal((cout, cin, k, k)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return ConvParams(w, b, dilation=dilation)


class TestConvForward:
    def test_identity_1x1_kernel(self):
        x = np.arange(24, dtype=np.float64).reshape(1, 1, 4, 6)
        p = ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(conv2d_forward(x, p), x)

    def test_ones_3x3_on_constant_input(self):
        # zero padding: interior sums 9 taps, corners only 4
        x = np.ones((1, 1, 5, 5))
        p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1))
        out = conv2d_forward(x, p)[0, 0]
        assert out.shape == (5, 5)
        assert out[2, 2] == 9.0
        for corner in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            assert out[corner] == 4.0
        assert out[0, 2] == 6.0  # edge, not corner

    def test_dilation3_impulse_support(self):
        x = np.zeros((1, 1, 15, 15))
        x[0, 0, 7, 7] = 1.0
        p = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1), dilation=3)
        out = conv2d_forward(x, p)[0, 0]
        ys, xs = np.nonzero(out)
        assert set(ys) == {4, 7, 10} and set(xs) == {4, 7, 10}
        # effective extent (k-1)*d + 1 = 7
        assert ys.max() - ys.min() + 1 == 7

    @pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (3, 3), (3, 5)])
    def test_same_padding_preserves_dims(self, rng, k, d):
        x = rng.standard_normal((2, 3, 17, 11))
        p = make_params(rng, 4, 3, k, dilation=d)
        assert p.padding == same_padding(k, d)
        assert conv2d_forward(x, p).shape == (2, 4, 17, 11)

    @pytest.mark.parametrize("k,d,pad", [(3, 1, 1), (3, 2, 2), (1, 1, 0), (3, 3, 3)])
    def test_matches_naive_oracle(self, rng, k, d, pad):
        x = rng.standard_normal((2, 3, 8, 7))
        p = make_params(rng, 2, 3, k, dilation=d)
        got = conv2d_forward(x, p)
        want = naive_conv2d(x, p.weights, p.bias, d, p.padding)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        p = make_params(rng, 1, 3, 3)
        with pytest.raises(ShapeMismatchError, match="channel"):
            conv2d_forward(x, p)

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            ConvParams(np.ones((1, 1, 3, 1)), np.zeros(1))

    def test_even_kernel_rejected(self):
        # "same" padding needs a centre tap
        with pytest.raises(ShapeMismatchError, match="odd"):
            ConvParams(np.ones((1, 1, 2, 2)), np.zeros(1))


class TestConvBackward:
    def test_zero_grad_out_gives_zero_grads(self, rng):
        x = rng.standard_normal((1, 2, 6, 6))
        p = make_params(rng, 3, 2, 3)
        gx, gw, gb = conv2d_backward(x, p, np.zeros((1, 3, 6, 6)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_passes_grad_through(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        p = ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
        g = rng.standard_normal((1, 1, 4, 4))
        gx, _, _ = conv2d_backward(x, p, g)
        np.testing.assert_array_equal(gx, g)

    def test_grad_shapes_match_primals(self, rng):
        x = rng.standard_normal((2, 3, 9, 8))
        p = make_params(rng, 4, 3, 3, dilation=3)
        g = rng.standard_normal((2, 4, 9, 8))
        gx, gw, gb = conv2d_backward(x, p, g)
        assert gx.shape == x.shape and gw.shape == p.weights.shape and gb.shape == p.bias.shape

    def test_grad_out_shape_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 1, 5, 5))
        p = make_params(rng, 1, 1, 3)
        with pytest.raises(ShapeMismatchError):
            conv2d_backward(x, p, np.zeros((1, 1, 4, 5)))

    def test_finite_difference_dilated(self, rng):
        # 1x2x5x5 input, 3x3 dilation-3 kernel, against the FD oracle
        x = rng.uniform(0.1, 1.0, (1, 2, 5, 5)) * rng.choice([-1.0, 1.0], (1, 2, 5, 5))
        p = make_params(rng, 2, 2, 3, dilation=3)
        proj = rng.standard_normal((1, 2, 5, 5))

        def loss():
            return float(np.sum(conv2d_forward(x, p) * proj))

        g_out = proj.copy()
        gx, gw, gb = conv2d_backward(x, p, g_out)
        assert max_rel_err(gx, central_diff_grad(loss, x)) < 1e-6
        assert max_rel_err(gw, central_diff_grad(loss, p.weights)) < 1e-6
        assert max_rel_err(gb, central_diff_grad(loss, p.bias)) < 1e-6


@st.composite
def conv_cases(draw):
    """Kernel, dilation and odd non-square input sizes; every conv is "same"."""
    k = draw(st.sampled_from([1, 3]))
    h = 1 + 2 * draw(st.integers(0, 6))
    w = 1 + 2 * draw(st.integers(0, 6).filter(lambda n: 1 + 2 * n != h))
    return dict(k=k, d=draw(st.sampled_from([1, 2, 3, 5])), h=h, w=w,
                batch=draw(st.integers(1, 3)), cin=draw(st.integers(1, 4)),
                cout=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32 - 1)))


class TestConvAgainstOracles:
    @given(conv_cases())
    @settings(max_examples=60, deadline=None)
    def test_forward_and_backward_match_naive_loops(self, case):
        rng = np.random.default_rng(case["seed"])
        x = rng.standard_normal((case["batch"], case["cin"], case["h"], case["w"]))
        p = ConvParams(rng.standard_normal((case["cout"], case["cin"], case["k"], case["k"])),
                       rng.standard_normal(case["cout"]), dilation=case["d"])
        out = conv2d_forward(x, p)
        # atol only guards terms that cancel to ~0; float64 rounding is ~1e-15
        tol = dict(rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out, naive_conv2d(x, p.weights, p.bias, p.dilation, p.padding),
                                   **tol)
        g = rng.standard_normal(out.shape)
        want = naive_conv2d_backward(x, p.weights, p.dilation, p.padding, g)
        for got, ref in zip(conv2d_backward(x, p, g), want):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, **tol)

    @pytest.mark.parametrize("d", [1, 3])
    def test_1x1_fast_path_matches_general_path(self, rng, d):
        # the same 1x1 conv as the centre tap of a zero 3x3 kernel with "same"
        # padding: one skips im2col and col2im, the other runs both
        wide = rng.standard_normal((2, 5, 9, 7))
        x = wide[:, 1:4]  # a channel-slice view, as split_channels hands out
        p1 = make_params(rng, 4, 3, 1)
        w3 = np.zeros((4, 3, 3, 3))
        w3[:, :, 1, 1] = p1.weights[:, :, 0, 0]
        p3 = ConvParams(w3, p1.bias, dilation=d)
        np.testing.assert_allclose(conv2d_forward(x, p1), conv2d_forward(x, p3),
                                   rtol=1e-12, atol=1e-12)
        g = rng.standard_normal((2, 4, 9, 7))
        gx1, gw1, gb1 = conv2d_backward(x, p1, g)
        gx3, gw3, gb3 = conv2d_backward(x, p3, g)
        np.testing.assert_allclose(gx1, gx3, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw1[:, :, 0, 0], gw3[:, :, 1, 1], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(gb1, gb3)


def _channel_major(a):
    """The same values stored channel-major, as conv outputs are."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@st.composite
def engine_cases(draw):
    """`conv_cases` widened to what training and inference meet: batches up
    to 9, one output channel (the tail) or many, both float dtypes, and
    inputs and output gradients stored C-contiguous or channel-major."""
    case = draw(conv_cases())
    case.update(batch=draw(st.integers(1, 9)),
                cout=draw(st.sampled_from([1, 2, 4, 5, 8, 64, 128])),
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                x_channel_major=draw(st.booleans()),
                g_channel_major=draw(st.booleans()))
    return case


class TestConvAgainstPlainEngine:
    """Training is chaotic: a changed rounding anywhere moves the recorded
    losses within a few dozen epochs. So the backward kernels, and the
    forward of a one-band im2col matrix, must return the bits of the plain
    im2col engine kept in conftest, zeros' signs included. A forward of
    several bands may differ in the last bits (`TestBandedForward`)."""

    @given(engine_cases())
    # a float64 shape on which OpenBLAS rounds the last columns of the
    # input-gradient GEMM differently once zero columns pad it to wider planes
    @example(dict(k=3, d=2, h=7, w=9, batch=5, cin=3, cout=128, seed=0,
                  dtype=np.float64, x_channel_major=False, g_channel_major=False))
    # a `train` batch at head2: 8 channel-major items of 16x16, 8 -> 8 channels
    @example(dict(k=3, d=1, h=16, w=16, batch=8, cin=8, cout=8, seed=11,
                  dtype=np.float32, x_channel_major=True, g_channel_major=False))
    # 8 items of 32x32, as `deepref train` extracts by default: a 2.4 MB
    # matrix, so the forward runs in bands
    @example(dict(k=3, d=3, h=32, w=32, batch=8, cin=8, cout=8, seed=12,
                  dtype=np.float32, x_channel_major=True, g_channel_major=True))
    @settings(max_examples=80, deadline=None)
    def test_outputs_and_gradients_byte_equal(self, case):
        rng = np.random.default_rng(case["seed"])
        dt, k, cin, cout = case["dtype"], case["k"], case["cin"], case["cout"]
        x = rng.standard_normal((case["batch"], cin, case["h"], case["w"])).astype(dt)
        if case["x_channel_major"]:
            x = _channel_major(x)
        p = ConvParams(rng.standard_normal((cout, cin, k, k)).astype(dt),
                       rng.standard_normal(cout).astype(dt),
                       dilation=case["d"])

        out = conv2d_forward(x, p)
        want = plain_conv2d_forward(x, p)
        assert (out.dtype, out.shape) == (want.dtype, want.shape)
        assert out.transpose(1, 0, 2, 3).flags.c_contiguous
        if k == 1 or cin * k * k * out[:, 0].size * x.itemsize <= COLS_BYTES:
            # one GEMM, as in the plain engine
            assert out.tobytes() == want.tobytes()

        g = rng.standard_normal(out.shape).astype(dt)
        g[rng.random(g.shape) < 0.2] = 0.0  # ReLU masks pass exact zeros
        g[rng.random(g.shape) < 0.05] = -0.0
        if case["g_channel_major"]:
            g = _channel_major(g)
        got = conv2d_backward(x, p, g)
        names = ("grad_input", "grad_weights", "grad_bias")
        for name, a, b in zip(names, got, plain_conv2d_backward(x, p, g)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert got[0].flags.c_contiguous

        skipped = conv2d_backward(x, p, g, want_grad_input=False)
        assert skipped[0] is None
        assert skipped[1].tobytes() == got[1].tobytes()
        assert skipped[2].tobytes() == got[2].tobytes()


@st.composite
def banded_cases(draw):
    """3x3 "same" convs whose im2col matrix exceeds COLS_BYTES, so the
    forward pass builds it in bands of output rows; widths are not multiples
    of 8 and the last band of each item is short."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    batch, cin = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    w = draw(st.integers(9, 90).filter(lambda n: n % 8))
    band_rows = COLS_BYTES // (cin * 9 * w * np.dtype(dtype).itemsize)
    h = band_rows + draw(st.integers(1, band_rows - 1))
    return dict(batch=batch, cin=cin, h=h, w=w, dtype=dtype,
                cout=draw(st.sampled_from([1, 4, 64])), d=draw(st.sampled_from([1, 3, 5])),
                seed=draw(st.integers(0, 2**32 - 1)))


class TestBandedForward:
    """Above COLS_BYTES the forward GEMM runs once per band of output rows.
    OpenBLAS picks the kernels of a GEMM's last columns by the column count,
    so a band may round differently from the whole matrix; the result must
    match within the float error bound of a dot product."""

    @given(banded_cases())
    # 13 items of 30 rows: whole items per band, the last band holds fewer
    @example(dict(batch=13, cin=8, h=30, w=13, dtype=np.float32, cout=4, d=3, seed=5))
    @settings(max_examples=25, deadline=None)
    def test_matches_plain_engine_within_rounding(self, case):
        rng = np.random.default_rng(case["seed"])
        dt, cin, cout = case["dtype"], case["cin"], case["cout"]
        x = rng.standard_normal((case["batch"], cin, case["h"], case["w"])).astype(dt)
        p = ConvParams(rng.standard_normal((cout, cin, 3, 3)).astype(dt),
                       rng.standard_normal(cout).astype(dt), dilation=case["d"])
        cols_bytes = cin * 9 * x[:, 0].size * x.itemsize
        row_bytes = cin * 9 * case["w"] * x.itemsize
        # a row fits in a band, so no band exceeds COLS_BYTES and there are >= 2
        assert row_bytes <= COLS_BYTES < cols_bytes

        out = conv2d_forward(x, p)
        want = plain_conv2d_forward(x, p)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.transpose(1, 0, 2, 3).flags.c_contiguous
        # two summation orders of n = 9*cin + 1 terms each lie within
        # n*eps*sum|terms| of the exact sum
        magnitude = plain_conv2d_forward(np.abs(x), ConvParams(np.abs(p.weights), np.abs(p.bias),
                                                               dilation=case["d"]))
        bound = 2 * (9 * cin + 1) * np.finfo(dt).eps * magnitude
        assert np.all(np.abs(out.astype(np.float64) - want) <= bound)

    def test_workspace_is_one_band(self):
        # 1x16x256x256 float32 at dilation 3: the whole im2col matrix would
        # take 36 MiB; the peak must stay below padded input + output + 1 MiB
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 16, 256, 256), dtype=np.float32)
        p = make_params(rng, 16, 16, 3, dilation=3, dtype=np.float32)
        padded, out_bytes = 16 * 262 * 262 * 4, 16 * 256 * 256 * 4
        tracemalloc.start()
        try:
            out = conv2d_forward(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == out_bytes
        assert peak < padded + out_bytes + (1 << 20)


class TestRelu:
    def test_forward_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_values(self):
        g = relu_backward(np.array([-1.0, 2.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(g, [0.0, 5.0])

    def test_subgradient_at_zero_is_zero(self):
        assert relu_backward(np.array([0.0]), np.array([7.0]))[0] == 0.0

    def test_mask_from_the_output_equals_the_mask_from_the_input(self, rng):
        # so a ReLU run in place needs no copy of its input
        x = np.concatenate([rng.standard_normal(64),
                            [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45]])
        g = rng.standard_normal(x.size)
        for dtype in (np.float32, np.float64):
            xd, gd = x.astype(dtype), g.astype(dtype)
            assert relu_backward(relu(xd), gd).tobytes() == relu_backward(xd, gd).tobytes()

    def test_conv_relu_composite_finite_difference(self, rng):
        x = rng.uniform(0.1, 1.0, (1, 1, 6, 6)) * rng.choice([-1.0, 1.0], (1, 1, 6, 6))
        p = make_params(rng, 2, 1, 3)
        proj = rng.standard_normal((1, 2, 6, 6))

        def loss():
            return float(np.sum(relu(conv2d_forward(x, p)) * proj))

        z = conv2d_forward(x, p)
        gx, gw, gb = conv2d_backward(x, p, relu_backward(z, proj))
        assert max_rel_err(gx, central_diff_grad(loss, x)) < 1e-6
        assert max_rel_err(gw, central_diff_grad(loss, p.weights)) < 1e-6


class TestConcat:
    def test_channel_counts_add(self, rng):
        a = rng.standard_normal((2, 32, 4, 4))
        b = rng.standard_normal((2, 32, 4, 4))
        assert concat_channels([a, b]).shape == (2, 64, 4, 4)

    def test_concat_split_round_trip(self, rng):
        parts = [rng.standard_normal((1, c, 3, 5)) for c in (2, 3, 4)]
        back = split_channels(concat_channels(parts), [2, 3, 4])
        for orig, rec in zip(parts, back):
            np.testing.assert_array_equal(orig, rec)

    def test_spatial_mismatch_raises(self, rng):
        a = rng.standard_normal((1, 2, 4, 4))
        b = rng.standard_normal((1, 2, 5, 4))
        with pytest.raises(ShapeMismatchError, match="spatial"):
            concat_channels([a, b])

    def test_gradient_splits_per_part(self, rng):
        parts = [rng.uniform(0.1, 1.0, (1, 2, 4, 4)) for _ in range(3)]
        proj = rng.standard_normal((1, 6, 4, 4))

        def loss():
            return float(np.sum(concat_channels(parts) * proj))

        grads = split_channels(proj, [2, 2, 2])
        for part, g in zip(parts, grads):
            assert max_rel_err(g, central_diff_grad(loss, part)) < 1e-6


class TestAdadelta:
    def test_zero_grad_leaves_param_and_decays_accumulators(self):
        param = np.array([1.0, -2.0])
        state = AdadeltaState(np.array([4.0, 1.0]), np.array([2.0, 0.5]))
        new_param, new_state = adadelta_step(param, np.zeros(2), state, 1e-4)
        np.testing.assert_array_equal(new_param, param)
        np.testing.assert_allclose(new_state.acc_grad_sq, [3.8, 0.95])
        np.testing.assert_allclose(new_state.acc_delta_sq, [1.9, 0.475])

    def test_closed_form_first_step(self):
        # fresh state, lr=1e-4, scalar grad 1.0
        rho, eps, lr = RHO, EPS, 1e-4
        eg = (1.0 - rho) * 1.0
        delta = -((0.0 + eps) / (eg + eps)) ** 0.5
        assert delta == pytest.approx(-0.0044721, abs=1e-7)

        param = np.array([0.5])
        state = AdadeltaState.zeros_like(param)
        new_param, new_state = adadelta_step(param, np.array([1.0]), state, lr)
        assert new_param[0] - param[0] == pytest.approx(lr * delta, rel=1e-12)
        assert new_param[0] - param[0] == pytest.approx(-4.4721e-7, rel=1e-4)
        np.testing.assert_allclose(new_state.acc_grad_sq, [eg])

    def test_identical_seeds_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(7)
            param = np.zeros(5)
            state = AdadeltaState.zeros_like(param)
            for _ in range(50):
                param, state = adadelta_step(param, rng.standard_normal(5), state, 1.0)
            return param

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_grad_aborts(self):
        param = np.zeros(2)
        state = AdadeltaState.zeros_like(param)
        with pytest.raises(NonFiniteError):
            adadelta_step(param, np.array([1.0, np.inf]), state, 1e-4)
        np.testing.assert_array_equal(state.acc_grad_sq, np.zeros(2))

    @pytest.mark.parametrize("dtype,grad,acc_delta_sq,lr", [
        (np.float64, 1e200, 0.0, 1e-4),  # g^2 overflows E[g^2]
        (np.float64, 1.0, 1e300, 1e200),  # lr*delta overflows the parameter
        (np.float32, 1.0, 0.0, 1e308),  # lr overflows float32
    ])
    def test_overflowing_update_refused_and_inputs_untouched(self, dtype, grad, acc_delta_sq, lr):
        param = np.array([0.5, -0.5], dtype=dtype)
        grad = np.full(2, grad, dtype=dtype)
        state = AdadeltaState(np.zeros(2, dtype=dtype), np.full(2, acc_delta_sq, dtype=dtype))
        before = [a.copy() for a in (param, grad, *state)]
        with pytest.raises(NonFiniteError, match="not finite"):
            adadelta_step(param, grad, state, lr)
        for now, then in zip((param, grad, *state), before):
            assert now.tobytes() == then.tobytes()

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_lr_zero_never_moves_and_accumulators_stay_nonneg(self, grads, seed):
        rng = np.random.default_rng(seed)
        param = rng.standard_normal(3)
        original = param.copy()
        state = AdadeltaState.zeros_like(param)
        for g in grads:
            param, state = adadelta_step(param, np.full(3, g), state, 0.0)
            assert np.all(state.acc_grad_sq >= 0.0)
            assert np.all(state.acc_delta_sq >= 0.0)
        np.testing.assert_array_equal(param, original)

    def test_state_shape_mismatch_raises(self):
        state = AdadeltaState.zeros_like(np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            adadelta_step(np.zeros(2), np.zeros(2), state, 1e-4)


def test_operations_are_pure(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    p = make_params(rng, 2, 2, 3, dilation=3)
    x_copy, w_copy = x.copy(), p.weights.copy()
    a = conv2d_forward(x, p)
    b = conv2d_forward(x, p)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(x, x_copy)
    np.testing.assert_array_equal(p.weights, w_copy)
