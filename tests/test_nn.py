import dataclasses
import inspect
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY_MODEL, numpy_bytes
from oracles import finite_difference, naive_lstm, relative_error
from phonoscribe.nn import (
    AdamW,
    BatchNorm1d,
    BiLSTM,
    CheckpointError,
    Conv1d,
    Dropout,
    INPUT_WIDTH,
    LSTM,
    Linear,
    ModelConfig,
    ReLU,
    ShapeMismatchError,
    TranscriptionModel,
    load_checkpoint,
    save_checkpoint,
)
from phonoscribe.nn import lstm as lstm_module
from phonoscribe.nn.layers import BN_EPS

GRAD_TOL = 1e-4
TRAIN = (0, 0)  # a training ctx: the dropout key (seed, step)


def rng64(seed):
    return np.random.default_rng(seed)


def check_layer_gradients(layer, x, forward, seed=0, tol=GRAD_TOL):
    """Compare analytic grads for x and every parameter against central
    finite differences of a random linear functional of the output."""
    rng = rng64(seed)
    y = forward(x)
    probe = rng.normal(size=y.shape)

    def loss():
        return float((forward(x) * probe).sum())

    dx = layer.backward(probe.astype(x.dtype))
    num_dx = finite_difference(loss, x)
    assert relative_error(dx, num_dx) < tol
    grads = dict(layer.grads)
    for name, param in layer.params.items():
        num = finite_difference(loss, param)
        assert relative_error(grads[name], num) < tol, name


class TestConv1d:
    def test_identity_kernel(self):
        layer = Conv1d(3, 3, 1, dtype=np.float64)
        layer.params["w"][0] = np.eye(3)
        x = rng64(0).normal(size=(2, 5, 3))
        assert np.allclose(layer.forward(x), x)

    def test_hand_convolution_with_zero_pad(self):
        layer = Conv1d(1, 1, 3, dtype=np.float64)
        layer.params["w"][:] = 1.0
        x = np.array([[[1.0], [2.0], [3.0]]])
        y = layer.forward(x)
        assert np.allclose(y[0, :, 0], [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Conv1d(1, 1, 2)

    def test_wrong_channels_rejected(self):
        layer = Conv1d(4, 2, 3)
        with pytest.raises(ShapeMismatchError):
            layer.forward(np.zeros((1, 5, 3), dtype=np.float32))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = rng64(seed)
        layer = Conv1d(3, 4, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 6, 3))
        check_layer_gradients(layer, x, layer.forward, seed=seed)

    def test_weight_gradient_matches_einsum(self):
        rng = rng64(5)
        layer = Conv1d(3, 7, 5, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 9, 3))
        layer.forward(x)
        dy = rng.normal(size=(2, 9, 7))
        layer.backward(dy)
        x_pad = np.pad(x, ((0, 0), (2, 2), (0, 0)))
        expected = np.stack([np.einsum("bti,bto->io", x_pad[:, k:k + 9], dy)
                             for k in range(5)])
        assert np.allclose(layer.grads["w"], expected)


class TestReLU:
    def test_values(self):
        layer = ReLU()
        assert np.array_equal(layer.forward(np.array([[[-1.0, 2.0]]])),
                              [[[0.0, 2.0]]])

    def test_gradient_away_from_zero(self):
        layer = ReLU()
        x = rng64(1).normal(size=(2, 4, 3))
        x[np.abs(x) < 0.1] = 0.5  # keep clear of the kink
        check_layer_gradients(layer, x, layer.forward)

    def test_no_gradient_at_exact_zero(self):
        layer = ReLU()
        layer.forward(np.zeros((1, 1, 1)))
        assert layer.backward(np.ones((1, 1, 1)))[0, 0, 0] == 0.0


class TestBatchNorm:
    def test_identity_on_standardized_batch(self):
        layer = BatchNorm1d(3, dtype=np.float64)
        rng = rng64(2)
        x = rng.normal(size=(4, 10, 3))
        # target variance 1 - eps so that sqrt(var + eps) is exactly 1
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        x = x * np.sqrt(1.0 - BN_EPS)
        y = layer.forward(x, TRAIN)
        assert np.abs(y - x).max() < 1e-6

    def test_beta_only_output(self):
        layer = BatchNorm1d(2, dtype=np.float64)
        layer.params["gamma"][:] = 0.0
        layer.params["beta"][:] = 5.0
        y = layer.forward(rng64(3).normal(size=(2, 4, 2)), TRAIN)
        assert np.allclose(y, 5.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_train_mode(self, seed):
        rng = rng64(seed + 10)
        layer = BatchNorm1d(3, dtype=np.float64)
        layer.params["gamma"][:] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"][:] = rng.normal(size=3)
        x = rng.normal(size=(2, 5, 3))
        check_layer_gradients(layer, x, lambda v: layer.forward(v, TRAIN),
                              seed=seed)

    def test_degenerate_batch(self):
        layer = BatchNorm1d(3)
        with pytest.raises(ValueError,
                           match=r"^batch x time == 1 in train mode$"):
            layer.forward(np.zeros((1, 1, 3), dtype=np.float32), TRAIN)

    def test_running_stats_converge_geometrically(self):
        layer = BatchNorm1d(2, dtype=np.float64)
        x = rng64(4).normal(loc=3.0, scale=2.0, size=(4, 8, 2))
        batch_mean = x.mean(axis=(0, 1))
        gaps = []
        for _ in range(60):
            layer.forward(x, TRAIN)
            gaps.append(np.abs(layer.buffers["running_mean"] - batch_mean).max())
        assert gaps[-1] < 1e-2
        # each step closes the gap by the momentum factor
        assert gaps[10] == pytest.approx(gaps[9] * 0.9, rel=1e-6)

    def test_running_stats_update_in_place(self):
        layer = BatchNorm1d(2)
        held = dict(layer.buffers)
        x = rng64(5).normal(loc=3.0, size=(2, 4, 2)).astype(np.float32)
        layer.forward(x, TRAIN)
        for name, array in held.items():
            assert layer.buffers[name] is array, name
        assert np.all(held["running_mean"] > 0)

    def test_train_forward_keeps_the_np_var_bytes(self):
        # A time-major view, as a BiLSTM hands on, sets the sums' order.
        rng = rng64(6)
        x = rng.normal(1.0, 2.0, size=(30, 4, 16)).astype(np.float32)
        x = x.transpose(1, 0, 2)
        layer = BatchNorm1d(16)
        layer.params["gamma"][:] = rng.uniform(0.5, 1.5, 16)
        layer.params["beta"][:] = rng.normal(size=16)
        y = layer.forward(x, TRAIN)

        mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
        x_hat = x - mean
        x_hat *= 1.0 / np.sqrt(var + BN_EPS)
        want_y = layer.params["gamma"] * x_hat
        want_y += layer.params["beta"]
        want_mean = np.zeros(16, np.float32)
        want_var = np.ones(16, np.float32)
        for stat, batch in ((want_mean, mean), (want_var, var)):
            stat *= 0.9
            stat += 0.1 * batch
        assert y.tobytes() == want_y.tobytes()
        assert layer.buffers["running_mean"].tobytes() == want_mean.tobytes()
        assert layer.buffers["running_var"].tobytes() == want_var.tobytes()

    def test_train_backward_matches_the_float64_formula(self):
        rng = rng64(7)
        x = rng.normal(1.0, 2.0, size=(4, 30, 16)).astype(np.float32)
        dy = rng.normal(size=x.shape).astype(np.float32)
        layer = BatchNorm1d(16)
        layer.params["gamma"][:] = rng.uniform(0.5, 1.5, 16)
        layer.forward(x, TRAIN)
        dx = layer.backward(dy)

        x64, dy64 = x.astype(np.float64), dy.astype(np.float64)
        gamma = layer.params["gamma"].astype(np.float64)
        inv_std = 1.0 / np.sqrt(x64.var(axis=(0, 1)) + BN_EPS)
        x_hat = (x64 - x64.mean(axis=(0, 1))) * inv_std
        dx_hat = dy64 * gamma
        want_dx = inv_std * (dx_hat - dx_hat.mean(axis=(0, 1))
                             - x_hat * (dx_hat * x_hat).mean(axis=(0, 1)))
        assert relative_error(dx, want_dx) < 1e-5
        assert relative_error(layer.grads["gamma"],
                              (dy64 * x_hat).sum(axis=(0, 1))) < 1e-5
        assert relative_error(layer.grads["beta"], dy64.sum(axis=(0, 1))) < 1e-5

    def test_train_backward_holds_one_new_array(self):
        rng = rng64(8)
        x = rng.normal(size=(4, 50, 256)).astype(np.float32)
        dy = rng.normal(size=x.shape).astype(np.float32)
        layer = BatchNorm1d(256)
        layer.forward(x, TRAIN)
        with numpy_bytes() as usage:
            layer.backward(dy)
            _, peak = usage()
        # dx, and no full-size product beside it (two before).
        assert peak < 1.5 * x.nbytes

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(1, dtype=np.float64)
        layer.buffers["running_mean"][:] = 2.0
        layer.buffers["running_var"][:] = 4.0
        y = layer.forward(np.full((1, 2, 1), 4.0), None)
        assert np.allclose(y, (4.0 - 2.0) / np.sqrt(4.0 + 1e-5))


class TestDropout:
    def test_p_zero_is_identity(self):
        layer = Dropout(0.0, layer_id=1)
        x = rng64(5).normal(size=(2, 3, 4))
        assert layer.forward(x, TRAIN) is x

    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, layer_id=1)
        x = rng64(6).normal(size=(2, 3, 4))
        assert layer.forward(x, None) is x

    def test_survivor_rate_binomial_bound(self):
        layer = Dropout(0.3, layer_id=2)
        n = 1_000_000
        x = np.ones((1, 1000, 1000))
        y = layer.forward(x, TRAIN)
        survivors = np.count_nonzero(y)
        expected = n * 0.7
        sigma = np.sqrt(n * 0.3 * 0.7)
        assert abs(survivors - expected) < 3 * sigma

    def test_survivors_scaled(self):
        layer = Dropout(0.5, layer_id=1)
        y = layer.forward(np.ones((1, 10, 10)), TRAIN)
        kept = y[y != 0]
        assert np.allclose(kept, 2.0)

    def test_mask_keyed_on_seed_layer_step(self):
        x = np.ones((1, 50, 50))

        def mask(seed, layer_id, step):
            layer = Dropout(0.5, layer_id=layer_id)
            return layer.forward(x, (seed, step))

        assert np.array_equal(mask(1, 1, 5), mask(1, 1, 5))
        assert not np.array_equal(mask(1, 1, 5), mask(1, 1, 6))
        assert not np.array_equal(mask(1, 1, 5), mask(1, 2, 5))
        assert not np.array_equal(mask(1, 1, 5), mask(2, 1, 5))

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.4, layer_id=3)
        x = rng64(7).normal(size=(2, 5, 5))
        y = layer.forward(x, (0, 1))
        dy = np.ones_like(y)
        dx = layer.backward(dy)
        assert np.array_equal(dx == 0, y == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_products_equal_the_float_mask(self, dtype):
        # The bool mask scales exactly as keep.astype(dtype) / (1 - p) does.
        layer = Dropout(0.3, layer_id=4)
        x = rng64(8).normal(size=(3, 20, 10)).astype(dtype)
        y = layer.forward(x, TRAIN)
        mask = (y != 0).astype(dtype) / (1.0 - 0.3)
        assert np.array_equal(y, x * mask)
        dy = rng64(9).normal(size=x.shape).astype(dtype)
        assert np.array_equal(layer.backward(dy), dy * mask)


class TestLinear:
    def test_identity(self):
        layer = Linear(3, 3, dtype=np.float64)
        layer.params["w"][:] = np.eye(3)
        x = rng64(8).normal(size=(2, 4, 3))
        assert np.allclose(layer.forward(x), x)

    def test_zero_weights_broadcast_bias(self):
        layer = Linear(3, 2, dtype=np.float64)
        layer.params["b"][:] = [1.0, -1.0]
        y = layer.forward(rng64(9).normal(size=(1, 4, 3)))
        assert np.allclose(y, [1.0, -1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = rng64(seed + 20)
        layer = Linear(4, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 5, 4))
        check_layer_gradients(layer, x, layer.forward, seed=seed)

    def test_weight_gradient_matches_einsum(self):
        rng = rng64(25)
        layer = Linear(4, 6, rng=rng, dtype=np.float64)
        x = rng.normal(size=(3, 5, 4))
        layer.forward(x)
        dy = rng.normal(size=(3, 5, 6))
        layer.backward(dy)
        assert np.allclose(layer.grads["w"], np.einsum("bti,bto->io", x, dy))


class TestLSTM:
    weights_left = False  # the recurrent GEMMs' orientation, forced for every case

    @pytest.fixture(autouse=True)
    def _orientation(self, monkeypatch):
        monkeypatch.setattr(lstm_module, "_weights_left",
                            lambda b_sz, hs: self.weights_left)

    def test_zero_weights_give_zero_output(self):
        layer = LSTM(3, 4, dtype=np.float64)
        layer.params["b"][:] = 0.0  # clear the forget-bias preset
        y = layer.forward(np.ones((2, 5, 3)))
        assert np.allclose(y, 0.0)

    def test_single_step_hand_computed(self):
        layer = LSTM(1, 1, dtype=np.float64)
        layer.params["wx"][:] = 0.5
        layer.params["wh"][:] = 0.5
        layer.params["b"][:] = 0.0
        y = layer.forward(np.ones((1, 1, 1)))

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i = f = o = sig(0.5)
        g = np.tanh(0.5)
        c = i * g
        h = o * np.tanh(c)
        assert y[0, 0, 0] == pytest.approx(h, abs=1e-12)
        assert i == pytest.approx(0.62246, abs=1e-4)
        assert g == pytest.approx(0.46212, abs=1e-4)
        assert c == pytest.approx(0.28768, abs=1e-3)
        assert h == pytest.approx(0.17416, abs=1e-3)

    @pytest.mark.parametrize("seed", range(3))
    def test_bptt_gradients(self, seed):
        rng = rng64(seed + 30)
        layer = LSTM(3, 4, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 5, 3))
        check_layer_gradients(layer, x, layer.forward, seed=seed, tol=1e-5)

    def test_matches_naive_loop(self):
        rng = rng64(35)
        layer = LSTM(4, 5, rng=rng, dtype=np.float64)
        layer.params["b"][:] = rng.normal(size=20)
        x = rng.normal(size=(3, 7, 4))
        want = naive_lstm(x, *(layer.params[k] for k in ("wx", "wh", "b")))
        assert np.allclose(layer.forward(x), want, rtol=0, atol=1e-12)

    def test_bptt_gradients_reverse_wider_shape(self):
        rng = rng64(36)
        layer = LSTM(4, 5, reverse=True, rng=rng, dtype=np.float64)
        x = rng.normal(size=(3, 7, 4))
        check_layer_gradients(layer, x, layer.forward, tol=1e-5)

    def test_float32_saturated_gates(self):
        # Pre-activations of +-1e3 drive every gate to exactly 0 or 1. With
        # x = +1: i = o = 1, f = 0, g = 1, so c = 1 and h = tanh(1) at every
        # step; with x = -1: i = o = 0, f = 1, g = -1, so c = h = 0.
        layer = LSTM(1, 2, dtype=np.float32)
        signs = np.repeat([1e3, -1e3, 1e3, 1e3], 2)  # (i, f, g, o), 2 units each
        layer.params["wx"][:] = signs
        layer.params["wh"][:] = signs  # h >= 0 only deepens the saturation
        x = np.array([1.0, -1.0], dtype=np.float32).reshape(2, 1, 1)
        x = np.repeat(x, 6, axis=1)
        y = layer.forward(x)
        assert np.array_equal(y[0], np.full((6, 2), np.tanh(np.float32(1.0))))
        assert np.array_equal(y[1], np.zeros((6, 2)))
        # Saturated gates pass no gradient, and nothing overflows on the way.
        dx = layer.backward(np.ones_like(y))
        assert np.array_equal(dx, np.zeros_like(dx))
        for name, grad in layer.grads.items():
            assert np.array_equal(grad, np.zeros_like(grad)), name

    def test_reverse_direction_mirrors_forward(self):
        rng = rng64(33)
        fw = LSTM(3, 4, rng=rng64(33), dtype=np.float64)
        bw = LSTM(3, 4, reverse=True, rng=rng64(33), dtype=np.float64)
        x = rng.normal(size=(2, 6, 3))
        assert np.allclose(bw.forward(x), fw.forward(x[:, ::-1])[:, ::-1])

    def test_bidirectional_concatenates(self):
        rng = rng64(34)
        layer = BiLSTM(3, 4, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 5, 3))
        y = layer.forward(x)
        assert y.shape == (2, 5, 8)
        assert np.allclose(y[:, :, :4], layer.fw.forward(x))

    @pytest.mark.parametrize("seed", range(2))
    def test_bidirectional_gradients(self, seed):
        rng = rng64(seed + 40)
        layer = BiLSTM(2, 3, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 4, 2))
        check_layer_gradients(layer, x, layer.forward, seed=seed, tol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b_sz, t_len, n_in, hs", [
        (3, 7, 5, 4), (1, 6, 3, 5), (4, 1, 6, 3), (1, 1, 2, 3), (2, 9, 4, 4)])
    def test_bidirectional_equals_two_separate_directions(
            self, dtype, b_sz, t_len, n_in, hs):
        # Both directions advance in one stacked loop; every element must
        # come out as a run of each direction on its own would give it.
        rng = rng64(100 * b_sz + 10 * t_len + n_in)
        layer = BiLSTM(n_in, hs, rng=rng, dtype=dtype)
        for value in layer.params.values():
            value += rng.normal(scale=0.3, size=value.shape).astype(dtype)
        singles = {"fw": LSTM(n_in, hs, dtype=dtype),
                   "bw": LSTM(n_in, hs, reverse=True, dtype=dtype)}
        for name, single in singles.items():
            for key, value in single.params.items():
                value[...] = layer.params[f"{name}.{key}"]
        x = rng.normal(size=(b_sz, t_len, n_in)).astype(dtype)
        dy = rng.normal(size=(b_sz, t_len, 2 * hs)).astype(dtype)

        y = layer.forward(x)
        dx = layer.backward(dy)
        want_y = np.concatenate([singles["fw"].forward(x),
                                 singles["bw"].forward(x)], axis=2)
        want_dx = (singles["fw"].backward(dy[:, :, :hs])
                   + singles["bw"].backward(dy[:, :, hs:]))
        assert y.dtype == dx.dtype == dtype
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, want_dx)
        assert len(layer.grads) == 6
        for name, single in singles.items():
            for key, grad in single.grads.items():
                assert np.array_equal(layer.grads[f"{name}.{key}"], grad), (name, key)

    def test_bidirectional_backward_frees_its_inputs_before_dx(self):
        # At I >> H the dx GEMMs set the backward's peak. Traced from the
        # forward on, so that the cache's release shows: 2.47 MiB rows-left
        # and 2.34 weights-left, against 2.96 and 2.83 while the hidden
        # states and the time-major input (0.49 MiB) were kept through them.
        layer = BiLSTM(512, 64, rng=rng64(53))
        x = rng64(54).normal(size=(4, 50, 512)).astype(np.float32)
        dy = rng64(55).normal(size=(4, 50, 128)).astype(np.float32)
        with numpy_bytes() as usage:
            layer.forward(x, TRAIN)
            tracemalloc.reset_peak()
            layer.backward(dy)
            _, peak = usage()
        assert peak < 2.65 * 2**20

    def test_bidirectional_backward_holds_two_state_arrays(self):
        # At I << H the step loop sets the backward's peak. Above what the
        # forward left held it read 2.32 arrays of T·2·B·H floats with the
        # factors built a block of steps at a time, against 3.19 with them
        # built over whole arrays beside the cells and hidden states.
        b_sz, t_len, hs = 16, 200, 64
        layer = BiLSTM(8, hs, rng=rng64(60))
        x = rng64(61).normal(size=(b_sz, t_len, 8)).astype(np.float32)
        dy = rng64(62).normal(size=(b_sz, t_len, 2 * hs)).astype(np.float32)
        with numpy_bytes() as usage:
            layer.forward(x, TRAIN)
            held, _ = usage()
            tracemalloc.reset_peak()
            layer.backward(dy)
            _, peak = usage()
        assert peak - held < 2.75 * t_len * 2 * b_sz * hs * x.itemsize

    # Steps per block; the default gives blocks of 4 steps here.
    @pytest.mark.parametrize("steps", [1, 3, 7])  # 3: the first is partial
    def test_backward_bytes_do_not_depend_on_the_step_block(
            self, monkeypatch, steps):
        b_sz, t_len, n_in, hs = 16, 7, 5, 128
        assert lstm_module.STEP_BLOCK // (2 * b_sz * hs) == 4
        rng = rng64(63)
        layer = BiLSTM(n_in, hs, rng=rng)
        for value in layer.params.values():
            value += rng.normal(scale=0.3, size=value.shape).astype(value.dtype)
        x = rng.normal(size=(b_sz, t_len, n_in)).astype(np.float32)
        dy = rng.normal(size=(b_sz, t_len, 2 * hs)).astype(np.float32)

        def run():
            return layer.forward(x, TRAIN), layer.backward(dy), layer.grads

        want_y, want_dx, want_grads = run()
        monkeypatch.setattr(lstm_module, "STEP_BLOCK", steps * 2 * b_sz * hs)
        y, dx, grads = run()
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, want_dx)
        assert grads.keys() == want_grads.keys()
        for key, grad in grads.items():
            assert np.array_equal(grad, want_grads[key]), key

    def test_bidirectional_cache_is_the_input_and_gates(self):
        b_sz, t_len, n_in, hs = 3, 7, 5, 4
        layer = BiLSTM(n_in, hs, rng=rng64(56))
        x = rng64(57).normal(size=(b_sz, t_len, n_in)).astype(np.float32)
        layer.forward(x, TRAIN)
        assert np.array_equal(layer._cache[0], x.transpose(1, 0, 2))
        gates = 2 * t_len * b_sz * 4 * hs * x.itemsize
        assert sum(a.nbytes for a in layer._cache) == x.nbytes + gates

    def test_backward_rebuilds_the_forward_states_bit_for_bit(self):
        b_sz, t_len, hs = 3, 9, 6
        layer = BiLSTM(5, hs, rng=rng64(58))
        x = rng64(59).normal(size=(b_sz, t_len, 5)).astype(np.float32)
        y = layer.forward(x, TRAIN)
        i, f, g, o = layer._cache[1].reshape(2, t_len, b_sz, 4, hs).transpose(
            3, 1, 0, 2, 4)
        hidden = o * np.tanh(lstm_module._rebuild_cells(i, f, g))
        assert np.array_equal(hidden[:, 0].transpose(1, 0, 2), y[:, :, :hs])
        assert np.array_equal(hidden[::-1, 1].transpose(1, 0, 2), y[:, :, hs:])

    @pytest.mark.parametrize("shape", [(2, 5), (2, 5, 4), (2, 5, 3, 1)])
    def test_bidirectional_checks_its_own_input(self, monkeypatch, shape):
        def not_called(*args):
            raise AssertionError("BiLSTM ran LSTM.forward")

        monkeypatch.setattr(LSTM, "forward", not_called)
        layer = BiLSTM(3, 4, rng=rng64(52), dtype=np.float64)
        with pytest.raises(ShapeMismatchError, match=r"expected \(B, T, 3\)"):
            layer.forward(np.zeros(shape))
        assert layer.forward(np.zeros((2, 5, 3))).shape == (2, 5, 8)


class TestLSTMWeightsLeft(TestLSTM):
    """Every ``TestLSTM`` case again with the recurrent GEMMs weights-left,
    which the shapes here would not pick."""

    weights_left = True


class TestRecurrentOrientation:
    @pytest.mark.parametrize("hs", [1, 64, 256, 512, 1024, 4096])
    def test_batch_of_one_keeps_rows_left(self, hs):
        assert not lstm_module._weights_left(1, hs)

    @pytest.mark.parametrize("b_sz, hs, weights_left", [
        (8, 64, False),     # the gate size
        (32, 128, False),
        (3, 256, False),    # 786,432 multiply-adds per direction and step
        (4, 256, True),     # 1,048,576
        (2, 512, True),
        (20, 512, True),    # the shipped size
    ])
    def test_choice_by_shape(self, b_sz, hs, weights_left):
        assert lstm_module._weights_left(b_sz, hs) is weights_left

    @pytest.mark.parametrize("hs", [1, 128, 300])
    def test_transposed_copy_is_contiguous_wh_t(self, hs):
        layer = LSTM(2, hs, rng=rng64(82))
        copy, = lstm_module._recurrent_weights((layer,), transposed=True)
        assert copy.flags.c_contiguous
        assert np.array_equal(copy, layer.params["wh"].T)

    def test_batch_of_one_forward_copies_no_weight(self):
        # Rows-left reads each wh in place, so the eval and infer path
        # (B=1) allocates less than one recurrent weight matrix.
        layer = BiLSTM(16, 512, rng=rng64(80))
        x = rng64(81).normal(size=(1, 5, 16)).astype(np.float32)
        with numpy_bytes() as usage:
            layer.forward(x)
            _, peak = usage()
        assert peak < layer.params["fw.wh"].nbytes


class TestAdamW:
    def test_zero_grad_only_decays(self):
        # A zero gradient leaves the Adam term at 0, so only the decoupled
        # decay lr * wd * w moves the parameters.
        p = {"w": np.ones(3)}
        opt = AdamW(p, lr=1e-4)
        opt.step({"w": np.zeros(3)})
        assert np.array_equal(p["w"], np.ones(3) - 1e-4 * 0.01 * np.ones(3))

    def test_first_step_closed_form(self):
        # With m_hat = g and v_hat = g^2, the first step moves by
        # lr * g / (|g| + eps) regardless of the gradient's size, plus the
        # decay lr * wd * w.
        g = np.array([-3.0, 2e-3, 5e4])
        p = {"w": np.ones(3)}
        opt = AdamW(p, lr=1e-4)
        opt.step({"w": g})
        expected = 1.0 - 1e-4 * 0.01 - 1e-4 * (g / (np.abs(g) + 1e-8))
        assert np.allclose(p["w"], expected, rtol=0, atol=1e-12)

    def test_decoupled_decay_adds_term(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, lr=1e-4)
        opt.step({"w": np.array([2.0])})
        expected = 1.0 - 1e-6 - 1e-4 * (2.0 / (2.0 + 1e-8))
        assert p["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_equals_longhand_adamw(self):
        rng = rng64(50)
        start = rng.normal(size=8)
        grads = [rng.normal(size=8) for _ in range(5)]

        p = {"w": start.copy()}
        opt = AdamW(p, lr=1e-3)
        for g in grads:
            opt.step({"w": g})

        # reference AdamW, written out longhand
        w = start.copy()
        m = np.zeros(8)
        v = np.zeros(8)
        for t, g in enumerate(grads, 1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            w = w - 1e-3 * 0.01 * w - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p["w"], w, atol=1e-12)

    def test_decay_is_fixed(self):
        assert list(inspect.signature(AdamW).parameters) == ["params", "lr"]

    def test_missing_gradient_is_an_error(self):
        opt = AdamW({"v": np.ones(2), "w": np.ones(3)})
        with pytest.raises(KeyError, match="w"):
            opt.step({"v": np.ones(2)})

    def test_shape_mismatch(self):
        opt = AdamW({"w": np.ones(3)})
        with pytest.raises(ShapeMismatchError):
            opt.step({"w": np.ones(4)})

    def test_state_round_trip(self):
        p = {"w": np.ones(3, dtype=np.float32)}
        opt = AdamW(p, lr=1e-3)
        opt.step({"w": np.full(3, 0.5, dtype=np.float32)})
        saved = {k: v.copy() for k, v in opt.state_arrays().items()}
        t = opt.t

        fresh = AdamW({"w": p["w"].copy()}, lr=1e-3)
        fresh.load_state(saved, t)
        assert fresh.t == 1
        assert np.array_equal(fresh.m["w"], opt.m["w"])
        assert np.array_equal(fresh.v["w"], opt.v["w"])


    @pytest.mark.parametrize("edit", ["missing", "short"])
    def test_load_state_checks_names_and_shapes(self, edit):
        p = {"w": np.ones(3, dtype=np.float32)}
        saved = {k: v.copy() for k, v in AdamW(p).state_arrays().items()}
        if edit == "missing":
            del saved["v/w"]
        else:
            saved["v/w"] = np.zeros(1, np.float32)
        with pytest.raises(ShapeMismatchError, match="v/w"):
            AdamW(p).load_state(saved, 1)


class TestModel:
    SMALL = TINY_MODEL

    def test_output_shape(self):
        model = TranscriptionModel(self.SMALL, rng=rng64(60))
        x = rng64(61).normal(size=(3, 7, INPUT_WIDTH)).astype(np.float32)
        assert model.forward(x).shape == (3, 7, 38)

    def test_eval_mode_deterministic_and_pure(self):
        model = TranscriptionModel(self.SMALL, rng=rng64(62))
        x = rng64(63).normal(size=(2, 7, INPUT_WIDTH)).astype(np.float32)
        before = {k: v.copy() for k, v in model.buffers().items()}
        first = model.forward(x, train=False)
        second = model.forward(x, train=False)
        assert np.array_equal(first, second)
        for key, value in model.buffers().items():
            assert np.array_equal(value, before[key])

    def test_forward_single(self):
        model = TranscriptionModel(self.SMALL, rng=rng64(64))
        features = rng64(65).normal(size=(7, INPUT_WIDTH)).astype(np.float32)
        single = model.forward_single(features)
        batched = model.forward(features[None], train=False)[0]
        assert np.array_equal(single, batched)

    def test_dropout_seed_changes_train_forward(self):
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.5)
        model = TranscriptionModel(config, rng=rng64(66))
        x = rng64(67).normal(size=(2, 7, INPUT_WIDTH)).astype(np.float32)
        model.dropout_seed = 1
        first = model.forward(x, train=True, step=0)
        model.dropout_seed = 2
        second = model.forward(x, train=True, step=0)
        assert not np.array_equal(first, second)

    def test_parameter_names_stable(self):
        model = TranscriptionModel(self.SMALL)
        names = set(model.parameters())
        assert "conv1.w" in names
        assert "lstm1.fw.wx" in names
        assert "lstm2.bw.wh" in names
        assert "out.b" in names
        assert "conv1_bn.gamma" in names

    def test_load_arrays_rejects_bad_names(self):
        model = TranscriptionModel(self.SMALL)
        with pytest.raises(ShapeMismatchError):
            model.load_arrays({"bogus": np.zeros(1)})

    def test_load_arrays_rejects_a_short_running_mean(self):
        model = TranscriptionModel(self.SMALL)
        buffers = model.buffers()
        buffers["conv1_bn.running_mean"] = np.zeros(1, np.float32)
        with pytest.raises(ShapeMismatchError, match="conv1_bn.running_mean"):
            model.load_arrays(model.parameters(), buffers)

    def test_load_arrays_rejects_a_missing_running_var(self):
        model = TranscriptionModel(self.SMALL)
        buffers = model.buffers()
        del buffers["lstm2_bn.running_var"]
        with pytest.raises(ShapeMismatchError, match="lstm2_bn.running_var"):
            model.load_arrays(model.parameters(), buffers)

    def test_load_arrays_without_buffers_keeps_running_stats(self):
        model = TranscriptionModel(self.SMALL)
        model.buffers()["conv1_bn.running_var"][:] = 3.0
        model.load_arrays(model.parameters())
        assert np.all(model.buffers()["conv1_bn.running_var"] == 3.0)

    def test_train_forward_is_the_layer_stack_with_the_dropout_key(self):
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.5)
        model = TranscriptionModel(config, rng=rng64(68))
        twin = TranscriptionModel(config, rng=rng64(68))
        model.dropout_seed = 7
        x = rng64(69).normal(size=(2, 7, INPUT_WIDTH)).astype(np.float32)
        h = x
        for _, layer in twin._layers:
            h = layer.forward(h, (7, 3))
        assert np.array_equal(model.forward(x, train=True, step=3), h)
        for key, value in model.buffers().items():
            assert np.array_equal(value, twin.buffers()[key]), key

    def test_train_step_frees_its_activations(self):
        # Of the arrays one train step allocates, only the gradients
        # outlive it: each backward frees its layer's forward cache.
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.3)
        model = TranscriptionModel(config, rng=rng64(70))
        optimizer = AdamW(model.parameters())
        x = rng64(71).normal(size=(4, 200, INPUT_WIDTH)).astype(np.float32)

        with numpy_bytes() as usage:
            logits = model.forward(x, train=True, step=0)
            activations, _ = usage()
            model.backward(np.ones_like(logits))
            del logits
            optimizer.step(model.gradients())
            held, _ = usage()
        grad_bytes = sum(g.nbytes for g in model.gradients().values())
        assert activations > 50 * grad_bytes
        assert held <= grad_bytes

    def test_eval_forward_keeps_no_cache(self):
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.3)
        model = TranscriptionModel(config, rng=rng64(72))
        x = rng64(73).normal(size=(3, 50, INPUT_WIDTH)).astype(np.float32)
        with numpy_bytes() as usage:
            logits = model.forward(x, train=False)
            held, _ = usage()
        assert held == logits.nbytes
        for name, layer in model._layers:
            assert layer._cache is None, name

    def test_eval_forward_leaves_training_as_it_was(self):
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.5)
        model = TranscriptionModel(config, rng=rng64(74))
        twin = TranscriptionModel(config, rng=rng64(74))
        x = rng64(75).normal(size=(2, 9, INPUT_WIDTH)).astype(np.float32)
        dlogits = rng64(76).normal(size=(2, 9, 38)).astype(np.float32)
        model.forward(x, train=False)
        for m in (model, twin):
            m.forward(x, train=True, step=4)
            m.backward(dlogits)
        grads = model.gradients()
        for key, value in twin.gradients().items():
            assert np.array_equal(grads[key], value), key


class TestLayerProtocol:
    CONFIG = TINY_MODEL

    def test_every_forward_takes_x_and_ctx(self):
        model = TranscriptionModel(self.CONFIG)
        classes = {type(layer) for _, layer in model._layers} | {LSTM}
        assert len(classes) == 7
        for cls in classes:
            params = list(inspect.signature(cls.forward).parameters.values())
            assert [p.name for p in params] == ["self", "x", "ctx"], cls
            assert params[2].default is None, cls

    def test_each_layer_keeps_its_backward_cache_in_one_attribute(self):
        config = dataclasses.replace(TINY_MODEL, lstm_dropout=0.5)
        model = TranscriptionModel(config, rng=rng64(77))
        h = rng64(78).normal(size=(2, 5, INPUT_WIDTH)).astype(np.float32)
        for name, layer in model._layers:
            assert layer._cache is None, name
            h = layer.forward(h, TRAIN)
            assert layer._cache is not None, name
        dy = np.ones_like(h)
        for name, layer in reversed(model._layers):
            dy = layer.backward(dy)
            assert layer._cache is None, name

    @pytest.mark.parametrize("make", [
        lambda: Conv1d(3, 2, 3), lambda: BatchNorm1d(3), lambda: Linear(3, 2),
        lambda: LSTM(3, 4), lambda: BiLSTM(3, 4)],
        ids=["conv", "batchnorm", "linear", "lstm", "bilstm"])
    @pytest.mark.parametrize("shape", [(2, 5), (2, 5, 4), (2, 5, 3, 1)])
    def test_every_layer_with_weights_checks_its_input(self, make, shape):
        layer = make()
        with pytest.raises(ShapeMismatchError, match=r"expected \(B, T, 3\)"):
            layer.forward(np.zeros(shape, dtype=np.float32))
        assert layer.forward(np.zeros((2, 5, 3), dtype=np.float32)).shape[:2] == (2, 5)

    def test_dicts_belong_to_the_instance(self):
        model = TranscriptionModel(self.CONFIG)
        twin = TranscriptionModel(self.CONFIG)
        for (name, layer), (_, other) in zip(model._layers, twin._layers):
            for attr in ("params", "grads", "buffers"):
                assert getattr(layer, attr) is not getattr(other, attr), name

    def test_bilstm_names_its_directions(self):
        layer = BiLSTM(3, 4, rng=rng64(14), dtype=np.float64)
        assert set(layer.params) == {f"{d}.{k}" for d in ("fw", "bw")
                                     for k in ("wx", "wh", "b")}
        assert layer.params["fw.wx"] is layer.fw.params["wx"]
        layer.forward(rng64(15).normal(size=(2, 5, 3)))
        layer.backward(np.ones((2, 5, 8)))
        assert set(layer.grads) == set(layer.params)
        assert layer.grads["bw.wh"] is layer.bw.grads["wh"]


class TestModelConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("conv_units", 0, "sizes must be positive"),
        ("lstm_units", 0, "sizes must be positive"),
        ("lstm_dropout", 1.0, "lstm_dropout"),
        ("lstm_dropout", -0.1, "lstm_dropout"),
    ])
    def test_rejects_bad_values(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lstm_units", "big"), ("lstm_dropout", None), ("conv_units", "3"),
        ("lstm_dropout", False), ("lstm_dropout", "0.5"),
        ("lstm_units", 2.5), ("conv_units", 3.0), ("conv_units", True)])
    def test_rejects_non_numbers(self, field, value):
        with pytest.raises(TypeError):
            ModelConfig(**{field: value})

    def test_accepts_edge_values(self):
        config = ModelConfig(conv_units=1, lstm_units=1, lstm_dropout=0.0)
        params = TranscriptionModel(config).parameters()
        assert sum(v.size for v in params.values()) == param_count(1, 1)


def param_count(conv_units, lstm_units):
    """The trainable parameters of the pinned graph at these widths."""
    c, h = conv_units, lstm_units
    conv = (3 * INPUT_WIDTH * c + c) + (3 * c * c + c) + 2 * (2 * c)
    lstm = 2 * (4 * h * (c + h) + 4 * h) + 2 * (4 * h * (2 * h + h) + 4 * h)
    return conv + lstm + 2 * (2 * 2 * h) + (2 * h * 38 + 38)


class TestCountParams:
    def test_default_config_pinned(self):
        # Regression constant for the shipped architecture.
        params = TranscriptionModel(ModelConfig()).parameters()
        assert sum(v.size for v in params.values()) == 9_029_414
        assert param_count(128, 512) == 9_029_414

    def test_excludes_running_stats(self):
        model = TranscriptionModel(TINY_MODEL)
        total = sum(v.size for v in model.parameters().values())
        assert total == param_count(8, 8)
        assert "conv1_bn.running_mean" in model.buffers()
        assert "conv1_bn.running_mean" not in model.parameters()


def _small_phck() -> bytes:
    """A valid one-array checkpoint with a non-ASCII name, built by hand."""
    meta = b'{"a":1}'
    name = "wé".encode("utf-8")
    return (struct.pack("<4sHI", b"PHCK", 1, len(meta)) + meta
            + struct.pack("<IH", 1, len(name)) + name
            + struct.pack("<I2I", 2, 2, 2) + np.ones(4, "<f4").tobytes())


SMALL_PHCK = _small_phck()


def overwrite_byte(raw: bytes, at: int, value: int) -> bytes:
    return raw[:at] + bytes([value]) + raw[at + 1:]


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        rng = rng64(70)
        arrays = {
            "param/w": rng.normal(size=(3, 4)).astype(np.float32),
            "buffer/rm": rng.normal(size=5).astype(np.float32),
        }
        meta = {"blank_id": 37, "progress": {"epoch": 2}}
        path = tmp_path / "x.phck"
        save_checkpoint(path, meta, arrays)
        loaded_meta, loaded = load_checkpoint(path)
        assert loaded_meta == meta
        for key, value in arrays.items():
            assert np.array_equal(loaded[key], value)

    def test_zero_d_array_keeps_its_rank(self, tmp_path):
        path = tmp_path / "x.phck"
        arrays = {"s": np.float32(2), "v": np.arange(3, dtype=np.float32)}
        save_checkpoint(path, {}, arrays)
        _, loaded = load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert loaded["s"] == 2.0
        assert loaded["v"].shape == (3,)

    def test_loaded_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {}, {"w": np.ones((2, 3), np.float32)})
        _, loaded = load_checkpoint(path)
        assert not loaded["w"].flags.writeable
        with pytest.raises(ValueError):
            loaded["w"][0, 0] = 2.0

    def test_copied_arrays_read_the_same_after_their_pages_are_dropped(
            self, tmp_path):
        model = TranscriptionModel(TINY_MODEL, rng=rng64(79))
        path = tmp_path / "x.phck"
        save_checkpoint(path, {}, model.parameters())
        _, loaded = load_checkpoint(path)
        twin = TranscriptionModel(model.config)
        twin.load_arrays(loaded)
        for key, value in model.parameters().items():
            assert np.array_equal(twin.parameters()[key], value), key
            assert np.array_equal(loaded[key], value), key

    def test_bytes_follow_the_layout(self, tmp_path):
        # A transposed float64 view and a 0-d array are written as C-order
        # little-endian float32, each with its own shape.
        w = np.arange(6, dtype=np.float64).reshape(3, 2).T
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"b": 1, "a": "é"}, {"w": w, "é": np.float32(2)})
        blob = b'{"a":"\\u00e9","b":1}'  # sorted, compact, ASCII
        assert path.read_bytes() == b"".join([
            struct.pack("<4sHI", b"PHCK", 1, len(blob)), blob,
            struct.pack("<I", 2),
            struct.pack("<H1sI2I", 1, b"w", 2, 2, 3),
            np.array([0, 2, 4, 1, 3, 5], "<f4").tobytes(),
            struct.pack("<H2sI", 2, "é".encode("utf-8"), 0),
            struct.pack("<f", 2.0)])

    def test_saving_streams_the_arrays(self, tmp_path):
        arrays = {f"w{k}": np.full((256, 1024), k, np.float32) for k in range(8)}
        with numpy_bytes() as usage:
            save_checkpoint(tmp_path / "x.phck", {}, arrays)
            _, peak = usage()
        assert peak < arrays["w0"].nbytes  # no copy of any array

    def test_an_unconvertible_array_leaves_the_directory_as_it_was(
            self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {}, {"w": np.ones(3, np.float32)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, {}, {"w": np.ones(3, np.float32),
                                       "v": np.array(["not a number"])})
        assert [p.name for p in tmp_path.iterdir()] == ["x.phck"]
        assert path.read_bytes() == before

    def test_magic(self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {}, {})
        assert path.read_bytes()[:4] == b"PHCK"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.phck"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"a": 1}, {"w": np.ones((4, 4), np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_array_name_past_the_end_rejected(self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {}, {"é": np.ones(2, np.float32)})
        raw = path.read_bytes()
        name_at = raw.index("é".encode("utf-8"))
        path.write_bytes(raw[:name_at + 1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        meta = {"b": 2, "a": 1}
        first = tmp_path / "a.phck"
        second = tmp_path / "b.phck"
        save_checkpoint(first, meta, arrays)
        save_checkpoint(second, dict(reversed(meta.items())), arrays)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.phck"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", [b"\xff\xfe", b"{not json", b"[" * 100_000],
                             ids=["not-utf8", "not-json", "too-deep"])
    def test_unreadable_config_block_rejected(self, tmp_path, block):
        path = tmp_path / "x.phck"
        path.write_bytes(struct.pack("<4sHI", b"PHCK", 1, len(block)) + block
                         + struct.pack("<I", 0))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_every_prefix_loads_or_is_rejected(self, tmp_path):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"a": [1, "é"]},
                        {"é": np.ones((2, 3), np.float32),
                         "z": np.ones((0, 4), np.float32)})
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
        path.write_bytes(raw)
        _, arrays = load_checkpoint(path)
        assert arrays["z"].shape == (0, 4)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda tail: b"PHCK\x01\x00" + tail),
        st.tuples(st.integers(0, len(SMALL_PHCK) - 1), st.integers(0, 255))
        .map(lambda edit: overwrite_byte(SMALL_PHCK, *edit)),
    ))
    def test_arbitrary_bytes_load_or_are_rejected(self, tmp_path, data):
        path = tmp_path / "x.phck"
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_a_numpy_runtime_warning_fails_the_suite():
    # pyproject.toml turns a RuntimeWarning into an error, so an overflow or
    # a NaN on a tested path fails its test instead of warning.
    with np.errstate(over="warn"):
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.full(1, 3e38, dtype=np.float32) * np.float32(10)
