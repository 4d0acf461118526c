"""LSTM with full backpropagation through time, plus a bidirectional wrapper.

Gate order in the fused weight matrices is (input, forget, cell, output).
Cell equations, with a = x_t @ wx + h_{t-1} @ wh + b split into (ai, af,
ag, ao):

    i = sigmoid(ai)   f = sigmoid(af)   g = tanh(ag)   o = sigmoid(ao)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

h_0 = c_0 = 0. The input projection for all timesteps is computed as one
matrix product; the recurrent loop only adds h_{t-1} @ wh, then takes one
tanh over all four gates, using sigmoid(z) = 0.5 * (1 + tanh(z / 2)). The
work runs time-major, (T, B, ...) in processing order, and backward hoists
out of the loop every factor the forward pass fixes (Appleyard et al.,
arXiv:1604.01946).
"""

from __future__ import annotations

import numpy as np

from .layers import ShapeMismatchError, collect, uniform_init


class LSTM:
    """Single-direction LSTM over (batch, time, features).

    ``reverse=True`` processes time back to front and returns outputs in the
    original order, so stacking stays index-aligned.
    """

    def __init__(self, input_size, hidden_size, reverse=False, rng=None,
                 dtype=np.float32):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reverse = reverse
        self._time_step = -1 if reverse else 1
        wx = uniform_init(rng, (input_size, 4 * hidden_size), input_size, dtype)
        wh = uniform_init(rng, (hidden_size, 4 * hidden_size), hidden_size, dtype)
        b = np.zeros(4 * hidden_size, dtype=dtype)
        b[hidden_size:2 * hidden_size] = 1.0  # forget-gate bias
        self.params = {"wx": wx, "wh": wh, "b": b}
        self.grads = {}
        self.buffers = {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeMismatchError(
                f"expected (B, T, {self.input_size}), got {x.shape}")
        # No copy when x is a (B, T, C) view of time-major memory, as
        # BiLSTM passes it.
        hidden = self._run(np.ascontiguousarray(x.transpose(1, 0, 2)))
        return hidden[::self._time_step].transpose(1, 0, 2)

    def backward(self, dh: np.ndarray) -> np.ndarray:
        dx = self._run_backward(dh.transpose(1, 0, 2)[::self._time_step])
        return dx[::self._time_step].transpose(1, 0, 2)

    def _run(self, x: np.ndarray) -> np.ndarray:
        """Time-major x in its own time order -> hidden in processing order."""
        t_len, b_sz, _ = x.shape
        hs = self.hidden_size
        wx, wh, bias = self.params["wx"], self.params["wh"], self.params["b"]
        # Halves the sigmoid columns (i, f, o) and keeps the tanh column (g).
        half = np.full(4 * hs, 0.5, dtype=x.dtype)
        half[2 * hs:3 * hs] = 1.0
        shift = 1.0 - half

        # For bw the rows in processing order are a copy that lives only
        # through the GEMM.
        gates = x[::self._time_step].reshape(-1, self.input_size) @ wx
        gates = gates.reshape(t_len, b_sz, 4 * hs)
        gates += bias
        gates *= half
        wh_half = wh * half
        gates4 = gates.reshape(t_len, b_sz, 4, hs)
        cells = np.empty((t_len, b_sz, hs), dtype=x.dtype)
        hidden = np.empty_like(cells)
        tanh_c = np.empty((b_sz, hs), dtype=x.dtype)  # backward recomputes it

        h_prev = c_prev = np.zeros((b_sz, hs), dtype=x.dtype)
        for t in range(t_len):
            a = gates[t]
            a += h_prev @ wh_half
            np.tanh(a, out=a)
            a *= half
            a += shift
            i, f, g, o = gates4[t].transpose(1, 0, 2)
            c = cells[t]
            np.multiply(f, c_prev, out=c)
            c += i * g
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=hidden[t])
            h_prev, c_prev = hidden[t], c

        self._cache = (x, gates, cells, hidden)
        return hidden

    def _run_backward(self, dh_out: np.ndarray) -> np.ndarray:
        (x, gates, cells, hidden), self._cache = self._cache, None
        t_len, b_sz, _ = x.shape
        tanh_c = np.tanh(cells)
        hs = self.hidden_size
        i, f, g, o = gates.reshape(t_len, b_sz, 4, hs).transpose(2, 0, 1, 3)

        # d_pre starts as the part of each gate gradient that the forward
        # pass fixes: di = dc * [i(1-i) g], df = dc * [f(1-f) c_prev],
        # dg = dc * [(1-g^2) i], do = dh * [o(1-o) tanh(c)].
        d_pre = 1.0 - gates
        d_pre *= gates
        d_i, d_f, d_g, d_o = d_pre.reshape(t_len, b_sz, 4, hs).transpose(2, 0, 1, 3)
        d_g[...] = 1.0 - g * g
        d_i *= g
        d_g *= i
        d_f[1:] *= cells[:-1]
        d_f[0] = 0.0
        d_o *= tanh_c
        dc_from_dh = o * (1.0 - tanh_c * tanh_c)

        d_ifg = d_pre.reshape(t_len, b_sz, 4, hs)[:, :, :3]
        wh_t = np.ascontiguousarray(self.params["wh"].T)
        dh_next = np.zeros((b_sz, hs), dtype=x.dtype)
        dc = np.zeros((b_sz, hs), dtype=x.dtype)
        for t in range(t_len - 1, -1, -1):
            dh = dh_out[t] + dh_next
            d_o[t] *= dh
            dc += dh * dc_from_dh[t]
            d_ifg[t] *= dc[:, None]
            dh_next = d_pre[t] @ wh_t
            dc *= f[t]
        del gates, i, f, g, o, cells, tanh_c, dc_from_dh  # free before the GEMMs

        flat_da = d_pre.reshape(-1, 4 * hs)
        self.grads = {
            "wx": x[::self._time_step].reshape(-1, self.input_size).T @ flat_da,
            "wh": hidden[:-1].reshape(-1, hs).T @ d_pre[1:].reshape(-1, 4 * hs),
            "b": flat_da.sum(axis=0),
        }
        return (flat_da @ self.params["wx"].T).reshape(x.shape)


class BiLSTM:
    """Forward and reversed LSTM passes, features concatenated (width 2H)."""

    def __init__(self, input_size, hidden_size, rng=None, dtype=np.float32):
        self.hidden_size = hidden_size
        self.fw = LSTM(input_size, hidden_size, reverse=False, rng=rng, dtype=dtype)
        self.bw = LSTM(input_size, hidden_size, reverse=True, rng=rng, dtype=dtype)
        self._directions = (("fw", self.fw), ("bw", self.bw))
        self.params = collect(self._directions, "params")
        self.grads = {}
        self.buffers = {}

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        # One time-major copy of x, read by both directions.
        x = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
        return np.concatenate([self.fw.forward(x), self.bw.forward(x)], axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        hs = self.hidden_size
        dx = self.fw.backward(dy[:, :, :hs]) + self.bw.backward(dy[:, :, hs:])
        self.grads = collect(self._directions, "grads")
        return dx
