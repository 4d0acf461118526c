"""LSTM with full backpropagation through time, plus a bidirectional wrapper.

Gate order in the fused weight matrices is (input, forget, cell, output).
Cell equations, with a = x_t @ wx + h_{t-1} @ wh + b split into (ai, af,
ag, ao):

    i = sigmoid(ai)   f = sigmoid(af)   g = tanh(ag)   o = sigmoid(ao)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

h_0 = c_0 = 0. ``LSTM`` and ``BiLSTM`` share one recurrence kernel,
``_run`` and ``_run_backward``, that advances D directions at once (D=1
or 2); a reversed direction's processing step s is time T-1-s. Each step
issues its gate and cell ops once for all directions. The cached gates
and hidden states are direction-major, (D, T, B, ...), so each
direction's block is the matrix its projection and weight-gradient GEMMs
use, with no copy; the cell state and the backward factors are
step-major, (T, D, B, H), and a step's gates are worked out in one
contiguous (D, B, 4H) buffer.

The per-step recurrent GEMMs, h_{t-1} @ wh forward and the gate
gradients @ wh.T backward, run per direction in one of two operand
orders, chosen from (B, H) alone by ``_weights_left``. Rows-left, as
written, runs at B=1 (the eval and infer path) and for small layers.
Weights-left, (wh.T @ h_{t-1}.T).T, runs once B >= 2, H >= 256 and a
step's product passes 10**6 multiply-adds per direction, as at the
shipped size (B=20, H=512), where BLAS runs it in about two thirds of the
time; its products go into transposed (D, 4H, B) and (D, H, B) buffers.
Rows-left forward and weights-left backward read ``wh`` itself; the other
two read a C-contiguous copy of wh.T, so the B=1 path copies no weight.

The input projection for all timesteps is one matrix product per
direction; the loop only adds h_{t-1} @ wh, halves that sum in one pass
(exact, so it equals halving each term) and takes one tanh over all four
gates, using sigmoid(z) = 0.5 * (1 + tanh(z / 2)). Backward hoists out of
the loop every factor the forward pass fixes and turns the cached gates
into the gate gradients in place (Appleyard et al., arXiv:1604.01946).
Every element sees the operations of a run of its direction alone, in
the same order, so a BiLSTM equals a standalone ``LSTM`` and
``LSTM(reverse=True)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .layers import check_input, collect, uniform_init

# The per-step recurrent GEMM rows @ w, rows (B, K) and w (K, N), also
# runs as (w.T @ rows.T).T, weights-left. On OpenBLAS 0.3.31 (one thread,
# float32, T=198, both directions) weights-left took 0.60-0.89 of the time
# and gave the same bytes once H >= 256 and B·H·4H > 10**6. Below that
# product BLAS takes its small-matrix kernels, where weights-left took up
# to 1.6x as long (H=256, B=2); at H <= 192 it tied or lost at every B (up
# to 2.05x). At B=1 the product is a matrix-vector one: a tie, not the same
# bytes. The choice reads shapes only, so every run of a shape does the
# same arithmetic.
WEIGHTS_LEFT_MIN_HIDDEN = 256
WEIGHTS_LEFT_MIN_MACS = 10**6


def _weights_left(b_sz: int, hs: int) -> bool:
    """Whether the recurrent GEMMs of a (b_sz, hs) run put the weights left."""
    return (b_sz >= 2 and hs >= WEIGHTS_LEFT_MIN_HIDDEN
            and b_sz * hs * 4 * hs > WEIGHTS_LEFT_MIN_MACS)


def _recurrent_weights(directions, transposed: bool) -> list[np.ndarray]:
    """Each direction's wh, or a C-contiguous copy of wh.T: BLAS runs a
    transposed view slower, and to other bytes."""
    return [np.ascontiguousarray(lstm.params["wh"].T) if transposed
            else lstm.params["wh"] for lstm in directions]


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
        return _run(self, (self,), x)[0, ::self._time_step].transpose(1, 0, 2)

    def backward(self, dh: np.ndarray) -> np.ndarray:
        return _run_backward(self, (self,), (dh.transpose(1, 0, 2),)).transpose(1, 0, 2)


class BiLSTM:
    """Forward and reversed LSTM passes, features concatenated (width 2H)."""

    def __init__(self, input_size, hidden_size, rng=None, dtype=np.float32):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.fw = LSTM(input_size, hidden_size, reverse=False, rng=rng, dtype=dtype)
        self.bw = LSTM(input_size, hidden_size, reverse=True, rng=rng, dtype=dtype)
        self._directions = (("fw", self.fw), ("bw", self.bw))
        self.params = collect(self._directions, "params")
        self.grads = {}
        self.buffers = {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        hidden = _run(self, (self.fw, self.bw), x)
        # Time-major memory, which sets the order of BatchNorm's sums.
        out = np.concatenate([hidden[0], hidden[1, ::-1]], axis=2)
        return out.transpose(1, 0, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        hs = self.hidden_size
        dy = dy.transpose(1, 0, 2)
        dx = _run_backward(self, (self.fw, self.bw), (dy[:, :, :hs], dy[:, :, hs:]))
        self.grads = collect(self._directions, "grads")
        return dx.transpose(1, 0, 2)


def _run(layer, directions, x: np.ndarray) -> np.ndarray:
    """x (B, T, I) -> hidden (D, T, B, H), time-major, each direction in its
    own processing order; leaves on ``layer`` the cache ``_run_backward``
    consumes, which holds a time-major copy of x."""
    check_input(x, directions[0].input_size)
    x = np.ascontiguousarray(x.transpose(1, 0, 2))
    t_len, b_sz, n_in = x.shape
    n_dir, hs = len(directions), directions[0].hidden_size
    # Halves the sigmoid columns (i, f, o) and keeps the tanh column (g);
    # full-size, so that each step's affine map reads contiguous operands.
    half = np.full((n_dir, b_sz, 4 * hs), 0.5, dtype=x.dtype)
    half[:, :, 2 * hs:3 * hs] = 1.0
    shift = 1.0 - half

    gates = np.empty((n_dir, t_len, b_sz, 4 * hs), dtype=x.dtype)
    for d, lstm in enumerate(directions):
        # For bw, x in processing order is a copy living through the GEMM.
        np.matmul(x[::lstm._time_step].reshape(-1, n_in), lstm.params["wx"],
                  out=gates[d].reshape(-1, 4 * hs))
        gates[d] += lstm.params["b"]
    weights_left = _weights_left(b_sz, hs)
    wh = _recurrent_weights(directions, transposed=weights_left)

    cells = np.empty((t_len, n_dir, b_sz, hs), dtype=x.dtype)
    hidden = np.empty((n_dir, t_len, b_sz, hs), dtype=x.dtype)
    # One step's gates, contiguous; stored into the cache once done.
    a = np.empty((n_dir, b_sz, 4 * hs), dtype=x.dtype)
    i, f, g, o = a.reshape(n_dir, b_sz, 4, hs).transpose(2, 0, 1, 3)
    if weights_left:
        a_t = np.empty((n_dir, 4 * hs, b_sz), dtype=x.dtype)  # a, transposed
    tanh_c = np.empty((n_dir, b_sz, hs), dtype=x.dtype)  # backward recomputes it
    h_prev = c_prev = np.zeros((n_dir, b_sz, hs), dtype=x.dtype)
    for s in range(t_len):
        for d, w in enumerate(wh):
            if weights_left:
                np.matmul(w, h_prev[d].T, out=a_t[d])
            else:
                np.matmul(h_prev[d], w, out=a[d])
        np.add(a_t.transpose(0, 2, 1) if weights_left else a, gates[:, s], out=a)
        a *= half
        np.tanh(a, out=a)
        a *= half
        a += shift
        gates[:, s] = a
        c = cells[s]
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tanh_c)
        c += tanh_c
        np.tanh(c, out=tanh_c)
        h_prev = hidden[:, s]
        np.multiply(o, tanh_c, out=h_prev)
        c_prev = c
    layer._cache = (x, gates, cells, hidden)
    return hidden


def _run_backward(layer, directions, dys) -> np.ndarray:
    """Consumes the cache ``_run`` left on ``layer`` and each direction's
    output gradient, given time-major (T, B, H) in time order; sets every
    direction's ``grads`` and returns dx, time-major (T, B, I)."""
    (x, gates, cells, hidden), layer._cache = layer._cache, None
    n_dir, t_len, b_sz, _ = gates.shape
    hs, n_in = hidden.shape[-1], x.shape[-1]
    # Indexed (T, D, B, 4, H), like the step-major arrays.
    gates_by_step = gates.reshape(n_dir, t_len, b_sz, 4, hs).transpose(1, 0, 2, 3, 4)
    i, f, g, o = gates_by_step.transpose(3, 0, 1, 2, 4)
    tanh_c = np.tanh(cells)

    # Each gate becomes the part of its gradient that the forward pass
    # fixes: di = dc [((1-i) i) g], df = dc [((1-f) f) c_prev],
    # dg = dc [(1-g^2) i], do = dh [((1-o) o) tanh(c)]. Where two factors
    # read each other's gate, one is built in spare memory first.
    spare = np.subtract(1.0, i, out=np.empty_like(cells))
    spare *= i
    spare *= g
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i
    i[...] = spare
    f_kept = spare  # the loop still scales dc by f
    f_kept[...] = f
    np.subtract(1.0, f, out=f)
    f *= f_kept
    f[1:] *= cells[:-1]
    f[0] = 0.0
    d_o = cells
    np.subtract(1.0, o, out=d_o)
    d_o *= o
    d_o *= tanh_c
    dc_from_dh = tanh_c  # o (1 - tanh^2 c)
    dc_from_dh *= tanh_c
    np.subtract(1.0, dc_from_dh, out=dc_from_dh)
    dc_from_dh *= o
    o[...] = d_o
    dh_out = cells  # the output gradients, stacked in processing order
    for d, (lstm, dy) in enumerate(zip(directions, dys)):
        dh_out[:, d] = dy[::lstm._time_step]

    d_ifg = gates_by_step[:, :, :, :3]
    dh = np.empty((n_dir, b_sz, hs), dtype=x.dtype)
    weights_left = _weights_left(b_sz, hs)
    wh = _recurrent_weights(directions, transposed=not weights_left)
    dh_next = (np.zeros((n_dir, hs, b_sz), dtype=x.dtype).transpose(0, 2, 1)
               if weights_left else np.zeros_like(dh))
    dc = np.zeros_like(dh)
    dc_per_gate = dc[:, :, None]
    work = np.empty_like(dh)
    for s in range(t_len - 1, -1, -1):
        np.add(dh_out[s], dh_next, out=dh)
        o[s] *= dh
        np.multiply(dh, dc_from_dh[s], out=work)
        dc += work
        d_ifg[s] *= dc_per_gate
        for d, w in enumerate(wh):
            if weights_left:
                np.matmul(w, gates[d, s].T, out=dh_next[d].T)
            else:
                np.matmul(gates[d, s], w, out=dh_next[d])
        dc *= f_kept[s]
    del cells, tanh_c, spare, f_kept, d_o, dc_from_dh, dh_out  # free before the GEMMs

    # Each operand is dropped after its last read (Chen et al.,
    # arXiv:1604.06174), so the dx GEMMs run beside neither hidden nor x.
    das = [gates[d].reshape(-1, 4 * hs) for d in range(n_dir)]
    for d, (lstm, da) in enumerate(zip(directions, das)):
        lstm.grads = {"wh": hidden[d, :-1].reshape(-1, hs).T @ da[b_sz:],
                      "b": da.sum(axis=0)}
    del hidden
    for lstm, da in zip(directions, das):
        lstm.grads["wx"] = x[::lstm._time_step].reshape(-1, n_in).T @ da
    del x
    dxs = ((da @ lstm.params["wx"].T).reshape(t_len, b_sz, n_in)[::lstm._time_step]
           for lstm, da in zip(directions, das))
    dx = next(dxs)
    for dx_d in dxs:
        dx += dx_d
    return dx
