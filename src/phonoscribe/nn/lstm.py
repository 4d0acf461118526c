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
issues its gate and cell ops once for all directions. The forward pass
caches only the time-major input and the gates; the cell states c and
hidden states h are rebuilt in backward, c step by step with the
forward's own ops and h = o tanh(c) after it, so both equal the
forward's bit for bit (rematerialization: Chen et al., arXiv:1604.06174;
Gruslys et al., arXiv:1606.03401). The gates and the hidden states are
direction-major, (D, T, B, ...), so each direction's block is the matrix
its projection and weight-gradient GEMMs use, with no copy; the cell
states and the backward factors are step-major, (T, D, B, H), and a
step's gates are worked out in one contiguous (D, B, 4H) buffer.

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
into the gate gradients in place (Appleyard et al., arXiv:1604.01946);
beside its cache it holds three (T, D, B, H) arrays: the cell states,
which become tanh(c) and then o (1 - tanh^2 c), the hidden states, and
a spare one that ends up keeping f.
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

# The transposed copy of wh is built this many source rows at a time: at
# H=512 (float32, 2-vCPU Xeon host) one whole-matrix copy took 3.4 ms and
# blocks of 128 rows 1.7 ms, for the same bytes (blocks of 64 and 256 took
# 1.8 and 2.4 ms).
TRANSPOSE_BLOCK = 128

# The backward builds its output-gate factors, and stacks the output
# gradients its loop reads, this many values at a time (whole steps, at
# least one). At (B, H) = (8, 64) the factors took a third of the time in
# blocks of 16 steps as in single steps; at (20, 512) single steps ran
# fastest, and the whole array took twice as long.
STEP_BLOCK = 2**14


def _weights_left(b_sz: int, hs: int) -> bool:
    """Whether the recurrent GEMMs of a (b_sz, hs) run put the weights left."""
    return (b_sz >= 2 and hs >= WEIGHTS_LEFT_MIN_HIDDEN
            and b_sz * hs * 4 * hs > WEIGHTS_LEFT_MIN_MACS)


def _recurrent_weights(directions, transposed: bool) -> list[np.ndarray]:
    """Each direction's wh, or a C-contiguous copy of wh.T: BLAS runs a
    transposed view slower, and to other bytes."""
    if not transposed:
        return [lstm.params["wh"] for lstm in directions]
    copies = []
    for lstm in directions:
        wh = lstm.params["wh"]
        wh_t = np.empty(wh.shape[::-1], dtype=wh.dtype)
        for r in range(0, len(wh), TRANSPOSE_BLOCK):
            wh_t[:, r:r + TRANSPOSE_BLOCK] = wh[r:r + TRANSPOSE_BLOCK].T
        copies.append(wh_t)
    return copies


def _cell(i, f, g, c_prev, out, work) -> None:
    """c_t = f c_{t-1} + i g into ``out``, using ``work``: the ops of both
    the forward step and the backward's rebuild, so the two agree bit for
    bit."""
    np.multiply(f, c_prev, out=out)
    np.multiply(i, g, out=work)
    out += work


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
    consumes: a time-major copy of x and the gates."""
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

    hidden = np.empty((n_dir, t_len, b_sz, hs), dtype=x.dtype)
    # One step's gates, contiguous; stored into the cache once done.
    a = np.empty((n_dir, b_sz, 4 * hs), dtype=x.dtype)
    i, f, g, o = a.reshape(n_dir, b_sz, 4, hs).transpose(2, 0, 1, 3)
    if weights_left:
        a_t = np.empty((n_dir, 4 * hs, b_sz), dtype=x.dtype)  # a, transposed
    tanh_c = np.empty((n_dir, b_sz, hs), dtype=x.dtype)
    # c_t and c_{t-1}, swapped each step; backward rebuilds every c_t.
    c, c_prev = np.empty_like(tanh_c), np.zeros_like(tanh_c)
    h_prev = np.zeros_like(tanh_c)
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
        _cell(i, f, g, c_prev, c, tanh_c)
        np.tanh(c, out=tanh_c)
        h_prev = hidden[:, s]
        np.multiply(o, tanh_c, out=h_prev)
        c, c_prev = c_prev, c
    layer._cache = (x, gates)
    return hidden


def _rebuild_cells(i, f, g) -> np.ndarray:
    """Every cell state c_t, (T, D, B, H), from gates indexed (T, D, B, H),
    by the forward pass's own ops: equal to its cells bit for bit."""
    cells = np.empty(i.shape, dtype=i.dtype)
    work = np.empty_like(cells[0])
    c_prev = np.zeros_like(work)
    for s, c in enumerate(cells):
        _cell(i[s], f[s], g[s], c_prev, c, work)
        c_prev = c
    return cells


def _output_factors(o, tanh_c) -> None:
    """Turns o into do = [((1-o) o) tanh(c)] and tanh(c) into o (1 - tanh^2
    c), both (T, D, B, H). Each reads the other's input, so they are built
    a block of steps at a time, beside one block's spare memory."""
    steps = max(1, STEP_BLOCK // tanh_c[0].size)
    work = np.empty_like(tanh_c[:steps])
    for s in range(0, len(tanh_c), steps):
        o_s, t = o[s:s + steps], tanh_c[s:s + steps]
        do = work[:len(t)]
        np.subtract(1.0, o_s, out=do)
        do *= o_s
        do *= t
        t *= t
        np.subtract(1.0, t, out=t)
        t *= o_s
        o_s[...] = do


def _run_backward(layer, directions, dys) -> np.ndarray:
    """Consumes the cache ``_run`` left on ``layer`` and each direction's
    output gradient, given time-major (T, B, H) in time order; sets every
    direction's ``grads`` and returns dx, time-major (T, B, I)."""
    (x, gates), layer._cache = layer._cache, None
    n_dir, t_len, b_sz, four_hs = gates.shape
    hs, n_in = four_hs // 4, x.shape[-1]
    # Indexed (T, D, B, 4, H), like the step-major arrays.
    gates_by_step = gates.reshape(n_dir, t_len, b_sz, 4, hs).transpose(1, 0, 2, 3, 4)
    i, f, g, o = gates_by_step.transpose(3, 0, 1, 2, 4)
    cells = _rebuild_cells(i, f, g)

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
    tanh_c = np.tanh(cells, out=cells)  # c is read no more
    # h = o tanh(c), direction-major as the wh-gradient GEMMs read it.
    hidden = np.empty((n_dir, t_len, b_sz, hs), dtype=x.dtype)
    np.multiply(o, tanh_c, out=hidden.transpose(1, 0, 2, 3))
    _output_factors(o, tanh_c)
    dc_from_dh = tanh_c  # o (1 - tanh^2 c)

    d_ifg = gates_by_step[:, :, :, :3]
    dh = np.empty((n_dir, b_sz, hs), dtype=x.dtype)
    weights_left = _weights_left(b_sz, hs)
    wh = _recurrent_weights(directions, transposed=not weights_left)
    dh_next = (np.zeros((n_dir, hs, b_sz), dtype=x.dtype).transpose(0, 2, 1)
               if weights_left else np.zeros_like(dh))
    dc = np.zeros_like(dh)
    dc_per_gate = dc[:, :, None]
    work = np.empty_like(dh)
    # A block of steps' output gradients, stacked in processing order.
    dh_out = [dy[::lstm._time_step] for lstm, dy in zip(directions, dys)]
    block = max(1, STEP_BLOCK // dh.size)
    dh_block = np.empty((block, *dh.shape), dtype=x.dtype)
    for s in range(t_len - 1, -1, -1):
        k = s % block
        if k == block - 1 or s == t_len - 1:
            for d, dy in enumerate(dh_out):
                dh_block[:k + 1, d] = dy[s - k:s + 1]
        np.add(dh_block[k], dh_next, out=dh)
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
    del cells, tanh_c, spare, f_kept, dc_from_dh  # free before the GEMMs

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
