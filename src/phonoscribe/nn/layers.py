"""Feed-forward layers with hand-derived backward passes.

Every layer here and in ``lstm.py`` has the same surface, on batched
sequences shaped (batch, time, channels):

- ``forward(x, ctx=None)``. ``ctx`` is None in eval mode; in training it is
  the dropout key ``(seed, step)``. BatchNorm1d uses batch statistics
  exactly when ``ctx`` is not None, Dropout draws its mask from ``(seed,
  layer_id, step)``, and every other layer ignores ``ctx``. Forward keeps
  whatever backward needs in one attribute, ``_cache`` (None when nothing
  is kept). ``TranscriptionModel.forward`` in eval mode sets each layer's
  ``_cache`` to None as soon as that layer has returned, so an eval pass
  holds one layer's working set at a time; a direct ``layer.forward`` keeps
  its cache, so backward may follow it in either mode.
- ``backward(dy)`` returns the input gradient of the last forward and
  overwrites ``grads``; one optimizer step per backward. It consumes the
  forward cache, so each activation is freed once its backward has read
  it, and a second backward needs a new forward.
- ``params``, ``grads`` (same keys, filled by backward) and ``buffers``
  (state that is saved but not trained) are dicts of the instance.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    pass


def check_input(x: np.ndarray, channels: int) -> None:
    """A ShapeMismatchError unless ``x`` is (B, T, ``channels``)."""
    if x.ndim != 3 or x.shape[2] != channels:
        raise ShapeMismatchError(f"expected (B, T, {channels}), got {x.shape}")


def collect(named_layers, attr: str) -> dict[str, np.ndarray]:
    """``{"name.key": array}`` over the ``attr`` dict of each (name, layer)."""
    return {f"{name}.{key}": value for name, layer in named_layers
            for key, value in getattr(layer, attr).items()}


def uniform_init(rng, shape, fan_in: int, dtype) -> np.ndarray:
    """U(-k, k) with k = 1/sqrt(fan_in); zeros when no rng is given."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape).astype(dtype)


class Conv1d:
    """Temporal convolution, stride 1, zero 'same' padding, odd kernel."""

    def __init__(self, in_channels, out_channels, kernel_size, rng=None,
                 dtype=np.float32):
        if kernel_size % 2 != 1:
            raise ShapeMismatchError("kernel size must be odd")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        w = uniform_init(rng, (kernel_size, in_channels, out_channels),
                         in_channels * kernel_size, dtype)
        self.params = {"w": w, "b": np.zeros(out_channels, dtype=dtype)}
        self.grads = {}
        self.buffers = {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        check_input(x, self.in_channels)
        pad = self.kernel_size // 2
        x_pad = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        t = x.shape[1]
        w, b = self.params["w"], self.params["b"]
        y = np.broadcast_to(b, (x.shape[0], t, self.out_channels)).copy()
        for k in range(self.kernel_size):
            y += x_pad[:, k:k + t, :] @ w[k]
        self._cache = (x_pad, t)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x_pad, t), self._cache = self._cache, None
        w = self.params["w"]
        dw = np.empty_like(w)
        dx_pad = np.zeros_like(x_pad)
        flat_dy = dy.reshape(-1, self.out_channels)
        for k in range(self.kernel_size):
            dw[k] = x_pad[:, k:k + t, :].reshape(-1, self.in_channels).T @ flat_dy
            dx_pad[:, k:k + t, :] += dy @ w[k].T
        self.grads = {"w": dw, "b": dy.sum(axis=(0, 1))}
        pad = self.kernel_size // 2
        return dx_pad[:, pad:pad + t, :]


class ReLU:
    def __init__(self):
        self.params, self.grads, self.buffers = {}, {}, {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        self._cache = x > 0  # strict: no gradient at exactly 0
        return np.maximum(x, 0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, self._cache = self._cache, None
        return dy * mask


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNorm1d:
    """Per-channel normalization over the batch and time axes.

    Train mode (``ctx`` given) normalizes with batch statistics (population
    variance) and updates running stats with ``momentum`` (BN_MOMENTUM);
    eval mode uses running stats.
    """

    def __init__(self, channels, dtype=np.float32):
        self.channels = channels
        self.momentum = BN_MOMENTUM
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        self.buffers = {
            "running_mean": np.zeros(channels, dtype=dtype),
            "running_var": np.ones(channels, dtype=dtype),
        }
        self.grads = {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        check_input(x, self.channels)
        train = ctx is not None
        if train:
            if x.shape[0] * x.shape[1] == 1:
                raise ValueError("batch x time == 1 in train mode")
            mean = x.mean(axis=(0, 1))
            # np.var's own steps, so var has its bytes, without a second
            # centered copy of x.
            x_hat = x - mean
            var = np.square(x_hat).mean(axis=(0, 1))
            m = self.momentum
            # In place, so the arrays buffers() handed out stay live.
            for name, stat in (("running_mean", mean), ("running_var", var)):
                self.buffers[name] *= 1 - m
                self.buffers[name] += m * stat
        else:
            var = self.buffers["running_var"]
            x_hat = x - self.buffers["running_mean"]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        # In-place steps below keep the operation order of the plain
        # expressions, so the results match them bit for bit.
        x_hat *= inv_std
        self._cache = (x_hat, inv_std, train)
        y = self.params["gamma"] * x_hat
        y += self.params["beta"]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        (x_hat, inv_std, train), self._cache = self._cache, None
        # Channel sums without full-size products: dx is the one new array.
        dgamma = np.einsum("btc,btc->c", dy, x_hat)
        dbeta = dy.sum(axis=(0, 1))
        self.grads = {"gamma": dgamma, "beta": dbeta}
        scale = self.params["gamma"] * inv_std
        dx = dy * scale
        if train:
            # Through the batch statistics (Ioffe & Szegedy, arXiv:1502.03167):
            # dx = scale * (dy - mean(dy) - x_hat * mean(dy * x_hat)), the
            # two means being dbeta / n and dgamma / n.
            n = dy.shape[0] * dy.shape[1]
            x_hat *= scale * dgamma / n
            dx -= scale * dbeta / n
            dx -= x_hat
        return dx


class Dropout:
    """Inverted dropout with masks derived from (seed, layer_id, step).

    Masks come from a counter-based generator keyed on those three values,
    so a resumed run draws exactly the masks the uninterrupted run would.
    """

    def __init__(self, p: float, layer_id: int):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.layer_id = layer_id
        self.params, self.grads, self.buffers = {}, {}, {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        if ctx is None or self.p == 0.0:
            self._cache = None
            return x
        seed, step = ctx
        key = np.array(
            [np.uint64(seed), (np.uint64(self.layer_id) << np.uint64(32))
             | np.uint64(step & 0xFFFFFFFF)],
            dtype=np.uint64,
        )
        gen = np.random.Generator(np.random.Philox(key=key))
        # Drawn one batch row at a time: the same stream as one
        # gen.random(x.shape) call, without its float64 array.
        keep = np.empty(x.shape, dtype=bool)
        for keep_row in keep:
            np.greater_equal(gen.random(keep_row.shape), self.p, out=keep_row)
        # The mask is (keep, 1/(1-p) in x's dtype): a * keep * scale equals
        # a * (keep * scale) bit for bit, without a float mask array.
        self._cache = (keep, np.ones(1, x.dtype) / (1.0 - self.p))
        return _masked(x, *self._cache)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        mask, self._cache = self._cache, None
        return dy if mask is None else _masked(dy, *mask)


def _masked(a: np.ndarray, keep: np.ndarray, scale: np.ndarray) -> np.ndarray:
    out = a * keep
    out *= scale
    return out


class Linear:
    """Per-frame affine map: y = x @ w + b."""

    def __init__(self, in_features, out_features, rng=None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "w": uniform_init(rng, (in_features, out_features), in_features, dtype),
            "b": np.zeros(out_features, dtype=dtype),
        }
        self.grads = {}
        self.buffers = {}
        self._cache = None

    def forward(self, x: np.ndarray, ctx=None) -> np.ndarray:
        check_input(x, self.in_features)
        self._cache = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, self._cache = self._cache, None
        self.grads = {
            "w": x.reshape(-1, self.in_features).T @ dy.reshape(-1, self.out_features),
            "b": dy.sum(axis=(0, 1)),
        }
        return dy @ self.params["w"].T
