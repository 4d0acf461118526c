"""AdamW: Adam with decoupled weight decay.

Update per parameter w with gradient g:

    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g^2
    w -= lr * wd * w + lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

Both subtracted terms use the pre-step w; b1, b2, eps and the default wd are
the fixed BETA1, BETA2, EPS and WEIGHT_DECAY below. With wd = 0 this is Adam.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import copy_into
from .layers import ShapeMismatchError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


class AdamW:
    def __init__(self, params: dict[str, np.ndarray], lr=1e-4,
                 weight_decay=WEIGHT_DECAY):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatchError(
                    f"{name}: grad {g.shape} vs param {p.shape}")
            g = g.astype(p.dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if self.weight_decay:
                update = update + self.lr * self.weight_decay * p
            p -= update

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m/{k}": v for k, v in self.m.items()}
        out.update({f"v/{k}": v for k, v in self.v.items()})
        return out

    def load_state(self, arrays: dict[str, np.ndarray], t: int) -> None:
        copy_into(self.state_arrays(), arrays, "optimizer state")
        self.t = t
