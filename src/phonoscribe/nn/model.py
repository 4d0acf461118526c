"""The transcription network: conv stack -> recurrent stack -> linear head.

The layer graph is the paper's, with only its widths and dropout settable:
the ``INPUT_WIDTH`` pinned MFCCs of each frame in; Conv1d (kernel 3), ReLU,
BatchNorm twice; BiLSTM, BatchNorm, Dropout twice; then a per-frame Linear
producing one logit row per frame over ``OUTPUT_CLASSES`` classes (the last
class is the CTC blank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp import FeatureConfig
from ..ipa import INVENTORY
from ..settings import is_int, is_real
from .checkpoint import copy_into
from .layers import BatchNorm1d, Conv1d, Dropout, Linear, ReLU, collect
from .lstm import BiLSTM

INPUT_WIDTH = FeatureConfig.n_coefficients  # the MFCCs of one frame
OUTPUT_CLASSES = len(INVENTORY) + 1  # the phonemes and the CTC blank
CONV_LAYERS = 2
CONV_KERNEL = 3
LSTM_LAYERS = 2


@dataclass(frozen=True)
class ModelConfig:
    conv_units: int = 128
    lstm_units: int = 512
    lstm_dropout: float = 0.5

    def __post_init__(self):
        for name in ("conv_units", "lstm_units"):
            if not is_int(getattr(self, name)):
                raise TypeError(
                    f"{name} must be an integer, not {getattr(self, name)!r}")
        if min(self.conv_units, self.lstm_units) <= 0:
            raise ValueError("all sizes must be positive")
        if not is_real(self.lstm_dropout):
            raise TypeError(
                f"lstm_dropout must be a finite number, not {self.lstm_dropout!r}")
        if not 0.0 <= self.lstm_dropout < 1.0:
            raise ValueError("lstm_dropout must be in [0, 1)")


class TranscriptionModel:
    """Stateful layer stack; one forward pass, then at most one backward.

    ``rng=None`` builds zero-initialized weights (used when loading a
    checkpoint); pass a Generator to initialize for training.
    ``dropout_seed`` plus the optimizer step index key the dropout masks.
    """

    def __init__(self, config: ModelConfig, rng=None, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.dropout_seed = 0
        self._layers: list[tuple[str, object]] = []

        width = INPUT_WIDTH
        for i in range(1, CONV_LAYERS + 1):
            self._layers += [
                (f"conv{i}",
                 Conv1d(width, config.conv_units, CONV_KERNEL, rng, dtype)),
                (f"conv{i}_relu", ReLU()),
                (f"conv{i}_bn", BatchNorm1d(config.conv_units, dtype=dtype)),
            ]
            width = config.conv_units

        for i in range(1, LSTM_LAYERS + 1):
            self._layers += [
                (f"lstm{i}", BiLSTM(width, config.lstm_units, rng, dtype)),
                (f"lstm{i}_bn", BatchNorm1d(2 * config.lstm_units, dtype=dtype)),
                (f"lstm{i}_dropout", Dropout(config.lstm_dropout, layer_id=i)),
            ]
            width = 2 * config.lstm_units

        self._layers.append(("out", Linear(width, OUTPUT_CLASSES, rng, dtype)))

    def forward(self, x: np.ndarray, train: bool = False, step: int = 0):
        """(B, T, INPUT_WIDTH) -> logits (B, T, OUTPUT_CLASSES).

        In eval mode (``train=False``) each layer's backward cache is
        dropped as soon as the layer has returned: no backward follows."""
        ctx = (self.dropout_seed, step) if train else None
        for _, layer in self._layers:
            x = layer.forward(x, ctx)
            if not train:  # no backward follows
                layer._cache = None
        return x

    def forward_single(self, features: np.ndarray) -> np.ndarray:
        """Eval-mode logits for one (T, C) feature matrix -> (T, classes)."""
        out = self.forward(features[None].astype(self.dtype, copy=False),
                           train=False)
        return out[0]

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        dy = dlogits
        for _, layer in reversed(self._layers):
            dy = layer.backward(dy)
        return dy

    def parameters(self) -> dict[str, np.ndarray]:
        return collect(self._layers, "params")

    def gradients(self) -> dict[str, np.ndarray]:
        return collect(self._layers, "grads")

    def buffers(self) -> dict[str, np.ndarray]:
        return collect(self._layers, "buffers")

    def load_arrays(self, params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray] | None = None) -> None:
        """Copy values into the existing parameter/buffer arrays by name.

        Names and shapes must match the model's exactly; ``buffers=None``
        leaves the running statistics as they are.
        """
        copy_into(self.parameters(), params, "parameter")
        if buffers is not None:
            copy_into(self.buffers(), buffers, "buffer")
