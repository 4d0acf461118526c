"""The transcription network: conv stack -> recurrent stack -> linear head.

The layer graph is the paper's, with only its sizes settable:
Conv1d, ReLU, BatchNorm twice; BiLSTM, BatchNorm, Dropout twice;
then a per-frame Linear producing one logit row per frame over
``OUTPUT_CLASSES`` classes (the last class is the CTC blank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ipa import INVENTORY
from ..settings import is_int, is_real
from .checkpoint import copy_into
from .layers import BatchNorm1d, Conv1d, Dropout, Linear, ReLU, collect
from .lstm import BiLSTM

OUTPUT_CLASSES = len(INVENTORY) + 1  # the phonemes and the CTC blank


@dataclass(frozen=True)
class ModelConfig:
    mfcc_coefficients: int = 40
    conv_layers: int = 2
    conv_units: int = 128
    conv_kernel: int = 3
    lstm_layers: int = 2
    lstm_units: int = 512
    lstm_dropout: float = 0.5

    def __post_init__(self):
        for name in ("mfcc_coefficients", "conv_layers", "conv_units",
                     "conv_kernel", "lstm_layers", "lstm_units"):
            if not is_int(getattr(self, name)):
                raise TypeError(
                    f"{name} must be an integer, not {getattr(self, name)!r}")
        if min(self.mfcc_coefficients, self.conv_units, self.lstm_units) <= 0:
            raise ValueError("all sizes must be positive")
        if min(self.conv_layers, self.lstm_layers) < 0:
            raise ValueError("layer counts must be >= 0")
        if self.conv_kernel < 1 or self.conv_kernel % 2 != 1:
            raise ValueError(
                f"conv_kernel must be odd and >= 1, not {self.conv_kernel!r}")
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

        width = config.mfcc_coefficients
        for i in range(1, config.conv_layers + 1):
            self._layers += [
                (f"conv{i}",
                 Conv1d(width, config.conv_units, config.conv_kernel, rng, dtype)),
                (f"conv{i}_relu", ReLU()),
                (f"conv{i}_bn", BatchNorm1d(config.conv_units, dtype=dtype)),
            ]
            width = config.conv_units

        for i in range(1, config.lstm_layers + 1):
            self._layers += [
                (f"lstm{i}", BiLSTM(width, config.lstm_units, rng, dtype)),
                (f"lstm{i}_bn", BatchNorm1d(2 * config.lstm_units, dtype=dtype)),
                (f"lstm{i}_dropout", Dropout(config.lstm_dropout, layer_id=i)),
            ]
            width = 2 * config.lstm_units

        self._layers.append(("out", Linear(width, OUTPUT_CLASSES, rng, dtype)))

    def forward(self, x: np.ndarray, train: bool = False, step: int = 0):
        """(B, T, mfcc_coefficients) -> logits (B, T, OUTPUT_CLASSES).

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
