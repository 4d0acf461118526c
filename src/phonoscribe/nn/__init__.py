from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dropout,
    Linear,
    ReLU,
    ShapeMismatchError,
)
from .lstm import LSTM, BiLSTM
from .model import INPUT_WIDTH, OUTPUT_CLASSES, ModelConfig, TranscriptionModel
from .optim import AdamW

__all__ = [
    "AdamW",
    "BatchNorm1d",
    "BiLSTM",
    "CheckpointError",
    "Conv1d",
    "Dropout",
    "INPUT_WIDTH",
    "LSTM",
    "Linear",
    "ModelConfig",
    "OUTPUT_CLASSES",
    "ReLU",
    "ShapeMismatchError",
    "TranscriptionModel",
    "load_checkpoint",
    "save_checkpoint",
]
