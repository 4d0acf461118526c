"""Batching, the training loop, evaluation and single-file inference.

Reference mode is single-threaded and fully deterministic: given the same
samples, config and seed, two runs produce byte-identical checkpoints and
metrics. All randomness is derived from the run seed through fixed streams
(weight init, the train/eval split, one shuffle per epoch) plus
counter-based dropout masks keyed on (seed, layer, step), so a run resumed
from a checkpoint replays exactly. That holds for one BLAS build and
thread count, so checkpoints and ``config.json`` record ``thread_vars()``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import ctc, dsp
from .dsp import FeatureConfig, FeatureNorm
from .ipa import INVENTORY, PhonemeSeq, render_ipa
from .nn import (OUTPUT_CLASSES, AdamW, CheckpointError, ModelConfig,
                 ShapeMismatchError, TranscriptionModel, load_checkpoint,
                 save_checkpoint)
from .nn.model import CONV_KERNEL, CONV_LAYERS, INPUT_WIDTH, LSTM_LAYERS
from .nn.optim import WEIGHT_DECAY
from .settings import is_int, is_real, printable


class ConfigError(ValueError):
    """A config file or block is not a JSON object, names a block or a
    field that does not exist, holds a value its settings class rejects, or
    does not match a resumed checkpoint."""


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def thread_vars() -> dict[str, str | None]:
    """The environment variables that set a BLAS or OpenMP thread count,
    None where unset."""
    return {name: os.environ.get(name) for name in THREAD_VARS}


def require_object(value, what: str) -> dict:
    """``value`` if it is a JSON object (a dict), else a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(
            f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def parse_settings(cls, d: dict, block: str):
    """``cls(**d)`` once the ``RETIRED_KEYS`` of ``block`` are dropped; a
    ``d`` that is not an object, a retired key at another value, a key
    ``cls`` lacks (escaped, so the message stays one line), or a value
    ``cls`` rejects is a ConfigError naming ``block``."""
    d = dict(require_object(d, f"the {block} block"))
    for key, fixed in RETIRED_KEYS.get(block, {}).items():
        value = d.pop(key, fixed)
        types = (int, float) if type(fixed) is float else (type(fixed),)
        if type(value) not in types or value != fixed:
            raise ConfigError(f"invalid {block} block: {block} {key} "
                              f"must be {json.dumps(fixed)}, not {value!r}")
    unknown = sorted(printable(k) for k in set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {block} key(s): {', '.join(unknown)}")
    try:
        return cls(**d)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"invalid {block} block: {e}") from e


# Per block, the keys that files of an earlier form hold, with the one value
# each has now: the weight decay, the layer graph's retired settings at the
# graph that is built, and the pinned featurization. A block may hold one at
# exactly that value, and it is dropped. A real may be any JSON number (2 for
# 2.0); any other value needs the same JSON type (not 1 for true, nor 38.0
# for 38 or 16000.0 for 16000).
RETIRED_KEYS = {
    "train": {"weight_decay": WEIGHT_DECAY},
    "model": {"mfcc_coefficients": INPUT_WIDTH, "conv_layers": CONV_LAYERS,
              "conv_kernel": CONV_KERNEL, "lstm_layers": LSTM_LAYERS,
              "conv_activation": "relu", "conv_batchnorm": True,
              "lstm_bidirectional": True, "lstm_batchnorm": True,
              "output_classes": OUTPUT_CLASSES},
    "features": {name: value for name, value in vars(FeatureConfig).items()
                 if not name.startswith("_")},
}


class StageError(RuntimeError):
    """An inference stage failed; the original error is the ``__cause__``."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {cause}")


@dataclass
class FeaturizedSample:
    word: str
    audio_filename: str
    label: list[int]
    features: np.ndarray  # (T, C), unstandardized


@dataclass
class TrainConfig:
    batch_size: int = 20
    epochs: int = 10
    eval_batches: int = 39
    seed: int = 0
    lr: float = 1e-4
    model: ModelConfig = field(default_factory=ModelConfig)
    norm: FeatureNorm = field(default_factory=lambda: dsp.DEFAULT_NORM)
    stop_at_eval_accuracy: float | None = None

    @property
    def features(self) -> FeatureConfig:
        """The pinned featurization settings, which no config sets."""
        return FeatureConfig()

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 0),
                            ("eval_batches", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ValueError(
                    f"{name} must be an integer >= {least}, not {value!r}")
        if not is_real(self.lr) or self.lr <= 0:
            raise ValueError(f"lr must be positive and finite, not {self.lr!r}")
        accuracy = self.stop_at_eval_accuracy
        if accuracy is not None and not (is_real(accuracy) and 0.0 <= accuracy <= 1.0):
            raise ValueError(
                f"stop_at_eval_accuracy must be in [0, 1], not {accuracy!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(require_object(d, "the train block"))
        for block, settings_cls in (("model", ModelConfig), ("norm", FeatureNorm),
                                    ("features", FeatureConfig)):
            if block in d:
                d[block] = parse_settings(settings_cls, d[block], block)
        d.pop("features", None)  # pinned: checked above, nothing to set
        return parse_settings(cls, d, "train")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class RunMetrics:
    epochs: list[EpochMetrics] = field(default_factory=list)
    wall_time_seconds: float = 0.0


@dataclass
class Checkpoint:
    """Everything needed to rebuild the model (and to resume training)."""

    config: TrainConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]
    optimizer: dict[str, np.ndarray] | None = None
    optimizer_t: int = 0
    epoch: int = 0
    step: int = 0
    # The name that ``restore`` errors give: the file's, once loaded.
    source: str = field(default="checkpoint", init=False, repr=False,
                        compare=False)
    # The meta's ``thread_vars`` as loaded (any JSON value, None if absent),
    # which ``train --resume`` compares with ``thread_vars()``.
    thread_vars: object = field(default=None, init=False, repr=False,
                                compare=False)

    def save(self, path: str | Path) -> None:
        meta = {
            "train_config": self.config.to_dict(),
            "progress": {
                "epoch": self.epoch,
                "step": self.step,
                "optimizer_t": self.optimizer_t,
            },
            "thread_vars": thread_vars(),
        }
        arrays = {f"param/{k}": v for k, v in self.params.items()}
        arrays.update({f"buffer/{k}": v for k, v in self.buffers.items()})
        if self.optimizer is not None:
            arrays.update({f"opt/{k}": v for k, v in self.optimizer.items()})
        save_checkpoint(path, meta, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        meta, arrays = load_checkpoint(path)
        file_name = printable(path)
        try:
            config = TrainConfig.from_dict(meta["train_config"])
        except (KeyError, TypeError, ConfigError) as e:
            raise CheckpointError(f"{file_name}: no usable train_config in "
                                  f"the checkpoint meta: {e}") from e
        sections = {"param": {}, "buffer": {}, "opt": {}}
        for key, value in arrays.items():
            prefix, _, name = key.partition("/")
            sections.setdefault(prefix, {})[name] = value
        progress = meta.get("progress", {})
        if not isinstance(progress, dict):
            raise CheckpointError(f"{file_name}: the meta's progress must be a JSON "
                                  f"object, not {type(progress).__name__}")
        counts = {name: progress.get(name, 0)
                  for name in ("epoch", "step", "optimizer_t")}
        for name, value in counts.items():
            if not is_int(value) or value < 0:
                raise CheckpointError(f"{file_name}: progress {name} must be an "
                                      f"integer >= 0, not {value!r}")
        checkpoint = cls(
            config=config,
            params=sections["param"],
            buffers=sections["buffer"],
            optimizer=sections["opt"] or None,
            **counts,
        )
        checkpoint.source = file_name
        checkpoint.thread_vars = meta.get("thread_vars")
        return checkpoint

    def restore(self, model: TranscriptionModel,
                optimizer: AdamW | None = None) -> None:
        """Copy the parameters and buffers into ``model`` and, if
        ``optimizer`` is given, the AdamW state into it. A checkpoint without
        that state, or an array whose name, shape or values do not fit, is a
        CheckpointError naming the file."""
        try:
            model.load_arrays(self.params, self.buffers)
            if optimizer is not None:
                if self.optimizer is None:
                    raise CheckpointError("no optimizer state (opt/ arrays) "
                                          "to resume from")
                optimizer.load_state(self.optimizer, self.optimizer_t)
        except (CheckpointError, ShapeMismatchError) as e:
            raise CheckpointError(f"{self.source}: {e}") from e

    def build_model(self) -> TranscriptionModel:
        model = TranscriptionModel(self.config.model)
        self.restore(model)
        model.dropout_seed = self.config.seed
        return model

    def transcriber(self) -> Transcriber:
        return Transcriber(self.build_model(), self.config.norm)


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _chunk(samples: list, size: int) -> list[list]:
    """Fixed-size batches; a trailing remainder shorter than ``size`` is dropped."""
    return [samples[i * size:(i + 1) * size] for i in range(len(samples) // size)]


def _split(samples: Sequence[FeaturizedSample], config: TrainConfig):
    """Seeded shuffle, then carve the eval split off the end."""
    n_eval = config.eval_batches * config.batch_size
    if len(samples) < n_eval + config.batch_size:
        raise ValueError(
            f"{len(samples)} samples cannot fill {config.eval_batches} eval "
            f"batches plus one train batch of {config.batch_size}"
        )
    order = _rng(config.seed, 1).permutation(len(samples))
    shuffled = [samples[i] for i in order]
    return shuffled[:-n_eval], shuffled[-n_eval:]


def _stack_standardized(batch, norm: FeatureNorm, dtype) -> np.ndarray:
    mats = [dsp.standardize(s.features, norm).astype(dtype) for s in batch]
    return np.stack(mats)


def _ctc_batch(logits: np.ndarray, labels: list[list[int]]):
    """Mean CTC loss over the batch and the gradient w.r.t. the logits."""
    batch_size = logits.shape[0]
    logp = ctc.log_softmax(logits.astype(np.float64))
    losses, dlogp = ctc.ctc_loss_batch(logp, labels)
    dlogits = ctc.log_softmax_backward(dlogp, logp) / batch_size
    return float(losses.mean()), dlogits.astype(logits.dtype)


def _eval_pass(model, eval_batches, norm):
    losses = []
    correct = 0
    for batch in eval_batches:
        x = _stack_standardized(batch, norm, model.dtype)
        logp = ctc.log_softmax(model.forward(x, train=False).astype(np.float64))
        losses.extend(ctc.ctc_loss_batch(logp, [s.label for s in batch])[0])
        correct += sum(ctc.greedy_decode(row) == sample.label
                       for row, sample in zip(logp, batch))
    return float(np.mean(losses)), correct / len(losses)


def _check_resumable(saved: TrainConfig, config: TrainConfig) -> None:
    """A ConfigError naming the first of ``seed``, ``batch_size`` and the
    model fields on which a checkpoint's config and the resuming run's
    differ: a resumed run must replay the run the checkpoint came from."""
    compared = [(name, getattr(saved, name), getattr(config, name))
                for name in ("seed", "batch_size")]
    compared += [(f"model.{f.name}", getattr(saved.model, f.name),
                  getattr(config.model, f.name)) for f in fields(ModelConfig)]
    for name, was, now in compared:
        if was != now:
            raise ConfigError(f"cannot resume: the checkpoint has {name} "
                              f"{was!r}, the config {now!r}")


def _metrics_through(path: Path, epoch: int) -> str:
    """The lines of an existing ``metrics.jsonl`` for epochs up to ``epoch``."""
    if not path.exists():
        return ""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    try:
        return "".join(line for line in lines if json.loads(line)["epoch"] <= epoch)
    except (ValueError, KeyError, TypeError) as e:
        raise ValueError(f"{printable(path)}: not a metrics file: {e!r}") from e


def train_run(
    samples: Sequence[FeaturizedSample],
    config: TrainConfig,
    run_dir: str | Path | None = None,
    resume_from: Checkpoint | None = None,
    on_epoch=None,
) -> tuple[Checkpoint, RunMetrics]:
    """Train for ``config.epochs`` epochs and return the final state.

    Each epoch reshuffles the train split (stream keyed on (seed, epoch)),
    then runs forward / CTC / backward / AdamW per batch and evaluates on
    the fixed eval split. When ``run_dir`` is given, writes ``config.json``,
    one ``metrics.jsonl`` line per epoch and ``epoch_<n>.phck`` files; a
    resumed run first drops the lines after its checkpoint's epoch.
    ``resume_from`` is only read, and must match ``config`` in seed, batch
    size and model (a ConfigError otherwise). The returned checkpoint
    holds the trained model's own arrays, not copies.
    A non-finite loss aborts with a RuntimeError naming epoch and batch.
    """
    started = time.perf_counter()
    train_split, eval_split = _split(samples, config)
    eval_batches = _chunk(eval_split, config.batch_size)

    model = TranscriptionModel(config.model, rng=_rng(config.seed, 0))
    model.dropout_seed = config.seed
    optimizer = AdamW(model.parameters(), lr=config.lr)

    start_epoch = 0
    step = 0
    if resume_from is not None:
        _check_resumable(resume_from.config, config)
        resume_from.restore(model, optimizer)
        start_epoch = resume_from.epoch
        step = resume_from.step

    run_path: Path | None = None
    metrics_file = None
    if run_dir is not None:
        run_path = Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
        with open(run_path / "config.json", "w", encoding="utf-8") as f:
            json.dump({**config.to_dict(), "thread_vars": thread_vars()}, f,
                      sort_keys=True, indent=2)
        metrics_path = run_path / "metrics.jsonl"
        earlier = (_metrics_through(metrics_path, start_epoch)
                   if resume_from is not None else "")
        metrics_file = open(metrics_path, "w", encoding="utf-8")
        metrics_file.write(earlier)

    def live_checkpoint(epoch: int) -> Checkpoint:
        """The model's and optimizer's own arrays, not copies: valid until
        the next step, and returned as they are once training stops."""
        return Checkpoint(config, model.parameters(), model.buffers(),
                          optimizer.state_arrays(), optimizer.t, epoch, step)

    metrics = RunMetrics()
    checkpoint = live_checkpoint(start_epoch)
    if run_path is not None and config.epochs == start_epoch == 0:
        checkpoint.save(run_path / "epoch_0.phck")

    try:
        for epoch in range(start_epoch, config.epochs):
            order = _rng(config.seed, 2, epoch).permutation(len(train_split))
            batches = _chunk([train_split[i] for i in order], config.batch_size)
            epoch_loss = 0.0
            for index, batch in enumerate(batches):
                x = _stack_standardized(batch, config.norm, model.dtype)
                logits = model.forward(x, train=True, step=step)
                if not np.isfinite(logits).all():
                    raise RuntimeError(
                        f"non-finite logits at epoch {epoch + 1}, "
                        f"batch {index + 1}"
                    )
                loss, dlogits = _ctc_batch(logits, [s.label for s in batch])
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch + 1}, batch {index + 1}"
                    )
                model.backward(dlogits)
                optimizer.step(model.gradients())
                step += 1
                epoch_loss += loss

            eval_loss, eval_accuracy = _eval_pass(model, eval_batches, config.norm)
            entry = EpochMetrics(
                epoch=epoch + 1,
                train_loss=epoch_loss / max(len(batches), 1),
                eval_loss=eval_loss,
                eval_accuracy=eval_accuracy,
            )
            metrics.epochs.append(entry)
            checkpoint = live_checkpoint(epoch + 1)
            if run_path is not None:
                checkpoint.save(run_path / f"epoch_{epoch + 1}.phck")
                metrics_file.write(entry.to_json_line() + "\n")
                metrics_file.flush()
            if on_epoch is not None:
                on_epoch(entry)
            if (config.stop_at_eval_accuracy is not None
                    and eval_accuracy >= config.stop_at_eval_accuracy):
                break
    finally:
        if metrics_file is not None:
            metrics_file.close()

    metrics.wall_time_seconds = time.perf_counter() - started
    return checkpoint, metrics


def _run_stages(value, stages):
    """Pass ``value`` through each (name, call) stage in turn; a failing
    call is re-raised as a StageError naming its stage."""
    for name, call in stages:
        try:
            value = call(value)
        except Exception as e:
            raise StageError(name, e) from e
    return value


def wav_features(wav_path: str | Path) -> np.ndarray:
    """WAV file -> unstandardized (T, C) MFCC matrix: decode, resample to
    the pinned rate (only the output of the kept clip), force the clip
    length, compute the MFCCs."""
    rate, seconds = FeatureConfig.sample_rate, FeatureConfig.clip_seconds
    return _run_stages(wav_path, [
        ("decode_wav", lambda path: dsp.decode_wav(Path(path).read_bytes())),
        ("resample", lambda clip: dsp.resample(clip, rate, seconds)),
        ("fix_length", lambda clip: dsp.fix_length(clip, seconds)),
        ("mfcc", dsp.mfcc),
    ])


@dataclass
class Transcriber:
    """An eval-mode model with the norm it was trained on."""

    model: TranscriptionModel
    norm: FeatureNorm


def predict_ids(transcriber: Transcriber, features: np.ndarray) -> list[int]:
    """Eval-mode decode of one unstandardized (T, C) feature matrix:
    standardize, the network, then greedy CTC decoding. An overflow or an
    invalid value (a NaN) in the network is a FloatingPointError, not a
    transcription."""
    model = transcriber.model

    def forward(f):
        with np.errstate(over="raise", invalid="raise"):
            return model.forward_single(f)

    return _run_stages(features, [
        ("standardize",
         lambda f: dsp.standardize(f, transcriber.norm).astype(model.dtype)),
        ("model_forward", forward),
        ("greedy_decode", lambda logits: ctc.greedy_decode(
            ctc.log_softmax(logits.astype(np.float64)))),
    ])


def infer(transcriber: Transcriber, wav_path: str | Path) -> tuple[PhonemeSeq, str]:
    """WAV file -> (phoneme sequence, rendered IPA); any failure is a
    StageError naming the stage."""
    features = wav_features(wav_path)
    seq = [INVENTORY[i] for i in predict_ids(transcriber, features)]
    return seq, render_ipa(seq)
