"""Inputs and closed-loop runners for the benchmark's workloads.

Every input is generated from the workload seed: tone words (one pure tone
per phoneme), a corpus manifest with known rejections, WAV files and a
shipped-size checkpoint. The program only ever sees the generated files
and arrays. Each workload has one caller: an iteration (one ``train_run``
call, or one pass of the audit commands) starts after the previous one
returned.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import gc
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from phonoscribe import cli, ctc, dsp, training
from phonoscribe.corpus import MANIFEST_HEADER
from phonoscribe.ipa import BY_SYMBOL, INVENTORY, render_ipa
from phonoscribe.nn import AdamW, ModelConfig, TranscriptionModel
from phonoscribe.nn.layers import BatchNorm1d

FEATURES = dsp.FeatureConfig()
SAMPLE_RATE = FEATURES.sample_rate
CLIP_SECONDS = FEATURES.clip_seconds
FRAMES = 1 + (round(CLIP_SECONDS * SAMPLE_RATE)
              - round(FEATURES.window_seconds * SAMPLE_RATE)
              ) // round(FEATURES.hop_seconds * SAMPLE_RATE)
TONE_ALPHABET = tuple(BY_SYMBOL[s].id for s in ("a", "b", "i", "s", "k", "u"))


@dataclass
class Outcome:
    """What one iteration did; ``cpu_s`` and ``timings`` are CPU seconds."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    problems: list[str]
    timings: dict = field(default_factory=dict)


def _failure(what: str, error: Exception) -> list[str]:
    traceback.print_exception(error, file=sys.stderr)
    return [f"{what} raised {error!r}"]


# ---------------------------------------------------------------- tone words

def tone_frequency(phoneme_id: int) -> float:
    """Log-spaced 200 Hz .. 5 kHz over the inventory, below every Nyquist."""
    return 200.0 * 25.0 ** (phoneme_id / (len(INVENTORY) - 1))


def tone_word(ids, sample_rate: int, seconds: float, phase: float = 0.0):
    """One tone burst per phoneme with short silences around each burst."""
    total = round(seconds * sample_rate)
    gap = round(min(0.05, seconds / (4 * (len(ids) + 1))) * sample_rate)
    burst = (total - gap * (len(ids) + 1)) // len(ids)
    ramp = min(round(0.005 * sample_rate), burst // 2)
    envelope = np.ones(burst)
    envelope[:ramp] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    envelope[burst - ramp:] = envelope[:ramp][::-1]
    t = np.arange(burst) / sample_rate
    out = np.zeros(total)
    for pos, pid in enumerate(ids):
        start = gap + pos * (burst + gap)
        out[start:start + burst] = 0.6 * envelope * np.sin(
            2 * np.pi * tone_frequency(pid) * t + phase)
    return out


def word_labels(rng, count: int, alphabet, lengths) -> list[list[int]]:
    """``count`` distinct phoneme-id words without adjacent repeats.

    The first two words take the shortest and longest length, and phonemes
    are drawn from shuffled passes over the alphabet, so the labels cover
    the whole length range and, once they hold as many phonemes as the
    alphabet, every phoneme.
    """
    low, high = lengths
    sizes = [low, high] + [int(n) for n in rng.integers(low, high + 1, count - 2)]
    stream: list[int] = []
    words: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for size in sizes:
        while True:
            word: list[int] = []
            while len(word) < size:
                if len(stream) < 2:
                    stream[:0] = [int(p) for p in rng.permutation(alphabet)]
                last = word[-1] if word else None
                pick = max(i for i, p in enumerate(stream) if p != last)
                word.append(stream.pop(pick))
            if tuple(word) not in seen:
                break
        seen.add(tuple(word))
        words.append(word)
    return words


# ------------------------------------------------------------------ training

@dataclass(frozen=True)
class TrainSize:
    model: ModelConfig
    batch_size: int
    train_batches: int  # per train_run call; one eval batch comes on top
    lr: float
    alphabet: tuple[int, ...]
    lengths: tuple[int, int]
    traced_iterations: int


@contextlib.contextmanager
def _capture_first_forward():
    """Record the input, weights and arguments of the first model forward."""
    captured: dict = {}
    original = TranscriptionModel.forward

    def forward(model, x, *args, **kwargs):
        if not captured:
            captured.update(
                x=x.copy(), args=args, kwargs=kwargs, config=model.config,
                dropout_seed=model.dropout_seed,
                params={k: v.copy() for k, v in model.parameters().items()})
        return original(model, x, *args, **kwargs)

    TranscriptionModel.forward = forward
    try:
        yield captured
    finally:
        TranscriptionModel.forward = original


def float64_batch_loss(captured: dict, samples, norm) -> float:
    """Mean CTC loss of the captured batch through a float64 model copy.

    Batch rows are matched back to samples (and so to labels) by nearest
    standardized feature matrix.
    """
    model = TranscriptionModel(captured["config"], dtype=np.float64)
    model.load_arrays(captured["params"])
    model.dropout_seed = captured["dropout_seed"]
    x = captured["x"]
    logits = model.forward(x.astype(np.float64), *captured["args"],
                           **captured["kwargs"])
    inputs = np.stack([dsp.standardize(s.features, norm) for s in samples])
    losses = []
    for row, frame_logits in zip(x, logits):
        nearest = int(np.abs(inputs - row).max(axis=(1, 2)).argmin())
        loss, _ = ctc.ctc_loss(ctc.log_softmax(frame_logits),
                               samples[nearest].label)
        losses.append(loss)
    return float(np.mean(losses))


class TrainWorkload:
    """``training.train_run`` for one epoch per call, ``run_dir=None``."""

    def __init__(self, size: TrainSize, seed: int, work_dir: Path):
        self.size = size
        self.seed = seed
        self.samples: list[training.FeaturizedSample] = []
        self.norm = dsp.DEFAULT_NORM
        self._first_step = None

    @property
    def traced_iterations(self) -> int:
        return self.size.traced_iterations

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng([self.seed, 1])
        count = (size.train_batches + 1) * size.batch_size
        self.samples = []
        for i, label in enumerate(word_labels(rng, count, size.alphabet,
                                              size.lengths)):
            clip = dsp.AudioClip(SAMPLE_RATE, tone_word(
                label, SAMPLE_RATE, CLIP_SECONDS, phase=float(rng.uniform(0, 6.28))))
            self.samples.append(training.FeaturizedSample(
                word=f"w{i:03d}", audio_filename=f"w{i:03d}.wav", label=label,
                features=dsp.mfcc(clip)))
        self.norm = dsp.compute_norm(s.features for s in self.samples)

    def _config(self, index: int) -> training.TrainConfig:
        return training.TrainConfig(
            batch_size=self.size.batch_size, epochs=1, eval_batches=1,
            seed=self.seed * 1000 + index, lr=self.size.lr,
            model=self.size.model, norm=self.norm)

    def warm_up(self) -> Outcome:
        """An untimed call with one train batch; its first step is kept."""
        samples = self.samples[:2 * self.size.batch_size]
        self._first_step = None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with _capture_first_forward() as captured:
                _, metrics = training.train_run(samples, self._config(0))
            problems = checks.losses_finite(metrics.epochs)
        except Exception as e:  # a failed operation is counted, not fatal
            problems = _failure("train_run", e)
        else:
            self._first_step = (captured, samples, metrics.epochs[0].train_loss)
        return Outcome(time.perf_counter() - wall, time.process_time() - cpu,
                       1, int(bool(problems)), problems)

    def final_check(self) -> Outcome:
        """The warm-up's first-step loss against a float64 recomputation.

        Runs after the timed iterations so that its float64 activations do
        not count in the peak memory.
        """
        if self._first_step is None:
            return Outcome(0.0, 0.0, 0, 0, [])
        captured, samples, loss32 = self._first_step
        try:
            problems = checks.first_step_matches(
                loss32, float64_batch_loss(captured, samples, self.norm))
        except Exception as e:
            problems = _failure("float64 first-step check", e)
        return Outcome(0.0, 0.0, 0, int(bool(problems)), problems)

    def iterate(self, index: int) -> Outcome:
        steps = self.size.train_batches
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            _, metrics = training.train_run(self.samples, self._config(index))
            problems = checks.losses_finite(metrics.epochs)
        except Exception as e:
            problems = _failure("train_run", e)
        return Outcome(time.perf_counter() - wall, time.process_time() - cpu,
                       steps, steps if problems else 0, problems,
                       {"samples": steps * self.size.batch_size})

    @staticmethod
    def summary(outcomes: list[Outcome]) -> dict:
        rates = [o.timings["samples"] / o.cpu_s for o in outcomes]
        calls = [o.cpu_s for o in outcomes]
        return {
            "throughput": rates,
            "report": {"train_samples_per_s": ("1/s", rates),
                       "train_run_s": ("s", calls)},
        }


# --------------------------------------------------------------------- audit

@dataclass(frozen=True)
class AuditSize:
    model: ModelConfig
    pages: int
    clips: int
    traced_iterations: int = 1


BATCHNORM_CLIPS = 4  # clips of the train-mode pass that sets BatchNorm statistics
REJECT_RULES = ("language", "single_ipa", "inventory", "length", "ll_audio")
REJECT_WEIGHTS = (0.4, 0.2, 0.15, 0.1, 0.15)
FOREIGN_LANGUAGES = ("eng", "deu", "spa", "ita", "nld")
NON_INVENTORY = ("θ", "ð", "h", "x", "ʔ", "r")
WAV_FORMATS = tuple((rate, channels, encoding)
                    for rate in (44100, 48000, 16000)
                    for channels in (1, 2)
                    for encoding in ("pcm16", "float32"))


def _ipa(rng, count: int) -> str:
    return render_ipa([INVENTORY[int(i)] for i in rng.integers(0, len(INVENTORY),
                                                               count)])


def generate_manifest(rng, pages: int, clips: int):
    """Manifest rows, the filter's expected statistics and the kept clips.

    ``clips`` pages pass every rule with one Lingua Libre recording each;
    every other page fails exactly one rule, chosen at random, with one to
    three recordings. Returns (rows, expected stats, [(word, audio name,
    ids)]) with rows in manifest order.
    """
    rows = []
    kept = []
    rejected = {rule: 0 for rule in REJECT_RULES}
    audio_count = 0
    for i in range(clips):
        ids = [int(p) for p in rng.integers(0, len(INVENTORY), int(rng.integers(1, 20)))]
        word = f"mot{i}"
        audio = f"LL-Q150 (fra)-user{i % 7}-{word}.wav"
        rows.append([word, "fra", render_ipa([INVENTORY[p] for p in ids]), audio])
        kept.append((word, audio, ids))
    for i in range(pages - clips):
        rule = REJECT_RULES[int(rng.choice(len(REJECT_RULES), p=REJECT_WEIGHTS))]
        word = f"page{i}"
        audios = [f"LL-Q150 (fra)-user{k}-{word}.wav"
                  for k in range(int(rng.integers(1, 4)))]
        language = "fra"
        ipas = [_ipa(rng, int(rng.integers(1, 20)))]
        if rule == "language":
            language = FOREIGN_LANGUAGES[int(rng.integers(len(FOREIGN_LANGUAGES)))]
        elif rule == "single_ipa":
            ipas = [_ipa(rng, 3) for _ in range(int(rng.choice([0, 2, 3])))]
        elif rule == "inventory":
            at = int(rng.integers(0, len(ipas[0]) + 1))
            bad = NON_INVENTORY[int(rng.integers(len(NON_INVENTORY)))]
            ipas = [ipas[0][:at] + bad + ipas[0][at:]]
        elif rule == "length":
            ipas = ["ˈ" if rng.random() < 0.25 else _ipa(rng, int(rng.integers(20, 26)))]
        else:
            audios = [f"Fr-{word}-{k}.ogg" for k in range(len(audios))]
        rows.append([word, language, "|".join(ipas), "|".join(audios)])
        rejected[rule] += len(audios)
        audio_count += len(audios)
    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    by_name = {audio: (word, ids) for word, audio, ids in kept}
    kept = [(by_name[row[3]][0], row[3], by_name[row[3]][1])
            for row in rows if row[3] in by_name]
    expected = {"input_count": audio_count + clips, "kept_count": clips,
                "rejected_by_rule": rejected}
    return rows, expected, kept


def wav_bytes(channels_data: np.ndarray, rate: int, encoding: str) -> bytes:
    """RIFF/WAVE bytes of a (samples, channels) array in [-1, 1]."""
    if encoding == "pcm16":
        payload = np.round(np.clip(channels_data, -1, 1) * 32767).astype("<i2")
        code, bits = 1, 16
    else:
        payload = channels_data.astype("<f4")
        code, bits = 3, 32
    data = payload.tobytes()
    channels = channels_data.shape[1]
    block = channels * bits // 8
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, code, channels, rate, rate * block, block,
                         bits, b"data", len(data))
    return header + data


@contextlib.contextmanager
def _batchnorm_momentum(momentum: float):
    original = BatchNorm1d.forward

    def forward(layer, x, train=False):
        layer.momentum = momentum
        return original(layer, x, train)

    BatchNorm1d.forward = forward
    try:
        yield
    finally:
        BatchNorm1d.forward = original


def write_checkpoint(path: Path, model_config: ModelConfig, seed: int,
                     wavs: list[str]) -> None:
    """A checkpoint in the form ``train`` writes: weights, BatchNorm
    statistics and AdamW state.

    The weights are random. The BatchNorm running statistics are set from
    one train-mode pass over ``wavs``, as a trained model's come from its
    data: with the initial statistics (mean 0, variance 1) the model of
    some seeds transcribes every clip alike, which would make the
    transcription checks vacuous.
    """
    config = training.TrainConfig(model=model_config, seed=seed)
    model = TranscriptionModel(model_config, rng=np.random.default_rng([seed, 3]))
    features = config.features
    x = np.stack([
        dsp.standardize(dsp.mfcc(dsp.fix_length(
            dsp.resample(dsp.decode_wav(Path(wav).read_bytes()),
                         features.sample_rate),
            features.clip_seconds), features), config.norm)
        for wav in wavs])
    with _batchnorm_momentum(1.0):
        model.forward(x.astype(model.dtype), train=True)
    optimizer = AdamW(model.parameters())
    training.Checkpoint(
        config=config, params=model.parameters(), buffers=model.buffers(),
        optimizer=optimizer.state_arrays(), optimizer_t=1, epoch=1, step=1,
    ).save(path)


def _release_memory() -> None:
    """Free garbage and return the free heap to the system (glibc only).

    Each command then starts from the memory a process of its own would
    have, so peak_rss_mb is the peak of one command rather than of one
    command on top of the heap fragments the previous ones left.
    """
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).malloc_trim(0)


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and CPU seconds of one in-process command."""
    _release_memory()
    out = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.process_time() - start


class AuditWorkload:
    """The CLI commands in order, in-process through ``cli.main``."""

    def __init__(self, size: AuditSize, seed: int, work_dir: Path,
                 size_name: str, smoke: bool):
        self.size = size
        self.seed = seed
        self.size_name = size_name
        self.smoke = smoke
        self.root = work_dir / "audit"
        self.expected: dict = {}
        self.names: list[str] = []
        self.words: list[str] = []
        self.wavs: list[str] = []
        self.reference: dict[str, str] = {}  # WAV path -> warm-up transcription

    @property
    def traced_iterations(self) -> int:
        return self.size.traced_iterations

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        (self.root / "wavs").mkdir(parents=True)
        rng = np.random.default_rng([self.seed, 2])
        rows, self.expected, kept = generate_manifest(rng, self.size.pages,
                                                      self.size.clips)
        with open(self.root / "manifest.csv", "w", encoding="utf-8",
                  newline="") as f:
            writer = csv.writer(f)
            writer.writerow(MANIFEST_HEADER)
            writer.writerows(rows)
        # Formats cycle through every combination and durations are
        # stratified over 0.5-3 s, so that each seed draws a like mix.
        formats = rng.permutation(len(WAV_FORMATS))
        strata = (rng.permutation(len(kept)) + rng.random(len(kept))) / len(kept)
        self.names = [name for _, name, _ in kept]
        self.words = [word for word, _, _ in kept]
        self.wavs = []
        for i, (_, name, ids) in enumerate(kept):
            rate, channels, encoding = WAV_FORMATS[formats[i % len(WAV_FORMATS)]]
            mono = tone_word(ids, rate, 0.5 + 2.5 * float(strata[i]))
            data = np.stack([mono, 0.8 * mono][:channels], axis=1)
            path = self.root / "wavs" / name
            path.write_bytes(wav_bytes(data, rate, encoding))
            self.wavs.append(str(path))
        # Saving holds the weights, the optimizer state and their bytes at
        # once, more than eval or infer ever hold; a child process keeps
        # that peak out of this process's peak_rss_mb.
        subprocess.run(
            [sys.executable, __file__, str(self.root / "model.phck"),
             self.size_name, str(self.seed), "--smoke" if self.smoke else "--full",
             *self.wavs[:BATCHNORM_CLIPS]],
            env={**os.environ, "PYTHONPATH": str(Path(dsp.__file__).parent.parent)},
            check=True)

    def warm_up(self) -> Outcome:
        """An untimed multi-file ``infer``, kept as the reference transcriptions.

        The seeded checkpoint must give mostly non-empty, distinct
        transcriptions, so that comparing them between commands can show
        a clip decoded wrongly or swapped with another.
        """
        self.reference = {}
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code, stdout, _ = _run_cli(["infer", "--checkpoint",
                                        str(self.root / "model.phck"), *self.wavs])
            problems = checks.infer_lines(stdout, self.wavs)
            if code != 0:
                problems.insert(0, f"warm-up infer exited {code}")
        except Exception as e:
            problems = _failure("warm-up infer", e)
        if not problems:
            self.reference = dict(line.split("\t", 1) for line in stdout.splitlines())
            problems = checks.transcripts_informative(list(self.reference.values()))
        return Outcome(time.perf_counter() - wall, time.process_time() - cpu,
                       len(self.wavs), len(self.wavs) if problems else 0, problems)

    def final_check(self) -> Outcome:
        return Outcome(0.0, 0.0, 0, 0, [])

    def iterate(self, index: int) -> Outcome:
        root = self.root
        checkpoint = str(root / "model.phck")
        clips = len(self.wavs)
        timings: dict = {"word_s": []}
        attempted = failed = 0
        problems: list[str] = []

        def command(key, argv, ops, check):
            nonlocal attempted, failed
            attempted += ops
            try:
                code, stdout, seconds = _run_cli(argv)
            except Exception as e:  # a failed command is counted, not fatal
                seconds, found = float("nan"), _failure(argv[0], e)
            else:
                try:
                    found = check(stdout)
                except (OSError, ValueError, KeyError) as e:
                    found = [f"{argv[0]} output unreadable: {e!r}"]
                if code != 0:
                    found.insert(0, f"{argv[0]} exited {code}")
            if found:
                failed += ops
                problems.extend(found)
            if key == "word_s":
                timings[key].append(seconds)
            else:
                timings[key] = seconds

        def report() -> dict:
            with open(root / "report" / "report.json", encoding="utf-8") as f:
                return json.load(f)

        single: dict[str, str] = {}  # one-file infer output that passed its check

        def eval_check(out):
            found = checks.eval_report(out, report(), clips)
            by_word = dict(zip(self.words, self.wavs))
            predicted = {by_word[r["word"]]: r["predicted_ipa"]
                         for r in report()["suspects"]}
            return found + checks.transcripts_agree(
                "eval", predicted, self.reference)

        def infer_check(out, wavs):
            found = checks.infer_lines(out, wavs)
            if not found:
                got = dict(line.split("\t", 1) for line in out.splitlines())
                found = checks.transcripts_agree(
                    "one-file infer" if len(wavs) == 1 else "infer", got,
                    self.reference)
                if len(wavs) == 1 and not found:
                    single.update(got)
            return found

        wall, cpu = time.perf_counter(), time.process_time()
        command("filter_s", ["filter", "--manifest", str(root / "manifest.csv"),
                             "--out", str(root / "kept.csv")], 1,
                lambda out: checks.filter_counts(out, self.expected))
        command("featurize_s", ["featurize", "--samples", str(root / "kept.csv"),
                                "--cache", str(root / "wavs"),
                                "--out", str(root / "features")], clips,
                lambda out: checks.featurize_lines(out, self.names, FRAMES,
                                                   FEATURES.n_coefficients))
        command("eval_s", ["eval", "--checkpoint", checkpoint,
                           "--samples", str(root / "kept.csv"),
                           "--features", str(root / "features"),
                           "--report-dir", str(root / "report")], clips,
                eval_check)
        command("suspects_s", ["suspects", "--report-dir", str(root / "report")], 1,
                lambda out: checks.suspects_rows(out, report()))
        command("infer_s", ["infer", "--checkpoint", checkpoint, *self.wavs], clips,
                lambda out: infer_check(out, self.wavs))
        for wav in self.wavs:
            command("word_s", ["infer", "--checkpoint", checkpoint, wav], 1,
                    lambda out, wav=wav: infer_check(out, [wav]))
        # Each one-file call passed alone; together they may flip one clip.
        found = checks.transcripts_agree("one-file infer", single, self.reference)
        if found:
            failed += sum(single[w] != self.reference[w] for w in single)
            problems.extend(found)
        return Outcome(time.perf_counter() - wall, time.process_time() - cpu,
                       attempted, failed, problems, timings)

    def summary(self, outcomes: list[Outcome]) -> dict:
        clips = len(self.wavs)

        def rate(key, count):
            return [count / o.timings[key] for o in outcomes]

        words = [s for o in outcomes for s in o.timings["word_s"]]
        pipeline = [3 * clips / (o.timings["featurize_s"] + o.timings["eval_s"]
                                 + o.timings["infer_s"]) for o in outcomes]
        return {
            "throughput": pipeline,
            "report": {
                "filter_pages_per_s": ("1/s", rate("filter_s", self.size.pages)),
                "featurize_clips_per_s": ("1/s", rate("featurize_s", clips)),
                "eval_clips_per_s": ("1/s", rate("eval_s", clips)),
                "infer_clips_per_s": ("1/s", rate("infer_s", clips)),
                "infer_word_s": ("s", words),
                "audit_clips_per_s": ("1/s", pipeline),
            },
        }


# ----------------------------------------------------------------- registry

FULL = {
    "train_shipped": TrainSize(ModelConfig(), batch_size=20, train_batches=1,
                               lr=1e-4, alphabet=tuple(range(len(INVENTORY))),
                               lengths=(1, 19), traced_iterations=1),
    "train_gate": TrainSize(ModelConfig(conv_units=32, lstm_units=64,
                                        lstm_dropout=0.0),
                            batch_size=8, train_batches=4, lr=2.5e-3,
                            alphabet=TONE_ALPHABET, lengths=(2, 5),
                            traced_iterations=4),
    "audit_corpus": AuditSize(ModelConfig(), pages=10000, clips=12),
}

# Tiny sizes for the smoke test: same code paths, seconds instead of minutes.
SMOKE = {
    "train_shipped": TrainSize(ModelConfig(conv_units=8, lstm_units=8),
                               batch_size=4, train_batches=1, lr=1e-4,
                               alphabet=tuple(range(len(INVENTORY))),
                               lengths=(1, 19), traced_iterations=1),
    "train_gate": TrainSize(ModelConfig(conv_units=8, lstm_units=8,
                                        lstm_dropout=0.0),
                            batch_size=4, train_batches=2, lr=2.5e-3,
                            alphabet=TONE_ALPHABET, lengths=(2, 5),
                            traced_iterations=1),
    "audit_corpus": AuditSize(ModelConfig(conv_units=8, lstm_units=8),
                              pages=60, clips=4),
}

WORKLOADS = tuple(FULL)


def make(name: str, seed: int, work_dir: Path, smoke: bool = False):
    size = (SMOKE if smoke else FULL)[name]
    if isinstance(size, AuditSize):
        return AuditWorkload(size, seed, work_dir, name, smoke)
    return TrainWorkload(size, seed, work_dir)


if __name__ == "__main__":
    # python3 perfbench/workloads.py OUT WORKLOAD SEED --full|--smoke WAV...
    _, out_path, workload_name, workload_seed, size, *wav_paths = sys.argv
    write_checkpoint(Path(out_path),
                     {"--full": FULL, "--smoke": SMOKE}[size][workload_name].model,
                     int(workload_seed), wav_paths)
