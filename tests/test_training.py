import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY_MODEL, layer_memory
from phonoscribe import ctc, dsp
from phonoscribe.dsp import FeatureNorm
from phonoscribe.nn import (INPUT_WIDTH, CheckpointError, ModelConfig,
                            TranscriptionModel, load_checkpoint, save_checkpoint)
from phonoscribe.training import (
    RETIRED_KEYS,
    THREAD_VARS,
    Checkpoint,
    ConfigError,
    FeaturizedSample,
    StageError,
    TrainConfig,
    _chunk,
    _ctc_batch,
    _rng,
    _split,
    infer,
    predict_ids,
    train_run,
    wav_features,
)

IDENTITY_NORM = FeatureNorm(mean=0.0, std=1.0)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=6)
# Arbitrary JSON, plus values near the valid ranges so that checks past the
# type checks are reached too.
SETTING_VALUES = JSON_VALUES | st.integers(-2, 600) | st.floats(-1.0, 2.0)


def json_block(names):
    """An object mapping some of ``names`` to arbitrary JSON values."""
    return st.dictionaries(st.sampled_from(names), SETTING_VALUES, max_size=len(names))


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def toy_samples(count, t_len=12, seed=0, label_pool=(0, 1, 2)):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        label = [int(label_pool[rng.integers(len(label_pool))])
                 for _ in range(rng.integers(1, 4))]
        label = [l for j, l in enumerate(label) if j == 0 or l != label[j - 1]]
        out.append(FeaturizedSample(
            word=f"w{i}",
            audio_filename=f"w{i}.wav",
            label=label,
            features=rng.normal(size=(t_len, INPUT_WIDTH)).astype(np.float32),
        ))
    return out


def tiny_config(**overrides):
    settings = dict(batch_size=4, epochs=2, eval_batches=1, seed=3, lr=1e-3,
                    model=TINY_MODEL, norm=IDENTITY_NORM)
    settings.update(overrides)
    return TrainConfig(**settings)


def split_and_batch(samples, config):
    """The train and eval splits cut into batches, as ``train_run`` does."""
    train_split, eval_split = _split(samples, config)
    return (_chunk(train_split, config.batch_size),
            _chunk(eval_split, config.batch_size))


class TestCtcBatch:
    def test_matches_per_sample_composition(self):
        rng = np.random.default_rng(40)
        labels = [[2], [1, 1], [0, 3, 0, 3], [3, 2]]
        logits = (rng.normal(size=(4, 9, 5)) * 3).astype(np.float32)
        loss, dlogits = _ctc_batch(logits, labels)
        assert dlogits.dtype == np.float32
        losses = []
        for b, seq in enumerate(labels):
            logp = ctc.log_softmax(logits[b].astype(np.float64))
            sample_loss, dlogp = ctc.ctc_loss(logp, seq)
            losses.append(sample_loss)
            want = (ctc.log_softmax_backward(dlogp, logp) / 4).astype(np.float32)
            assert np.array_equal(dlogits[b], want)
        assert loss == pytest.approx(np.mean(losses), rel=1e-15)


class TestSplitAndBatch:
    def test_corpus_scale_batch_counts(self):
        # 79326 samples at batch 20 with 39 eval batches: the eval split
        # takes 780 samples, training fills 3927 full batches (6 dropped),
        # 3966 batches in total.
        samples = [None] * 79326
        config = TrainConfig(batch_size=20, eval_batches=39, seed=0)
        train_batches, eval_batches = split_and_batch(samples, config)
        assert len(eval_batches) == 39
        assert len(train_batches) == 3927
        assert len(train_batches) + len(eval_batches) == 3966
        assert all(len(b) == 20 for b in train_batches)
        assert all(len(b) == 20 for b in eval_batches)

    def test_forty_samples_one_each(self):
        samples = toy_samples(40)
        config = tiny_config(batch_size=20, eval_batches=1)
        train_batches, eval_batches = split_and_batch(samples, config)
        assert len(train_batches) == 1
        assert len(eval_batches) == 1

    def test_same_seed_same_composition(self):
        samples = toy_samples(30)
        config = tiny_config(batch_size=5, eval_batches=2)
        first = split_and_batch(samples, config)
        second = split_and_batch(samples, config)
        words = lambda batches: [[s.word for s in b] for b in batches]
        assert words(first[0]) == words(second[0])
        assert words(first[1]) == words(second[1])

    def test_splits_disjoint(self):
        samples = toy_samples(30)
        config = tiny_config(batch_size=5, eval_batches=2)
        train_batches, eval_batches = split_and_batch(samples, config)
        train_words = {s.word for b in train_batches for s in b}
        eval_words = {s.word for b in eval_batches for s in b}
        assert not train_words & eval_words

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match=r"^7 samples cannot fill 1 eval "
                           r"batches plus one train batch of 4$"):
            _split(toy_samples(7), tiny_config(batch_size=4, eval_batches=1))


class TestTrainRun:
    def test_zero_epochs_returns_initialization(self, tmp_path):
        samples = toy_samples(12)
        config = tiny_config(epochs=0)
        checkpoint, metrics = train_run(samples, config, run_dir=tmp_path)
        assert metrics.epochs == []
        fresh = TranscriptionModel(config.model, rng=_rng(config.seed, 0))
        for name, value in fresh.parameters().items():
            assert np.array_equal(checkpoint.params[name], value)
        assert (tmp_path / "epoch_0.phck").exists()

    def test_run_directory_layout(self, tmp_path):
        samples = toy_samples(12)
        config = tiny_config(epochs=2)
        train_run(samples, config, run_dir=tmp_path)
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "epoch_1.phck").exists()
        assert (tmp_path / "epoch_2.phck").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert set(entry) == {"epoch", "train_loss", "eval_loss",
                              "eval_accuracy"}
        config_json = json.loads((tmp_path / "config.json").read_text())
        assert config_json["batch_size"] == 4
        assert config_json["model"]["conv_units"] == 8

    def test_thread_variables_recorded(self, tmp_path, monkeypatch):
        for name in THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        want = {name: None for name in THREAD_VARS}
        want.update(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="1")
        config = tiny_config(epochs=1)
        train_run(toy_samples(12), config, run_dir=tmp_path)
        config_json = json.loads((tmp_path / "config.json").read_text())
        assert config_json.pop("thread_vars") == want
        assert TrainConfig.from_dict(config_json) == config
        meta, arrays = load_checkpoint(tmp_path / "epoch_1.phck")
        assert meta["thread_vars"] == want
        # A checkpoint from before the key loads, and resumes, as one with it.
        del meta["thread_vars"]
        save_checkpoint(tmp_path / "old.phck", meta, arrays)
        old = Checkpoint.load(tmp_path / "old.phck")
        assert old.epoch == 1 and old.config == config
        resumed, _ = train_run(toy_samples(12), tiny_config(epochs=2),
                               resume_from=old)
        straight, _ = train_run(toy_samples(12), tiny_config(epochs=2))
        for name, value in straight.params.items():
            assert np.array_equal(value, resumed.params[name]), name

    def test_metrics_one_entry_per_epoch(self):
        samples = toy_samples(12)
        _, metrics = train_run(samples, tiny_config(epochs=3))
        assert [e.epoch for e in metrics.epochs] == [1, 2, 3]
        assert metrics.wall_time_seconds > 0

    def test_nan_features_abort_with_batch_name(self):
        samples = toy_samples(12)
        samples[0].features[:] = np.nan
        with pytest.raises(RuntimeError, match=r"^non-finite logits at "
                           r"epoch 1, batch \d+$"):
            train_run(samples, tiny_config(epochs=1))

    def test_nan_loss_aborts_with_batch_name(self, monkeypatch):
        monkeypatch.setattr(ctc, "ctc_loss_batch", lambda logp, labels: (
            np.full(len(labels), np.nan), np.zeros_like(logp)))
        with pytest.raises(RuntimeError,
                           match=r"^non-finite loss at epoch 1, batch 1$"):
            train_run(toy_samples(12), tiny_config(epochs=1))

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # dropout > 0 exercises the (seed, layer, step) mask keying
        model = dataclasses.replace(TINY_MODEL, lstm_dropout=0.3)
        samples = toy_samples(12)
        full_config = tiny_config(epochs=4, model=model)
        straight, _ = train_run(samples, full_config)

        half_config = tiny_config(epochs=2, model=model)
        halfway, _ = train_run(samples, half_config)
        mid_path = tmp_path / "mid.phck"
        halfway.save(mid_path)
        resumed, _ = train_run(samples, full_config,
                               resume_from=Checkpoint.load(mid_path))

        assert straight.step == resumed.step
        for name, value in straight.params.items():
            assert np.array_equal(value, resumed.params[name]), name
        for name, value in straight.buffers.items():
            assert np.array_equal(value, resumed.buffers[name]), name

    def test_resume_into_a_directory_without_metrics(self, tmp_path):
        # The new directory's metrics.jsonl holds only the epochs it trains.
        samples = toy_samples(12)
        train_run(samples, tiny_config(epochs=1), run_dir=tmp_path / "a")
        train_run(samples, tiny_config(epochs=2), run_dir=tmp_path / "b",
                  resume_from=Checkpoint.load(tmp_path / "a" / "epoch_1.phck"))
        train_run(samples, tiny_config(epochs=2), run_dir=tmp_path / "straight")
        straight = (tmp_path / "straight" / "metrics.jsonl").read_text()
        assert (tmp_path / "b" / "metrics.jsonl").read_text() == \
            straight.splitlines(keepends=True)[1]

    @pytest.mark.parametrize("epochs", [0, 1, 2])
    def test_resume_at_or_past_its_epochs_writes_no_checkpoint(self, tmp_path,
                                                               epochs):
        # Every epoch_<n>.phck holds the state after epoch n, so a run
        # resumed from epoch 2 that trains no epoch writes none.
        samples, run_dir = toy_samples(12), tmp_path / "run"
        train_run(samples, tiny_config(epochs=2), run_dir=run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.glob("*.phck")}
        train_run(samples, tiny_config(epochs=epochs), run_dir=run_dir,
                  resume_from=Checkpoint.load(run_dir / "epoch_2.phck"))
        assert {p.name: p.read_bytes() for p in run_dir.glob("*.phck")} == before

    @pytest.mark.parametrize("overrides", [
        {"epochs": 2}, {"epochs": 0},
        {"epochs": 50, "stop_at_eval_accuracy": 0.0}])
    def test_returned_checkpoint_is_the_last_one_written(self, tmp_path,
                                                         overrides):
        # The returned checkpoint holds the model's own arrays, so nothing
        # may touch them after the last epoch file is written.
        model = dataclasses.replace(TINY_MODEL, lstm_dropout=0.3)
        config = tiny_config(model=model, **overrides)
        checkpoint, metrics = train_run(toy_samples(12), config,
                                        run_dir=tmp_path / "run")
        checkpoint.save(tmp_path / "returned.phck")
        last = tmp_path / "run" / f"epoch_{len(metrics.epochs)}.phck"
        assert (tmp_path / "returned.phck").read_bytes() == last.read_bytes()

    def test_resume_leaves_its_checkpoint_unchanged(self):
        samples = toy_samples(12)
        # A returned checkpoint's arrays are writable, unlike loaded ones.
        first, _ = train_run(samples, tiny_config(epochs=1))
        sections = (first.params, first.buffers, first.optimizer)
        before = [{k: v.copy() for k, v in arrays.items()} for arrays in sections]
        train_run(samples, tiny_config(epochs=3), resume_from=first)
        for arrays, saved in zip(sections, before):
            for name, value in saved.items():
                assert np.array_equal(arrays[name], value), name

    @pytest.mark.parametrize("change, field", [
        ({"seed": 4}, "seed"),
        ({"batch_size": 2}, "batch_size"),
        ({"model": dataclasses.replace(TINY_MODEL, lstm_units=6)},
         "model.lstm_units"),
    ])
    def test_resume_rejects_another_runs_checkpoint(self, change, field):
        samples = toy_samples(12)
        first, _ = train_run(samples, tiny_config(epochs=1))
        with pytest.raises(ConfigError, match=f"has {field} "):
            train_run(samples, tiny_config(epochs=2, **change),
                      resume_from=first)

    def test_identical_seeds_identical_artifacts(self, tmp_path):
        samples = toy_samples(12)
        config = tiny_config(epochs=2)
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        train_run(samples, config, run_dir=first_dir)
        train_run(samples, config, run_dir=second_dir)
        for name in ("metrics.jsonl", "epoch_1.phck", "epoch_2.phck"):
            assert (first_dir / name).read_bytes() == \
                (second_dir / name).read_bytes(), name

    def test_stop_at_accuracy_halts_early(self):
        samples = toy_samples(12)
        config = tiny_config(epochs=50, stop_at_eval_accuracy=0.0)
        _, metrics = train_run(samples, config)
        assert len(metrics.epochs) == 1

    def test_eval_pass_takes_no_ctc_gradients(self, monkeypatch):
        # two epochs of two train batches and one eval batch: only the
        # train batches take CTC gradients
        calls = []
        kernel = ctc.ctc_loss_batch
        monkeypatch.setattr(ctc, "ctc_loss_batch",
                            lambda *args: calls.append(1) or kernel(*args))
        train_run(toy_samples(12), tiny_config())
        assert len(calls) == 2 * 2


class TestTrainStepMemory:
    def test_mid_size_train_step_peak(self, tone_corpus):
        # One train batch and one eval batch at conv 32, LSTM 128, B=8,
        # T=198. Traced numpy peak: 31.2 MiB in lstm2.backward, against
        # 35.8 MiB while each BiLSTM cached its cell and hidden states too.
        samples, norm = tone_corpus
        config = TrainConfig(batch_size=8, epochs=1, eval_batches=1, seed=3,
                             model=ModelConfig(conv_units=32, lstm_units=128),
                             norm=norm)
        with layer_memory() as calls:
            train_run(samples[:16], config)
        assert samples[0].features.shape == (198, 40)
        layer, phase, _, peak = max(calls, key=lambda call: call[3])
        assert peak < 32 * 2**20, (layer, phase, peak)


class TestTrainingLossTrend:
    def test_loss_non_increasing_after_warmup(self, tone_corpus):
        # smoke property at the production learning rate: after epoch 5 the
        # train loss should fall, allowing up to 10% noisy epoch pairs
        samples, norm = tone_corpus
        config = TrainConfig(batch_size=8, epochs=25, eval_batches=1, seed=3,
                             lr=1e-4,
                             model=ModelConfig(conv_units=32, lstm_units=64,
                                               lstm_dropout=0.0),
                             norm=norm)
        _, metrics = train_run(samples, config)
        losses = [e.train_loss for e in metrics.epochs][4:]
        violations = sum(b > a for a, b in zip(losses, losses[1:]))
        assert violations <= max(1, len(losses) // 10)


class TestTrainConfigFromDict:
    @settings(max_examples=500, deadline=None)
    @given(d=st.fixed_dictionaries({}, optional={
        **{name: SETTING_VALUES
           for name in [*field_names(TrainConfig), *RETIRED_KEYS["train"]]
           if name not in ("model", "norm")},
        "model": json_block([*field_names(ModelConfig), *RETIRED_KEYS["model"]]),
        "norm": json_block(field_names(FeatureNorm)),
        "features": json_block(list(RETIRED_KEYS["features"])),
    }))
    def test_returns_a_config_or_raises_config_error(self, d):
        try:
            config = TrainConfig.from_dict(d)
        except ConfigError:
            return
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_retired_keys_at_their_values_are_dropped(self):
        d = {**RETIRED_KEYS["train"], "model": dict(RETIRED_KEYS["model"]),
             "features": dict(RETIRED_KEYS["features"])}
        assert TrainConfig.from_dict(d) == TrainConfig()
        assert "weight_decay" not in TrainConfig().to_dict()


class TestCheckpointRoundTrip:
    def test_save_load_rebuilds_model(self, tmp_path):
        samples = toy_samples(12)
        config = tiny_config(epochs=1)
        checkpoint, _ = train_run(samples, config)
        path = tmp_path / "x.phck"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.config == config
        assert loaded.epoch == 1
        model_a = checkpoint.build_model()
        model_b = loaded.build_model()
        x = np.random.default_rng(0).normal(
            size=(8, INPUT_WIDTH)).astype(np.float32)
        assert np.array_equal(model_a.forward_single(x),
                              model_b.forward_single(x))

    @pytest.mark.parametrize("meta", [
        {"blank_id": 37}, {"train_config": {"bogus": 1}}, ["train_config"]])
    def test_meta_without_usable_train_config_rejected(self, tmp_path, meta):
        path = tmp_path / "x.phck"
        save_checkpoint(path, meta, {})
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("field, value", [
        ("lstm_units", "big"), ("lstm_dropout", None), ("conv_kernel", 2),
        ("conv_activation", "tanh"), ("conv_layers", -1), ("lstm_units", 2.5),
        ("conv_batchnorm", "no"), ("lstm_dropout", False),
        ("lstm_dropout", "0.5")])
    def test_meta_with_invalid_model_value_rejected(self, tmp_path, field,
                                                    value):
        train_config = tiny_config().to_dict()
        train_config["model"][field] = value
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"train_config": train_config}, {})
        with pytest.raises(CheckpointError) as excinfo:
            Checkpoint.load(path)
        assert str(path) in str(excinfo.value)
        assert "invalid model block" in str(excinfo.value)

    @pytest.mark.parametrize("block, field, value, message", [
        ("model", "output_classes", 40, "model output_classes must be 38"),
        ("norm", "mean", None, "invalid norm block"),
        ("norm", "std", -1.0, "invalid norm block"),
        ("features", "hop_seconds", 0, "invalid features block"),
        ("features", "window_seconds", 0.05, "invalid features block")])
    def test_meta_with_invalid_settings_rejected(self, tmp_path, block, field,
                                                 value, message):
        train_config = tiny_config().to_dict()
        train_config.setdefault(block, {})[field] = value
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"train_config": train_config}, {})
        with pytest.raises(CheckpointError) as excinfo:
            Checkpoint.load(path)
        assert str(path) in str(excinfo.value)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("progress, message", [
        ([1], "progress must be a JSON object, not list"),
        ("x", "progress must be a JSON object, not str"),
        ({"epoch": "3"}, "progress epoch must be an integer >= 0, not '3'"),
        ({"epoch": 1.0}, "progress epoch must be an integer >= 0"),
        ({"step": -1}, "progress step must be an integer >= 0, not -1"),
        ({"optimizer_t": True}, "progress optimizer_t must be an integer >= 0"),
    ])
    def test_meta_with_invalid_progress_rejected(self, tmp_path, progress,
                                                 message):
        path = tmp_path / "x.phck"
        save_checkpoint(path, {"train_config": tiny_config().to_dict(),
                               "progress": progress}, {})
        with pytest.raises(CheckpointError) as excinfo:
            Checkpoint.load(path)
        assert str(path) in str(excinfo.value)
        assert message in str(excinfo.value)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(meta=JSON_VALUES | st.fixed_dictionaries(
        {"train_config": st.just(tiny_config().to_dict())},
        optional={"progress": JSON_VALUES | json_block(
            ["epoch", "step", "optimizer_t"])}))
    def test_arbitrary_meta_loads_or_is_rejected(self, tmp_path, meta):
        path = tmp_path / "x.phck"
        save_checkpoint(path, meta, {})
        try:
            checkpoint = Checkpoint.load(path)
        except CheckpointError:
            return
        assert min(checkpoint.epoch, checkpoint.step, checkpoint.optimizer_t) >= 0

    def test_optimizer_state_preserved(self, tmp_path):
        samples = toy_samples(12)
        checkpoint, _ = train_run(samples, tiny_config(epochs=1))
        path = tmp_path / "x.phck"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.optimizer_t == checkpoint.optimizer_t
        assert loaded.optimizer is not None
        for name, value in checkpoint.optimizer.items():
            assert np.array_equal(loaded.optimizer[name], value)


def zero_model_checkpoint(config=None):
    """Checkpoint whose zero-weight model decodes every clip to [0]."""
    config = config or tiny_config()
    model = TranscriptionModel(config.model)
    return Checkpoint(
        config=config,
        params={k: v.copy() for k, v in model.parameters().items()},
        buffers={k: v.copy() for k, v in model.buffers().items()},
    )


def evaluate_exact(checkpoint, samples):
    """Fraction of samples whose ``predict_ids`` decode equals the label."""
    transcriber = checkpoint.transcriber()
    hits = sum(predict_ids(transcriber, s.features) == s.label for s in samples)
    return hits / len(samples)


class TestEvaluateExact:
    def test_all_correct(self):
        checkpoint = zero_model_checkpoint()
        samples = toy_samples(6)
        for s in samples:
            s.label = [0]
        assert evaluate_exact(checkpoint, samples) == 1.0

    def test_none_correct(self):
        checkpoint = zero_model_checkpoint()
        samples = toy_samples(6)
        for s in samples:
            s.label = [1]
        assert evaluate_exact(checkpoint, samples) == 0.0

    def test_order_invariant(self):
        checkpoint = zero_model_checkpoint()
        samples = toy_samples(6)
        for i, s in enumerate(samples):
            s.label = [0] if i % 2 else [1]
        forward = evaluate_exact(checkpoint, samples)
        backward = evaluate_exact(checkpoint, samples[::-1])
        assert forward == backward == 0.5


class TestInfer:
    def infer_config(self):
        return tiny_config(norm=FeatureNorm(mean=-11.48, std=80.30))

    def test_corrupt_wav_tagged_decode_stage(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        checkpoint = zero_model_checkpoint(self.infer_config())
        with pytest.raises(StageError) as err:
            infer(checkpoint.transcriber(), bad)
        assert err.value.stage == "decode_wav"
        assert isinstance(err.value.__cause__, dsp.CorruptHeaderError)

    def test_missing_file_tagged_decode_stage(self, tmp_path):
        checkpoint = zero_model_checkpoint(self.infer_config())
        with pytest.raises(StageError) as err:
            infer(checkpoint.transcriber(), tmp_path / "absent.wav")
        assert err.value.stage == "decode_wav"

    def test_short_clip_padded_and_processed(self, tmp_path):
        # 0.5 s clip runs through the whole chain without error
        clip = dsp.AudioClip(16000, np.zeros(8000))
        wav = tmp_path / "short.wav"
        wav.write_bytes(dsp.encode_wav(clip))
        checkpoint = zero_model_checkpoint(self.infer_config())
        seq, text = infer(checkpoint.transcriber(), wav)
        assert [p.symbol for p in seq] == ["i"]  # zero weights argmax class 0
        assert text == "i"

    def test_other_sample_rate_resampled(self, tmp_path):
        clip = dsp.AudioClip(48000, np.zeros(48000))
        wav = tmp_path / "x.wav"
        wav.write_bytes(dsp.encode_wav(clip))
        checkpoint = zero_model_checkpoint(self.infer_config())
        seq, _ = infer(checkpoint.transcriber(), wav)
        assert [p.symbol for p in seq] == ["i"]

    def test_stages_name_every_step(self, tmp_path, monkeypatch):
        wav = tmp_path / "x.wav"
        wav.write_bytes(dsp.encode_wav(dsp.AudioClip(16000, np.zeros(16000))))
        transcriber = zero_model_checkpoint(self.infer_config()).transcriber()
        for stage, owner in [("resample", dsp), ("fix_length", dsp),
                             ("mfcc", dsp), ("standardize", dsp),
                             ("greedy_decode", ctc)]:
            with monkeypatch.context() as m:
                m.setattr(owner, stage, lambda *a, **k: 1 / 0)
                with pytest.raises(StageError) as err:
                    infer(transcriber, wav)
            assert err.value.stage == stage
            assert isinstance(err.value.__cause__, ZeroDivisionError)


class TestWavFeatures:
    def test_long_clip_matches_the_uncut_pipeline(self, tmp_path):
        rng = np.random.default_rng(7)
        clip = dsp.AudioClip(44100, rng.uniform(-0.5, 0.5, 3 * 44100))
        wav = tmp_path / "x.wav"
        wav.write_bytes(dsp.encode_wav(clip))
        decoded = dsp.decode_wav(wav.read_bytes())
        want = dsp.mfcc(dsp.fix_length(dsp.resample(decoded, 16000), 2.0))
        assert wav_features(wav).tobytes() == want.tobytes()

    def test_mislabelled_rate_resamples_only_the_kept_clip(self, tmp_path,
                                                           monkeypatch):
        # 1,000 samples under a header that claims 1 Hz: resampling all of
        # them would compute 16M output samples to keep 32,000.
        clip = dsp.AudioClip(1, np.random.default_rng(8).uniform(-1, 1, 1000))
        wav = tmp_path / "x.wav"
        wav.write_bytes(dsp.encode_wav(clip))
        computed = []
        original = dsp._resampled_block

        def counting(x, positions, cutoff):
            computed.append(len(positions))
            return original(x, positions, cutoff)

        monkeypatch.setattr(dsp, "_resampled_block", counting)
        assert wav_features(wav).shape == (198, 40)
        assert sum(computed) == 32000
