import csv
import dataclasses
import json
import os
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY_MODEL
from phonoscribe import analysis, cli, corpus, dsp
from phonoscribe.cli import main
from phonoscribe.ipa import INVENTORY
from phonoscribe.training import THREAD_VARS, Checkpoint, TrainConfig
from phonoscribe.nn import (INPUT_WIDTH, AdamW, ModelConfig, TranscriptionModel,
                            load_checkpoint, save_checkpoint)

BONJOUR_AUDIO = "LL-Q150 (fra)-LoquaxFR-bonjour.wav"


def write_manifest(path, rows):
    lines = ["word,language,ipa_list,audio_list"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(args):
    return main([str(a) for a in args])


class TestFilterCommand:
    def test_bonjour_kept(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [f'bonjour,fra,bɔ̃ʒuʁ,"{BONJOUR_AUDIO}"'])
        out = tmp_path / "kept.csv"
        stats = tmp_path / "stats.json"
        code = run(["filter", "--manifest", manifest, "--out", out,
                    "--stats", stats])
        assert code == 0
        kept = corpus.read_samples_csv(out)
        assert kept[0].word == "bonjour"
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept_count"] == 1
        assert json.loads(stats.read_text())["kept_count"] == 1

    def test_empty_manifest_exits_zero(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [])
        out = tmp_path / "kept.csv"
        assert run(["filter", "--manifest", manifest, "--out", out]) == 0
        assert corpus.read_samples_csv(out) == []

    def test_audio_name_with_a_slash_is_rejected(self, tmp_path, capsys):
        # a Commons file name holds no "/", so a pair with one is counted
        # under ll_audio and the kept-samples CSV always reads back
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            f'bonjour,fra,bɔ̃ʒuʁ,"{BONJOUR_AUDIO}|LL-Q150 (fra)-A/../../x.wav'
            '|LL-Q150 (fra)-B-a\0/b.wav"'])
        out = tmp_path / "kept.csv"
        assert run(["filter", "--manifest", manifest, "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept_count"] == 1
        assert payload["rejected_by_rule"]["ll_audio"] == 2
        assert [s.audio_filename for s in corpus.read_samples_csv(out)] == \
            [BONJOUR_AUDIO]

    def test_rejections_still_exit_zero(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, ["hello,eng,ku,LL-x (eng)-A-hello.wav"])
        out = tmp_path / "kept.csv"
        assert run(["filter", "--manifest", manifest, "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rejected_by_rule"]["language"] == 1

    def test_oversized_field_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, ["x" * (csv.field_size_limit() + 1) + ",fra,a,b"])
        assert run(["filter", "--manifest", manifest,
                    "--out", tmp_path / "kept.csv"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("manifest error: line 2: ")

    def test_parse_failure_exits_two(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, ["only,two"])
        assert run(["filter", "--manifest", manifest,
                    "--out", tmp_path / "kept.csv"]) == 2

    def test_ten_record_fixture_stats(self, tmp_path, capsys):
        rows = [
            "clean1,fra,wi,LL-Q150 (fra)-A-c1.wav",
            "english,eng,wi,LL-Q150 (eng)-A-e.wav",
            "clean2,fra,ku,LL-Q150 (fra)-B-c2.wav",
            "twoipa,fra,ku|kut,LL-Q150 (fra)-A-t.wav",
            "clean3,fra,ato,LL-Q150 (fra)-C-c3.wav",
            "badsymbol,fra,bra,LL-Q150 (fra)-A-b.wav",
            "clean4,fra,bɔ̃ʒuʁ,LL-Q150 (fra)-D-c4.wav",
            "toolong,fra,abababababababababab,LL-Q150 (fra)-A-l.wav",
            "clean5,fra,sa,LL-Q150 (fra)-E-c5.wav",
            "notll,fra,wi,notll.wav",
        ]
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, rows)
        code = run(["filter", "--manifest", manifest,
                    "--out", tmp_path / "kept.csv"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input_count"] == 10
        assert payload["kept_count"] == 5
        assert payload["rejected_by_rule"] == {
            "language": 1, "single_ipa": 1, "inventory": 1,
            "length": 1, "ll_audio": 1,
        }


def sample_csv(tmp_path, filenames):
    rows = [corpus.SampleRecord(f"w{i}", name, corpus.tokenize_ipa("wi"), "A")
            for i, name in enumerate(filenames)]
    path = tmp_path / "samples.csv"
    corpus.write_samples_csv(path, rows)
    return path


class TestFetchCommand:
    def test_all_cached_downloads_nothing(self, tmp_path, capsys, monkeypatch):
        def explode(url):
            raise AssertionError("network touched")

        monkeypatch.setattr(corpus, "_urllib_transport", explode)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "a.wav").write_bytes(b"x")
        samples = sample_csv(tmp_path, ["a.wav"])
        assert run(["fetch", "--samples", samples, "--cache", cache]) == 0
        assert capsys.readouterr().out == "CACHED\ta.wav\n"

    def test_audio_listed_twice_fetched_once(self, tmp_path, capsys,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(corpus, "_urllib_transport",
                            lambda url: calls.append(url) or b"RIFFdata")
        cache = tmp_path / "cache"
        samples = sample_csv(tmp_path, [BONJOUR_AUDIO, BONJOUR_AUDIO])
        assert run(["fetch", "--samples", samples, "--cache", cache]) == 0
        assert capsys.readouterr().out == f"OK\t{BONJOUR_AUDIO}\n"
        assert len(calls) == 1

    def test_404_listed_in_failures(self, tmp_path, capsys, monkeypatch):
        calls = []

        def not_found(url):
            calls.append(url)
            raise corpus.HttpError(404, url)

        monkeypatch.setattr(corpus, "_urllib_transport", not_found)
        monkeypatch.setattr(corpus, "FETCH_BACKOFF_SECONDS", 0)
        cache = tmp_path / "cache"
        samples = sample_csv(tmp_path, ["missing.wav"])
        code = run(["fetch", "--samples", samples, "--cache", cache])
        assert code == 1
        assert "FAIL\tmissing.wav" in capsys.readouterr().out
        failures = json.loads((cache / "failures.json").read_text())
        assert failures[0]["filename"] == "missing.wav"
        assert len(calls) == corpus.FETCH_ATTEMPTS

    def test_download_written_under_verbatim_name(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(corpus, "_urllib_transport",
                            lambda url: b"RIFFdata")
        cache = tmp_path / "cache"
        samples = sample_csv(tmp_path, [BONJOUR_AUDIO])
        assert run(["fetch", "--samples", samples, "--cache", cache]) == 0
        assert (cache / BONJOUR_AUDIO).read_bytes() == b"RIFFdata"
        assert f"OK\t{BONJOUR_AUDIO}" in capsys.readouterr().out

    def test_line_break_in_a_file_name_stays_one_line(self, tmp_path, capsys,
                                                      monkeypatch):
        # a quoted CSV field may hold a line break; each status stays one line
        def transport(url):
            if "e%0Af.wav" in url:
                raise corpus.HttpError(404, url)
            return b"RIFFdata"

        monkeypatch.setattr(corpus, "_urllib_transport", transport)
        monkeypatch.setattr(corpus, "FETCH_BACKOFF_SECONDS", 0)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "a\nb.wav").write_bytes(b"x")
        samples = tmp_path / "samples.csv"
        samples.write_text("word,audio,ipa,speaker\n" + "".join(
            f'w,"{name}",wi,A\n' for name in ("a\nb.wav", "c\nd.wav", "e\nf.wav")))
        assert run(["fetch", "--samples", samples, "--cache", cache]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["CACHED\ta\\nb.wav", "OK\tc\\nd.wav"]
        assert lines[2].startswith("FAIL\te\\nf.wav\tHTTP 404 for ")
        assert len(lines) == 3
        assert (cache / "c\nd.wav").read_bytes() == b"RIFFdata"

    @pytest.mark.parametrize("rate_limit", ["0", "0.25", "1e-3", "86400"])
    def test_rate_limit_in_range_sets_the_interval(
            self, tmp_path, capsys, monkeypatch, rate_limit):
        intervals = []

        class Recorder(corpus.Fetcher):
            def __init__(self, min_interval):
                intervals.append(min_interval)
                super().__init__(min_interval=min_interval)

        monkeypatch.setattr(corpus, "Fetcher", Recorder)
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "a.wav").write_bytes(b"x")
        samples = sample_csv(tmp_path, ["a.wav"])
        assert run(["fetch", "--samples", samples, "--cache", cache,
                    "--rate-limit", rate_limit]) == 0
        assert intervals == [float(rate_limit)]
        assert capsys.readouterr().out == "CACHED\ta.wav\n"

    @pytest.mark.parametrize("rate_limit",
                             ["inf", "-inf", "1e400", "nan", "-1", "-0.5",
                              "1e10", "86400.5"])
    def test_rate_limit_out_of_range_exits_two(
            self, tmp_path, capsys, rate_limit):
        # The samples CSV does not exist, so reading it would exit 1.
        with pytest.raises(SystemExit) as err:
            run(["fetch", "--samples", tmp_path / "missing.csv",
                 "--cache", tmp_path / "cache", f"--rate-limit={rate_limit}"])
        assert err.value.code == 2
        assert "must be finite and 0 or more" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


def make_wav(path, seconds=2.0, rate=16000, freq=440.0):
    t = np.arange(round(seconds * rate)) / rate
    clip = dsp.AudioClip(rate, 0.5 * np.sin(2 * np.pi * freq * t))
    path.write_bytes(dsp.encode_wav(clip))


# (block, field, value, message): config settings that `train` rejects
# before it reads a sample.
INVALID_SETTINGS = [
    ("modle", "lstm_units", 8, "unknown config block(s): modle"),
    ("model", "output_classes", 40, "model output_classes must be 38"),
    ("norm", "mean", "x", "mean must be a finite number, not 'x'"),
    ("norm", "mean", None, "mean must be a finite number, not None"),
    ("norm", "std", 0, "std must be positive and finite"),
    ("norm", "std", float("inf"), "std must be positive and finite"),
    ("features", "n_mels", 2.0, "features n_mels must be 64, not 2.0"),
    ("features", "sample_rate", 0, "features sample_rate must be 16000, not 0"),
    ("features", "n_coefficients", 65, "features n_coefficients must be 40, not 65"),
    ("features", "n_mels", 128, "features n_mels must be 64, not 128"),
    ("features", "hop_seconds", 0, "features hop_seconds must be 0.01, not 0"),
    ("features", "log_floor", float("nan"), "features log_floor must be 1e-10, not nan"),
    ("features", "hop_seconds", 1e-5, "features hop_seconds must be 0.01, not 1e-05"),
    ("features", "window_seconds", 0.05,
     "features window_seconds must be 0.025, not 0.05"),
    ("features", "clip_seconds", 0.01, "features clip_seconds must be 2.0, not 0.01"),
]


def invalid_config_file(tmp_path, block, field, value):
    config = json.loads(tiny_config_file(tmp_path).read_text())
    config["norm"] = {"mean": 0.0, "std": 1.0}
    config.setdefault(block, {})[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    return path


class TestFeaturizeCommand:
    def test_writes_features_and_computed_norm(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        make_wav(cache / "a.wav")
        make_wav(cache / "b.wav", freq=880.0)
        samples = sample_csv(tmp_path, ["a.wav", "b.wav"])
        out = tmp_path / "features"
        code = run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "a.wav\t198x40" in lines
        features = dsp.load_features(out / "a.wav.phfm")
        assert features.shape == (198, 40)
        norm = json.loads((out / "norm.json").read_text())
        matrices = [dsp.load_features(out / f"{n}.wav.phfm") for n in "ab"]
        want = dsp.compute_norm(matrices)
        assert norm["mean"] == pytest.approx(want.mean, rel=1e-5)
        assert norm["std"] == pytest.approx(want.std, rel=1e-5)

    @pytest.mark.parametrize("option, value", [
        ("--norm", "compute"), ("--norm", "use"), ("--config", None)],
        ids=["norm-compute", "norm-use", "config"])
    def test_retired_option_exits_two(self, tmp_path, capsys, option, value):
        # featurize takes no settings: the norm is always computed, and a
        # preset pair goes in train --config's norm block
        cache = tmp_path / "cache"
        cache.mkdir()
        make_wav(cache / "a.wav")
        samples = sample_csv(tmp_path, ["a.wav"])
        with pytest.raises(SystemExit) as exit_info:
            run(["featurize", "--samples", samples, "--cache", cache,
                 "--out", tmp_path / "features",
                 option, value or tiny_config_file(tmp_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp_path / "features").exists()

    def test_non_16k_input_resampled(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        make_wav(cache / "a.wav", rate=48000)
        samples = sample_csv(tmp_path, ["a.wav"])
        out = tmp_path / "features"
        assert run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", out]) == 0
        assert dsp.load_features(out / "a.wav.phfm").shape == (198, 40)

    def test_unreadable_wav_exits_one(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "a.wav").write_bytes(b"not a wav at all")
        samples = sample_csv(tmp_path, ["a.wav"])
        assert run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", tmp_path / "features"]) == 1
        err = capsys.readouterr().err
        assert "decode_wav" in err
        assert str(cache / "a.wav") in err

    def test_line_break_in_a_file_name_stays_one_line(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text('word,audio,ipa,speaker\nw,"a\nb.wav",wi,A\n')
        assert run(["featurize", "--samples", samples, "--cache", tmp_path,
                    "--out", tmp_path / "features"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(str(tmp_path / "a\nb.wav")) in err

    def test_line_break_in_a_written_name_stays_one_line(self, tmp_path, capsys):
        make_wav(tmp_path / "a\nb.wav")
        samples = tmp_path / "samples.csv"
        samples.write_text('word,audio,ipa,speaker\nw,"a\nb.wav",wi,A\n')
        out = tmp_path / "features"
        assert run(["featurize", "--samples", samples, "--cache", tmp_path,
                    "--out", out]) == 0
        assert capsys.readouterr().out == "a\\nb.wav\t198x40\n"
        assert dsp.load_features(out / "a\nb.wav.phfm").shape == (198, 40)

    def test_empty_wav_at_any_rate_is_two_seconds_of_silence(self, tmp_path,
                                                            capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        for name, rate in (("a.wav", 16000), ("b.wav", 44100)):
            (cache / name).write_bytes(dsp.encode_wav(dsp.AudioClip(rate, np.zeros(0))))
        samples = sample_csv(tmp_path, ["a.wav", "b.wav"])
        out = tmp_path / "features"
        assert run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", out]) == 0
        assert capsys.readouterr().out == "a.wav\t198x40\nb.wav\t198x40\n"
        silence = dsp.mfcc(dsp.AudioClip(16000, np.zeros(32000))).astype("<f4")
        for name in ("a.wav", "b.wav"):
            assert np.array_equal(dsp.load_features(out / f"{name}.phfm"), silence)


def nonfinite_features(value):
    """A 12-frame matrix at the model's width holding one ``value``."""
    features = np.zeros((12, INPUT_WIDTH), "<f4")
    features[5, 7] = value
    return features.tobytes()


# (T, C) header and payload of feature files that train and eval reject
MALFORMED_FEATURES = [((2**31, 2**31), b""), ((1, 2), b"\0" * 5),
                      ((12, INPUT_WIDTH), nonfinite_features(np.nan)),
                      ((12, INPUT_WIDTH), nonfinite_features(-np.inf))]
MALFORMED_FEATURE_IDS = ["huge", "ragged", "nan", "inf"]


def featurized_fixture(tmp_path, words=("wi", "ku", "sa", "ato")):
    """Samples CSV + feature dir with random features for tiny models."""
    rows = []
    features_dir = tmp_path / "features"
    features_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    for i, text in enumerate(words):
        name = f"w{i}.wav"
        rows.append(corpus.SampleRecord(f"w{i}", name,
                                        corpus.tokenize_ipa(text), "A"))
        dsp.save_features(features_dir / f"{name}.phfm",
                          rng.normal(size=(12, INPUT_WIDTH)).astype(np.float32))
    path = tmp_path / "samples.csv"
    corpus.write_samples_csv(path, rows)
    (features_dir / "norm.json").write_text('{"mean": 0.0, "std": 1.0}')
    return path, features_dir


def tiny_config_file(tmp_path):
    config = {
        "train": {"batch_size": 2, "epochs": 1, "eval_batches": 1, "seed": 5,
                  "lr": 1e-3},
        "model": dataclasses.asdict(TINY_MODEL),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestTrainCommand:
    def test_zero_epochs_emits_init_checkpoint(self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        run_dir = tmp_path / "run"
        code = run(["train", "--features", features, "--samples", samples,
                    "--run-dir", run_dir, "--config", tiny_config_file(tmp_path),
                    "--epochs", 0])
        assert code == 0
        assert (run_dir / "epoch_0.phck").exists()

    def test_prints_metrics_lines_and_is_reproducible(self, tmp_path, capsys):
        samples, features = featurized_fixture(tmp_path)
        config = tiny_config_file(tmp_path)
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", first, "--config", config]) == 0
        out = capsys.readouterr().out
        entry = json.loads(out.splitlines()[0])
        assert entry["epoch"] == 1
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", second, "--config", config]) == 0
        assert (first / "metrics.jsonl").read_bytes() == \
            (second / "metrics.jsonl").read_bytes()
        assert (first / "epoch_1.phck").read_bytes() == \
            (second / "epoch_1.phck").read_bytes()

    def test_flag_overrides_config_file(self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        run_dir = tmp_path / "run"
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", run_dir, "--config", tiny_config_file(tmp_path),
                    "--epochs", 2]) == 0
        assert (run_dir / "epoch_2.phck").exists()
        written = json.loads((run_dir / "config.json").read_text())
        assert written["epochs"] == 2

    def test_config_norm_block_overrides_norm_file(self, tmp_path):
        # featurize always writes a computed norm.json; a preset pair goes
        # in the config's norm block
        samples, features = featurized_fixture(tmp_path)
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config["norm"] = {"mean": -11.48, "std": 80.30}
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(config))
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run", "--config", path]) == 0
        checkpoint = Checkpoint.load(tmp_path / "run" / "epoch_1.phck")
        assert checkpoint.config.norm == dsp.DEFAULT_NORM

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        config = tiny_config_file(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", config]
        straight = tmp_path / "straight"
        assert run(common + ["--run-dir", straight, "--epochs", 2]) == 0
        halves = tmp_path / "halves"
        assert run(common + ["--run-dir", halves, "--epochs", 1]) == 0
        assert run(common + ["--run-dir", halves, "--epochs", 2,
                             "--resume", halves / "epoch_1.phck"]) == 0
        assert (straight / "epoch_2.phck").read_bytes() == \
            (halves / "epoch_2.phck").read_bytes()

    @pytest.mark.parametrize("recorded, warning", [
        ("same", None),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}, "OMP_NUM_THREADS='1', now '2'"),
        ({"OPENBLAS_NUM_THREADS": "4", "BLIS_NUM_THREADS": "8"},
         "BLIS_NUM_THREADS='8', now None"),
        ({"OPENBLAS_NUM_THREADS": None}, "OPENBLAS_NUM_THREADS=None, now '4'"),
        ({}, None),
        (["OPENBLAS_NUM_THREADS"], None),
        ("missing", None),
    ], ids=["same", "changed", "set-then", "unset-then", "no-keys", "list",
            "missing"])
    def test_resume_warns_when_a_thread_variable_changed(
            self, tmp_path, capsys, monkeypatch, recorded, warning):
        # a key the record lacks is not compared; without a record, nothing is
        for name in THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path)]
        assert run(common + ["--run-dir", tmp_path / "base"]) == 0
        meta, arrays = load_checkpoint(tmp_path / "base" / "epoch_1.phck")
        if recorded == "missing":
            del meta["thread_vars"]
        elif recorded != "same":
            meta["thread_vars"] = recorded
        edited = tmp_path / "edited.phck"
        save_checkpoint(edited, meta, arrays)
        outputs = []
        for name, checkpoint in (("plain", tmp_path / "base" / "epoch_1.phck"),
                                 ("edited", edited)):
            shutil.copytree(tmp_path / "base", tmp_path / name)
            capsys.readouterr()
            assert run(common + ["--run-dir", tmp_path / name, "--epochs", 2,
                                 "--resume", checkpoint]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1].out == outputs[0].out
        for name in ("epoch_2.phck", "metrics.jsonl"):
            assert (tmp_path / "edited" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()
        assert outputs[0].err.startswith("trained 1 epoch(s)")
        assert outputs[0].err.count("\n") == 1
        *warned, trained = outputs[1].err.splitlines()
        assert trained.startswith("trained 1 epoch(s)")
        assert warned == ([] if warning is None else [
            f"warning: {edited} was saved with {warning}; the resumed run may "
            "not replay the uninterrupted one"])

    def test_resume_into_longer_run_keeps_each_epoch_once(self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path), "--epochs", 3]
        straight = tmp_path / "straight"
        assert run(common + ["--run-dir", straight]) == 0
        resumed = tmp_path / "resumed"
        shutil.copytree(straight, resumed)
        assert run(common + ["--run-dir", resumed,
                             "--resume", resumed / "epoch_1.phck"]) == 0
        assert (resumed / "metrics.jsonl").read_bytes() == \
            (straight / "metrics.jsonl").read_bytes()

    def test_resume_over_foreign_metrics_exits_one(self, tmp_path, capsys):
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path),
                  "--run-dir", tmp_path / "run"]
        assert run(common) == 0
        (tmp_path / "run" / "metrics.jsonl").write_text('{"step": 1}\n')
        capsys.readouterr()
        assert run(common + ["--epochs", 2, "--resume",
                             tmp_path / "run" / "epoch_1.phck"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "metrics.jsonl: not a metrics file" in err

    @pytest.mark.parametrize("edit", ["missing", "short", "none"])
    def test_bad_optimizer_state_exits_one(self, tmp_path, capsys, edit):
        # "none" is a checkpoint saved without its opt/ arrays: resuming
        # from it with fresh moments would not replay the run.
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path),
                  "--run-dir", tmp_path / "run"]
        assert run(common) == 0
        checkpoint = Checkpoint.load(tmp_path / "run" / "epoch_1.phck")
        optimizer = dict(checkpoint.optimizer)
        if edit == "missing":
            del optimizer["m/out.b"]
        elif edit == "short":
            optimizer["m/out.b"] = np.zeros(1, np.float32)
        else:
            optimizer = None
        path = tmp_path / "bad.phck"
        dataclasses.replace(checkpoint, optimizer=optimizer).save(path)
        written = sorted((tmp_path / "run").iterdir())
        metrics = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        assert run(common + ["--epochs", 2, "--resume", path]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ")
        assert ("no optimizer state" if edit == "none" else "m/out.b") in err
        assert sorted((tmp_path / "run").iterdir()) == written
        assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == metrics

    @pytest.mark.parametrize("block, key, value, field", [
        ("train", "seed", 6, "seed"),
        ("train", "batch_size", 1, "batch_size"),
        ("model", "lstm_units", 6, "model.lstm_units"),
    ])
    def test_resume_from_another_run_exits_two(self, tmp_path, capsys, block,
                                               key, value, field):
        samples, features = featurized_fixture(tmp_path)
        config = tiny_config_file(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--run-dir", tmp_path / "run"]
        assert run(common + ["--config", config]) == 0
        other = json.loads(config.read_text())
        other[block][key] = value
        config.write_text(json.dumps(other))
        metrics = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        assert run(common + ["--config", config, "--epochs", 2, "--resume",
                             tmp_path / "run" / "epoch_1.phck"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"has {field} " in err
        assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == metrics

    @pytest.mark.parametrize("block", ["train", "model", "norm", "features"])
    def test_unknown_config_key_exits_two(self, tmp_path, capsys, block):
        samples, features = featurized_fixture(tmp_path)
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config.setdefault(block, {})["bogus"] = 1
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(config))
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"unknown {block} key(s): bogus" in err

    @pytest.mark.parametrize("field, value", [
        ("lstm_units", "big"), ("lstm_dropout", None), ("conv_kernel", 2),
        ("conv_activation", "tanh"), ("conv_layers", -1), ("lstm_units", 2.5),
        ("conv_kernel", 3.0), ("conv_batchnorm", "no"),
        ("lstm_dropout", False), ("lstm_dropout", "0.5")])
    def test_invalid_model_value_exits_two_before_reading_samples(
            self, tmp_path, capsys, field, value):
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config["model"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        # Neither input exists, so reading one would exit 1.
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "invalid model block" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", "big", "batch_size must be an integer >= 1"),
        ("batch_size", True, "batch_size must be an integer >= 1"),
        ("batch_size", 2.0, "batch_size must be an integer >= 1"),
        ("batch_size", 0, "batch_size must be an integer >= 1"),
        ("epochs", -1, "epochs must be an integer >= 0"),
        ("eval_batches", 0, "eval_batches must be an integer >= 1"),
        ("seed", -1, "seed must be an integer >= 0"),
        ("lr", 0, "lr must be positive and finite"),
        ("lr", -1e-3, "lr must be positive and finite"),
        ("lr", float("inf"), "lr must be positive and finite"),
        ("lr", float("nan"), "lr must be positive and finite"),
        ("weight_decay", -0.01, "train weight_decay must be 0.01, not -0.01"),
        ("stop_at_eval_accuracy", 1.5, "stop_at_eval_accuracy must be in [0, 1]"),
        ("stop_at_eval_accuracy", -0.1, "stop_at_eval_accuracy must be in [0, 1]"),
    ])
    def test_invalid_train_value_exits_two_before_reading_samples(
            self, tmp_path, capsys, field, value, message):
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config["train"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        # Neither input exists, so reading one would exit 1.
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "invalid train block" in err and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("block, field, value, message", INVALID_SETTINGS)
    def test_invalid_config_exits_two_before_reading_samples(
            self, tmp_path, capsys, block, field, value, message):
        path = invalid_config_file(tmp_path, block, field, value)
        # Neither input exists, so reading one would exit 1.
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "run").exists()

    def test_invalid_train_flag_exits_two(self, tmp_path, capsys):
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--batch-size", 0]) == 2
        assert "batch_size must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("config_json, message", [
        ({"model": 5}, "the model block must be a JSON object, not int"),
        ({"features": 5}, "the features block must be a JSON object, not int"),
        ({"train": [1]}, "the train block must be a JSON object, not list"),
        ({"norm": None}, "the norm block must be a JSON object, not NoneType"),
        ([1, 2], "must be a JSON object, not list"),
        ("{bad", "is not JSON"),
    ], ids=["block-int", "features-int", "train-list", "norm-null", "file-list",
            "not-json"])
    def test_non_object_config_exits_two(self, tmp_path, capsys, config_json,
                                         message):
        samples, features = featurized_fixture(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(config_json if isinstance(config_json, str)
                        else json.dumps(config_json))
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"],
                             ids=["not-json", "not-utf8"])
    def test_malformed_norm_file_exits_one_naming_it(self, tmp_path, capsys,
                                                     content):
        samples, features = featurized_fixture(tmp_path)
        (features / "norm.json").write_bytes(content)
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run",
                    "--config", tiny_config_file(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: {features / 'norm.json'} is not JSON: " in err

    @pytest.mark.parametrize("norm, message", [
        ([1], "the norm block must be a JSON object, not list"),
        ({"mean": 0}, "missing 1 required positional argument: 'std'"),
        ({"mean": 0, "std": -1}, "std must be positive and finite"),
        ({"mean": 0, "std": 1, "scale": 2}, "unknown norm key(s): scale"),
        ({"mean": 0, "std": 1, "a\nb": 2}, "unknown norm key(s): a\\nb"),
    ], ids=["list", "no-std", "negative-std", "extra-key", "line-break-key"])
    def test_invalid_norm_file_exits_one_naming_it(self, tmp_path, capsys,
                                                   norm, message):
        samples, features = featurized_fixture(tmp_path)
        (features / "norm.json").write_text(json.dumps(norm))
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run",
                    "--config", tiny_config_file(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            f"error: {features / 'norm.json'} is not a norm file: ")
        assert message in err
        assert not (tmp_path / "run").exists()

    def test_feature_width_mismatch_exits_one_before_writing(self, tmp_path,
                                                             capsys):
        samples, features = featurized_fixture(tmp_path)
        for name in ("w2.wav.phfm", "w3.wav.phfm"):
            dsp.save_features(features / name, np.zeros((12, 5), np.float32))
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run",
                    "--config", tiny_config_file(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {features / 'w2.wav.phfm'}: 5 coefficients "
                       "per frame, the model reads 40\n")
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("header, payload", MALFORMED_FEATURES,
                             ids=MALFORMED_FEATURE_IDS)
    def test_malformed_feature_payload_exits_one_before_writing(
            self, tmp_path, capsys, header, payload):
        samples, features = featurized_fixture(tmp_path)
        path = features / "w1.wav.phfm"
        path.write_bytes(struct.pack("<4sHII", b"PHFM", 1, *header) + payload)
        assert run(["train", "--features", features, "--samples", samples,
                    "--run-dir", tmp_path / "run",
                    "--config", tiny_config_file(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ")
        assert not (tmp_path / "run").exists()


def zero_checkpoint(tmp_path):
    config = TrainConfig(model=TINY_MODEL, norm=dsp.FeatureNorm(0.0, 1.0))
    model = TranscriptionModel(config.model)
    checkpoint = Checkpoint(
        config=config,
        params={k: v.copy() for k, v in model.parameters().items()},
        buffers={k: v.copy() for k, v in model.buffers().items()},
    )
    path = tmp_path / "model.phck"
    checkpoint.save(path)
    return path


class TestEvalCommand:
    def test_report_bundle_and_accuracy(self, tmp_path, capsys):
        # zero weights decode everything to "i"; make the targets match
        samples, features = featurized_fixture(tmp_path, words=("i", "i"))
        checkpoint = zero_checkpoint(tmp_path)
        report_dir = tmp_path / "report"
        code = run(["eval", "--checkpoint", checkpoint, "--samples", samples,
                    "--features", features, "--report-dir", report_dir])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["exact_match_accuracy"] == 1.0
        report = json.loads((report_dir / "report.json").read_text("utf-8"))
        assert report["exact_match_accuracy"] == 1.0
        assert [r["audio_filename"] for r in report["suspects"]] == [
            "w0.wav", "w1.wav"]
        assert (report_dir / "report.md").exists()
        assert (report_dir / "confusion.csv").exists()

    def test_confusion_rows_stochastic(self, tmp_path):
        samples, features = featurized_fixture(tmp_path, words=("wi", "ku"))
        checkpoint = zero_checkpoint(tmp_path)
        report_dir = tmp_path / "report"
        run(["eval", "--checkpoint", checkpoint, "--samples", samples,
             "--features", features, "--report-dir", report_dir])
        report = json.loads((report_dir / "report.json").read_text("utf-8"))
        rows = np.array(report["confusion"]["proportions"])
        sums = rows.sum(axis=1)
        occupied = sums > 0
        assert np.abs(sums[occupied] - 1.0).max() < 1e-9


    def test_feature_width_mismatch_exits_one_naming_the_file(self, tmp_path,
                                                              capsys):
        # 8-wide features against the 40 coefficients the model reads
        samples, features = featurized_fixture(tmp_path)
        for name in ("w0.wav.phfm", "w1.wav.phfm"):
            dsp.save_features(features / name, np.zeros((12, 8), np.float32))
        report_dir = tmp_path / "report"
        code = run(["eval", "--checkpoint", zero_checkpoint(tmp_path),
                    "--samples", samples, "--features", features,
                    "--report-dir", report_dir])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {features / 'w0.wav.phfm'}: 8 coefficients per frame, "
            "the model reads 40\n")
        assert not report_dir.exists()

    def test_short_feature_header_exits_one(self, tmp_path, capsys):
        samples, features = featurized_fixture(tmp_path)
        (features / "w0.wav.phfm").write_bytes(b"PHFM\x01")
        code = run(["eval", "--checkpoint", zero_checkpoint(tmp_path),
                    "--samples", samples, "--features", features,
                    "--report-dir", tmp_path / "report"])
        assert code == 1
        assert "truncated feature header" in capsys.readouterr().err

    @pytest.mark.parametrize("header, payload", MALFORMED_FEATURES,
                             ids=MALFORMED_FEATURE_IDS)
    def test_malformed_feature_payload_exits_one(self, tmp_path, capsys,
                                                 header, payload):
        samples, features = featurized_fixture(tmp_path)
        path = features / "w1.wav.phfm"
        path.write_bytes(struct.pack("<4sHII", b"PHFM", 1, *header) + payload)
        code = run(["eval", "--checkpoint", zero_checkpoint(tmp_path),
                    "--samples", samples, "--features", features,
                    "--report-dir", tmp_path / "report"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("edit", ["short-running-mean",
                                      "missing-running-var"])
    def test_bad_running_stats_exit_one(self, tmp_path, capsys, edit):
        samples, features = featurized_fixture(tmp_path)
        checkpoint = Checkpoint.load(zero_checkpoint(tmp_path))
        buffers = dict(checkpoint.buffers)
        if edit == "short-running-mean":
            buffers["conv1_bn.running_mean"] = np.zeros(1, np.float32)
        else:
            del buffers["lstm2_bn.running_var"]
        path = tmp_path / "bad.phck"
        Checkpoint(config=checkpoint.config, params=checkpoint.params,
                   buffers=buffers).save(path)
        code = run(["eval", "--checkpoint", path, "--samples", samples,
                    "--features", features, "--report-dir", tmp_path / "report"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: ")

    def test_suspects_keep_the_full_ranking(self, tmp_path, capsys):
        # zero weights decode every clip to "i": 25 suspects at distance 2
        samples, features = featurized_fixture(tmp_path, words=("ku",) * 25)
        report_dir = tmp_path / "report"
        assert run(["eval", "--checkpoint", zero_checkpoint(tmp_path),
                    "--samples", samples, "--features", features,
                    "--report-dir", report_dir]) == 0
        capsys.readouterr()
        assert run(["suspects", "--report-dir", report_dir, "--top", 20]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        assert all(line.endswith("\tku\ti\t2") for line in lines)
        assert run(["suspects", "--report-dir", report_dir,
                    "--min-distance", 2]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 25


def checkpoint_with_optimizer(path, fill=None):
    """Random weights plus AdamW moments after one step; ``fill`` replaces
    every moment's values."""
    config = TrainConfig(model=TINY_MODEL, norm=dsp.FeatureNorm(0.0, 1.0))
    model = TranscriptionModel(config.model, rng=np.random.default_rng(11))
    optimizer = AdamW(model.parameters())
    optimizer.step({k: np.ones_like(v) for k, v in model.parameters().items()})
    state = optimizer.state_arrays()
    if fill is not None:
        state = {k: np.full_like(v, fill) for k, v in state.items()}
    Checkpoint(config=config, params=model.parameters(), buffers=model.buffers(),
               optimizer=state, optimizer_t=1, epoch=1, step=1).save(path)
    return path


class TestOptimizerStateIsNotRead:
    """``eval`` and ``infer`` print the same bytes whatever the ``opt/``
    payload of the checkpoint holds."""

    def test_eval(self, tmp_path, capsys):
        samples, features = featurized_fixture(tmp_path)
        outputs = []
        for fill in (None, np.nan):
            path = checkpoint_with_optimizer(tmp_path / f"{fill}.phck", fill)
            report_dir = tmp_path / f"report-{fill}"
            assert run(["eval", "--checkpoint", path, "--samples", samples,
                        "--features", features, "--report-dir", report_dir]) == 0
            outputs.append((capsys.readouterr().out,
                            (report_dir / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_infer(self, tmp_path, capsys):
        wavs = [tmp_path / f"{name}.wav" for name in "ab"]
        for wav, freq in zip(wavs, (300.0, 900.0)):
            make_wav(wav, freq=freq)
        outputs = []
        for fill in (None, np.nan):
            path = checkpoint_with_optimizer(tmp_path / f"{fill}.phck", fill)
            assert run(["infer", "--checkpoint", path, *wavs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestInferCommand:
    def test_files_processed_in_order(self, tmp_path, capsys):
        checkpoint = zero_checkpoint(tmp_path)
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        make_wav(first)
        make_wav(second)
        code = run(["infer", "--checkpoint", checkpoint, first, second])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(str(first) + "\t")
        assert lines[1].startswith(str(second) + "\t")

    def test_missing_file_stage_tagged_nonzero_exit(self, tmp_path, capsys):
        checkpoint = zero_checkpoint(tmp_path)
        good = tmp_path / "good.wav"
        make_wav(good)
        code = run(["infer", "--checkpoint", checkpoint,
                    tmp_path / "absent.wav", good])
        assert code == 1
        captured = capsys.readouterr()
        assert "decode_wav" in captured.err
        assert str(good) in captured.out  # later files still processed

    def test_line_break_in_a_wav_name_stays_one_line(self, tmp_path, capsys):
        checkpoint = zero_checkpoint(tmp_path)
        missing = tmp_path / "a\nb.wav"
        present = tmp_path / "c\nd.wav"
        make_wav(present)
        assert run(["infer", "--checkpoint", checkpoint, missing, present]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            repr(str(missing))[1:-1] + "\tstage 'decode_wav': ")
        assert captured.out.count("\n") == 1
        assert captured.out.startswith(repr(str(present))[1:-1] + "\t")


    def test_model_built_once_for_many_files(self, tmp_path, capsys,
                                             monkeypatch):
        checkpoint = zero_checkpoint(tmp_path)
        wavs = [tmp_path / f"{name}.wav" for name in "abc"]
        for wav in wavs:
            make_wav(wav)
        builds = []
        original = TranscriptionModel.__init__

        def counting(model, *args, **kwargs):
            builds.append(model)
            original(model, *args, **kwargs)

        monkeypatch.setattr(TranscriptionModel, "__init__", counting)
        assert run(["infer", "--checkpoint", checkpoint, *wavs]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert len(builds) == 1

    def test_checkpoint_without_train_config_exits_one(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.phck"
        save_checkpoint(checkpoint, {"blank_id": 37}, {})
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", checkpoint, wav]) == 1
        assert "train_config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("progress", [
        [1], "epoch 3", {"epoch": "3"}, {"step": -1}, {"optimizer_t": True}],
        ids=["list", "string", "string-epoch", "negative-step", "bool-t"])
    def test_bad_progress_exits_one(self, tmp_path, capsys, command, progress):
        checkpoint = tmp_path / "model.phck"
        save_checkpoint(checkpoint, {"train_config": TrainConfig().to_dict(),
                                     "progress": progress}, {})
        wav = tmp_path / "a.wav"
        make_wav(wav)
        samples, features = featurized_fixture(tmp_path)
        args = ([wav] if command == "infer" else
                ["--samples", samples, "--features", features,
                 "--report-dir", tmp_path / "report"])
        assert run([command, "--checkpoint", checkpoint, *args]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(checkpoint) in err and "progress" in err

    def test_model_too_large_to_build_exits_one(self, tmp_path, capsys):
        # The first conv weight alone, 3 x 40 x 2e12 float32, is larger than
        # the user address space, so its allocation fails before any page
        # is touched.
        train_config = TrainConfig().to_dict()
        train_config["model"]["conv_units"] = 2 * 10**12
        checkpoint = tmp_path / "big.phck"
        save_checkpoint(checkpoint, {"train_config": train_config}, {})
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", checkpoint, wav]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")

    def test_array_name_past_the_end_exits_one(self, tmp_path, capsys):
        # the name field claims 8 bytes; the file ends after the first
        # byte of a two-byte UTF-8 character
        blob = b"{}"
        checkpoint = tmp_path / "model.phck"
        checkpoint.write_bytes(
            struct.pack("<4sHI", b"PHCK", 1, len(blob)) + blob
            + struct.pack("<IH", 1, 8) + "é".encode("utf-8")[:1])
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", checkpoint, wav]) == 1
        assert capsys.readouterr().err == \
            f"error: {checkpoint}: truncated checkpoint\n"

    def test_bad_magic_exits_one_naming_the_file(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.phck"
        checkpoint.write_bytes(b"XXXX" + b"\0" * 32)
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", checkpoint, wav]) == 1
        assert capsys.readouterr().err == \
            f"error: {checkpoint}: bad magic b'XXXX'\n"


# The keys of the graph's retired sizes and switches at the value each has
# in the graph that is built, and the retired weight decay, as files of the
# earlier forms hold them.
RETIRED_TRAIN_KEYS = {"weight_decay": 0.01}
RETIRED_MODEL_KEYS = {"mfcc_coefficients": 40, "conv_layers": 2,
                      "conv_kernel": 3, "lstm_layers": 2,
                      "conv_activation": "relu", "conv_batchnorm": True,
                      "lstm_bidirectional": True, "lstm_batchnorm": True,
                      "output_classes": 38}
WRONG_RETIRED_VALUES = [
    ("conv_activation", "none"), ("conv_batchnorm", False),
    ("lstm_bidirectional", 1), ("lstm_batchnorm", None),
    ("output_classes", 40), ("output_classes", 38.0),
    ("mfcc_coefficients", 8), ("mfcc_coefficients", 40.0),
    ("conv_layers", -1), ("conv_layers", 0), ("lstm_layers", 3),
    ("conv_kernel", 2), ("conv_kernel", 1), ("conv_kernel", "3"),
    ("weight_decay", -0.01), ("weight_decay", 0), ("weight_decay", "0.01"),
    ("weight_decay", None)]


# The featurization settings at their pinned values, as files from when
# they could be set hold them.
RETIRED_FEATURE_KEYS = {"sample_rate": 16000, "clip_seconds": 2.0,
                        "window_seconds": 0.025, "hop_seconds": 0.010,
                        "n_fft": 512, "n_mels": 64, "n_coefficients": 40,
                        "log_floor": 1e-10}
WRONG_FEATURE_VALUES = [
    ("sample_rate", 8000), ("sample_rate", 16000.0), ("sample_rate", True),
    ("clip_seconds", 1.0), ("clip_seconds", "2.0"), ("window_seconds", 0.02),
    ("hop_seconds", 0.02), ("n_fft", 1024), ("n_fft", 512.0), ("n_mels", 40),
    ("n_coefficients", 13), ("log_floor", 1e-6), ("log_floor", None)]

RETIRED_BY_BLOCK = {"train": RETIRED_TRAIN_KEYS, "model": RETIRED_MODEL_KEYS,
                    "features": RETIRED_FEATURE_KEYS}


def retired_block(key):
    return next(block for block, keys in RETIRED_BY_BLOCK.items() if key in keys)


def old_form_copy(path, out, blocks=("train", "model"), **retired):
    """The checkpoint at ``path`` written to ``out`` with all the retired
    keys of ``blocks`` in its meta, ``retired`` overriding their values.
    The default blocks are those of a checkpoint written while the graph's
    sizes and the weight decay could be set."""
    meta, arrays = load_checkpoint(path)
    train_config = meta["train_config"]
    for block in blocks:
        settings = (train_config if block == "train"
                    else train_config.setdefault(block, {}))
        assert not set(RETIRED_BY_BLOCK[block]) & set(settings)
        settings.update({key: retired.pop(key, value)
                         for key, value in RETIRED_BY_BLOCK[block].items()})
    assert not retired
    save_checkpoint(out, meta, arrays)
    return out


class TestRetiredModelKeys:
    """Files from when the model block had switches and layer counts, and
    the train block a weight decay, load if each retired key holds the
    value of the graph that is built or of the decay that is used, and name
    it if not."""

    def test_old_form_config_reads_as_the_default(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "train": {"batch_size": 20, "lr": 1e-4, **RETIRED_TRAIN_KEYS},
            "model": {"conv_units": 128, "lstm_units": 512,
                      "lstm_dropout": 0.5, **RETIRED_MODEL_KEYS}}))
        assert cli.read_config(str(path), tmp_path / "norm.json", {}) == TrainConfig()

    def test_old_form_checkpoint_infers_the_same(self, tmp_path, capsys):
        config = TrainConfig(model=TINY_MODEL)
        model = TranscriptionModel(config.model, rng=np.random.default_rng(7))
        new = tmp_path / "new.phck"
        Checkpoint(config, model.parameters(), model.buffers()).save(new)
        old = old_form_copy(new, tmp_path / "old.phck")
        wav = tmp_path / "a.wav"
        make_wav(wav)
        outputs = []
        for checkpoint in (new, old):
            assert run(["infer", "--checkpoint", checkpoint, wav]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        assert outputs[0].out == outputs[1].out
        assert outputs[0].out.startswith(f"{wav}\t")

    def test_resume_from_old_form_checkpoint_matches_uninterrupted_run(
            self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path)]
        straight = tmp_path / "straight"
        assert run(common + ["--run-dir", straight, "--epochs", 2]) == 0
        halves = tmp_path / "halves"
        assert run(common + ["--run-dir", halves, "--epochs", 1]) == 0
        old = old_form_copy(halves / "epoch_1.phck", tmp_path / "old.phck")
        assert run(common + ["--run-dir", halves, "--epochs", 2,
                             "--resume", old]) == 0
        for name in ("epoch_2.phck", "metrics.jsonl"):
            assert (straight / name).read_bytes() == (halves / name).read_bytes()

    @pytest.mark.parametrize("key, value", WRONG_RETIRED_VALUES)
    def test_wrong_value_in_config_exits_two(self, tmp_path, capsys, key,
                                             value):
        block = retired_block(key)
        path = invalid_config_file(tmp_path, block, key, value)
        # Neither input exists, so reading one would exit 1.
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"invalid {block} block: {block} {key} must be " in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", WRONG_RETIRED_VALUES)
    def test_wrong_value_in_checkpoint_exits_one(self, tmp_path, capsys, key,
                                                 value):
        block = retired_block(key)
        old = old_form_copy(zero_checkpoint(tmp_path), tmp_path / "old.phck",
                            **{key: value})
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", old, wav]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(old) in captured.err
        assert f"invalid {block} block: {block} {key} must be " in captured.err


class TestRetiredFeatureKeys:
    """Files from when the featurization could be set load if each setting
    holds its pinned value, and name it if not."""

    def test_old_form_checkpoint_infers_the_same(self, tmp_path, capsys):
        config = TrainConfig(model=TINY_MODEL)
        model = TranscriptionModel(config.model, rng=np.random.default_rng(7))
        new = tmp_path / "new.phck"
        Checkpoint(config, model.parameters(), model.buffers()).save(new)
        old = old_form_copy(new, tmp_path / "old.phck", ["features"])
        wav = tmp_path / "a.wav"
        make_wav(wav)
        outputs = []
        for checkpoint in (new, old):
            assert run(["infer", "--checkpoint", checkpoint, wav]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        assert outputs[0].out == outputs[1].out
        assert outputs[0].out.startswith(f"{wav}\t")

    def test_resume_from_old_form_checkpoint_matches_uninterrupted_run(
            self, tmp_path):
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path)]
        straight = tmp_path / "straight"
        assert run(common + ["--run-dir", straight, "--epochs", 2]) == 0
        halves = tmp_path / "halves"
        assert run(common + ["--run-dir", halves, "--epochs", 1]) == 0
        old = old_form_copy(halves / "epoch_1.phck", tmp_path / "old.phck",
                            ["features"])
        assert run(common + ["--run-dir", halves, "--epochs", 2,
                             "--resume", old]) == 0
        for name in ("epoch_2.phck", "metrics.jsonl"):
            assert (straight / name).read_bytes() == (halves / name).read_bytes()

    @pytest.mark.parametrize("key, value", WRONG_FEATURE_VALUES)
    def test_wrong_value_in_config_exits_two(self, tmp_path, capsys, key,
                                             value):
        path = invalid_config_file(tmp_path, "features", key, value)
        # Neither input exists, so reading one would exit 1.
        assert run(["train", "--features", tmp_path / "missing",
                    "--samples", tmp_path / "missing.csv",
                    "--run-dir", tmp_path / "run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"invalid features block: features {key} must be " in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", WRONG_FEATURE_VALUES)
    def test_wrong_value_in_checkpoint_exits_one(self, tmp_path, capsys, key,
                                                 value):
        old = old_form_copy(zero_checkpoint(tmp_path), tmp_path / "old.phck",
                            ["features"], **{key: value})
        wav = tmp_path / "a.wav"
        make_wav(wav)
        assert run(["infer", "--checkpoint", old, wav]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(old) in captured.err
        assert f"invalid features block: features {key} must be " in captured.err

    def test_real_setting_may_be_a_json_integer(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"features": {"clip_seconds": 2, "hop_seconds": 0.01}}')
        assert cli.read_config(str(path), tmp_path / "norm.json", {}) == TrainConfig()
        new = zero_checkpoint(tmp_path)
        old = old_form_copy(new, tmp_path / "old.phck", ["features"],
                            clip_seconds=2)
        assert Checkpoint.load(old).config == Checkpoint.load(new).config


class TestNestedConfigBlocks:
    """A config file's train block holds train settings only: the blocks
    that checkpoint meta nests in it stand at the top of a config file."""

    BLOCKS = {"model": {"lstm_units": 8}, "norm": {"mean": 0.0, "std": 1.0},
              "features": {"sample_rate": 16000}}

    @pytest.mark.parametrize("also_on_top", [False, True])
    @pytest.mark.parametrize("block", ["model", "norm", "features"])
    def test_block_in_train_block_exits_two(self, tmp_path, capsys, block,
                                            also_on_top):
        config = {"train": {"seed": 1, block: self.BLOCKS[block]}}
        if also_on_top:
            config[block] = self.BLOCKS[block]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # No input exists, so reading one would exit 1.
        missing = tmp_path / "missing"
        assert run(["train", "--samples", missing, "--features", missing,
                    "--run-dir", tmp_path / "out", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown train key(s): {block}\n"
        assert not (tmp_path / "out").exists()


class TestReadmeConfigExample:
    def test_example_reads_as_the_default_config(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(example, encoding="utf-8")
        assert cli.read_config(str(path), tmp_path / "norm.json", {}) == TrainConfig()
        # A retired key at its value would read, and hide from this test.
        assert set(json.loads(example)["train"]) <= \
            {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(json.loads(example)["model"]) == \
            {f.name for f in dataclasses.fields(ModelConfig)}
        assert "features" not in json.loads(example)


class TestReadmeWorkflow:
    def test_every_command_parses(self):
        # A flag retired from the parser but left in README fails here.
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("## Workflow", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("phonoscribe ")]
        assert [c.split()[1] for c in commands] == [
            "filter", "fetch", "featurize", "train", "eval", "infer",
            "suspects", "inventory"]
        parser = cli.build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])


class TestSuspectsCommand:
    def write_report(self, tmp_path, rows):
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        (report_dir / "report.json").write_text(
            json.dumps({"suspects": rows}), encoding="utf-8")
        return report_dir

    def write_bundle(self, tmp_path, pairs):
        report_dir = tmp_path / "report"
        analysis.write_report_bundle(report_dir, analysis.build_report(pairs))
        return report_dir

    def test_top_slices(self, tmp_path, capsys):
        rows = [{"word": f"w{i}", "target_ipa": "a", "predicted_ipa": "b",
                 "distance": 10 - i} for i in range(5)]
        report_dir = self.write_report(tmp_path, rows)
        assert run(["suspects", "--report-dir", report_dir, "--top", 2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "w0\ta\tb\t10"

    def test_min_distance_zero_returns_all(self, tmp_path, capsys):
        rows = [{"word": "w", "target_ipa": "a", "predicted_ipa": "a",
                 "distance": 0}]
        report_dir = self.write_report(tmp_path, rows)
        assert run(["suspects", "--report-dir", report_dir,
                    "--min-distance", 0]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_negative_top_is_a_usage_error(self, tmp_path, capsys):
        rows = [{"word": f"w{i}", "target_ipa": "a", "predicted_ipa": "b",
                 "distance": 2 - i} for i in range(2)]
        report_dir = self.write_report(tmp_path, rows)
        with pytest.raises(SystemExit) as err:
            run(["suspects", "--report-dir", report_dir, "--top", -1])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("report", [
        {}, [1], {"suspects": 3}, {"suspects": [1]},
        {"suspects": [{"word": "w", "target_ipa": "a", "predicted_ipa": "b"}]},
        {"suspects": [{"word": "w", "target_ipa": "a", "predicted_ipa": "b",
                       "distance": "2"}]},
    ])
    def test_malformed_report_exits_one(self, tmp_path, capsys, report):
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        (report_dir / "report.json").write_text(json.dumps(report))
        assert run(["suspects", "--report-dir", report_dir,
                    "--min-distance", 1]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "report.json" in err

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"],
                             ids=["not-json", "not-utf8"])
    def test_malformed_report_file_exits_one_naming_it(self, tmp_path, capsys,
                                                       content):
        report_dir = tmp_path / "report"
        report_dir.mkdir()
        (report_dir / "report.json").write_bytes(content)
        assert run(["suspects", "--report-dir", report_dir]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"error: {report_dir / 'report.json'} is not JSON: " in err

    def test_empty_report_exits_zero(self, tmp_path, capsys):
        report_dir = self.write_report(tmp_path, [])
        assert run(["suspects", "--report-dir", report_dir]) == 0
        assert capsys.readouterr().out == ""

    def test_top10_outlier_fixture(self, tmp_path, capsys):
        # end-to-end over the report bundle: highest-distance entries of the
        # audited corpus come back in order with their distances
        from test_acceptance import TOP10

        pairs = [analysis.PredictionPair.build(
            w, f"{w}.wav", corpus.tokenize_ipa(t), corpus.tokenize_ipa(p))
            for w, t, p, _ in TOP10]
        report_dir = self.write_bundle(tmp_path, pairs)
        assert run(["suspects", "--report-dir", report_dir, "--top", 10]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "1337\tlit\tmitasɑ̃tʁɑ̃mzɔt\t13"
        assert [int(line.rsplit("\t", 1)[1]) for line in lines] == \
            [13, 11, 10, 10, 9, 9, 9, 9, 8, 8]

    def test_top_k_slices(self, tmp_path, capsys):
        from test_analysis import top10_pairs

        report_dir = self.write_bundle(tmp_path, top10_pairs())
        assert run(["suspects", "--report-dir", report_dir, "--top", 3]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_min_distance_filters(self, tmp_path, capsys):
        from test_analysis import top10_pairs

        report_dir = self.write_bundle(tmp_path, top10_pairs())
        assert run(["suspects", "--report-dir", report_dir,
                    "--min-distance", 10]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [int(line.rsplit("\t", 1)[1]) for line in lines] == [13, 11, 10, 10]

    def test_min_distance_on_exact_corpus(self, tmp_path, capsys):
        from test_analysis import pair

        report_dir = self.write_bundle(tmp_path, [pair("a", "a")])
        assert run(["suspects", "--report-dir", report_dir,
                    "--min-distance", 1]) == 0
        assert capsys.readouterr().out == ""


class TestInventoryCommand:
    def test_prints_all_rows(self, capsys):
        assert run(["inventory"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 37
        assert lines[0] == "0\ti\tU+0069"
        assert lines[14].startswith("14\tɔ̃\tU+0254 U+0303")


def samples_command(command, tmp_path, samples):
    if command == "fetch":
        return ["fetch", "--samples", samples, "--cache", tmp_path / "cache"]
    if command == "featurize":
        return ["featurize", "--samples", samples, "--cache", tmp_path,
                "--out", tmp_path / "features"]
    if command == "train":
        return ["train", "--samples", samples, "--features", tmp_path,
                "--run-dir", tmp_path / "run",
                "--config", tiny_config_file(tmp_path)]
    return ["eval", "--samples", samples, "--features", tmp_path,
            "--checkpoint", zero_checkpoint(tmp_path),
            "--report-dir", tmp_path / "report"]


# Audio names that are not plain file names: each would be read or written
# outside the directory it is joined to, or name no file in it.
NOT_PLAIN_NAMES = {"empty": '""', "dot": ".", "dot-dot": "..",
                   "parent": "../a.wav", "absolute": "/tmp/a.wav",
                   "subdirectory": "sub/a.wav", "nul": '"a\0.wav"'}


class TestBadSamplesCsv:
    @pytest.mark.parametrize("command", ["fetch", "featurize", "train", "eval"])
    @pytest.mark.parametrize("defect", ["missing", "not-utf8", "oversized-field",
                                        "unknown-ipa", *NOT_PLAIN_NAMES])
    def test_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch,
                                     command, defect):
        def explode(url):
            raise AssertionError("network touched")

        monkeypatch.setattr(corpus, "_urllib_transport", explode)
        samples = tmp_path / "samples.csv"
        header = b"word,audio,ipa,speaker\n"
        if defect == "not-utf8":
            samples.write_bytes(header + b"\xff\xfe,a.wav,wi,A\n")
        elif defect == "oversized-field":
            field = b"x" * (csv.field_size_limit() + 1)
            samples.write_bytes(header + field + b",a.wav,wi,A\n")
        elif defect == "unknown-ipa":
            samples.write_bytes(header + b"w,a.wav,qqq,A\n")
        elif defect in NOT_PLAIN_NAMES:
            samples.write_text(f"word,audio,ipa,speaker\nw,{NOT_PLAIN_NAMES[defect]},"
                               "wi,A\n", encoding="utf-8")
        argv = samples_command(command, tmp_path, samples)
        before = set(tmp_path.rglob("*"))
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        if defect == "oversized-field":
            assert err.startswith("error: line 2: ")
        if defect == "unknown-ipa":
            assert err == ("error: line 2: ipa 'qqq': unknown symbol 'q' "
                           "(U+0071) at position 0\n")
        if defect in NOT_PLAIN_NAMES:
            assert err.startswith("error: line 2: audio ")
            assert err.endswith(" is not a plain file name\n")
            assert set(tmp_path.rglob("*")) == before  # nothing written

    def test_later_row_named_by_its_line(self, tmp_path, capsys):
        samples = sample_csv(tmp_path, ["a.wav", "b/../c.wav"])
        assert run(samples_command("featurize", tmp_path, samples)) == 1
        assert capsys.readouterr().err == (
            "error: line 3: audio 'b/../c.wav' is not a plain file name\n")

    @pytest.mark.parametrize("command", ["featurize", "eval"])
    @pytest.mark.parametrize("content", ["word,audio,ipa,speaker\n",
                                         "word,audio,ipa,speaker\n\n"],
                             ids=["header-only", "blank-row"])
    def test_no_rows_named_and_nothing_written(self, tmp_path, capsys,
                                               command, content):
        samples = tmp_path / "samples.csv"
        samples.write_text(content, encoding="utf-8")
        argv = samples_command(command, tmp_path, samples)
        before = set(tmp_path.rglob("*"))
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {samples}: no samples\n"
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, code, err", [
        ("fetch", 0, ""),
        ("train", 1, "error: 0 samples cannot fill 1 eval batches plus one "
                     "train batch of 2\n")])
    def test_no_rows_elsewhere(self, tmp_path, capsys, command, code, err):
        # fetch has nothing to do; train names the count it cannot split
        samples = tmp_path / "samples.csv"
        samples.write_text("word,audio,ipa,speaker\n", encoding="utf-8")
        argv = samples_command(command, tmp_path, samples)
        before = set(tmp_path.rglob("*"))
        assert run(argv) == code
        assert capsys.readouterr() == (("", err))
        assert set(tmp_path.rglob("*")) == before


def mutation(data, raw: bytes) -> bytes:
    """``raw`` with one to four bytes overwritten, half of them within the
    first KiB (headers and meta), then possibly truncated."""
    n = len(raw)
    at = st.one_of(st.integers(0, min(n, 1024) - 1), st.integers(0, n - 1))
    mutated = bytearray(raw)
    for i, value in data.draw(st.lists(st.tuples(at, st.integers(0, 255)),
                                       min_size=1, max_size=4)):
        mutated[i] = value
    return bytes(mutated[:data.draw(st.one_of(st.just(n), st.integers(0, n)))])


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))


def corrupt_json(data, good: bytes, near_misses) -> bytes:
    """The ``mutation`` of the JSON file ``good``, or a JSON value of any
    shape, built from scalars and ``near_misses``: mutated JSON rarely
    parses, so the values are what reach past the parser."""
    if data.draw(st.booleans()):
        return mutation(data, good)
    value = data.draw(st.recursive(
        JSON_SCALARS | near_misses,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8))
    return json.dumps(value).encode("utf-8")


def assert_clean_exit(code, err, ok_lines=0):
    """Exit 0 with ``ok_lines`` stderr lines (none unless the command
    reports on success), or 1 or 2 with one stderr line."""
    if code == 0:
        lines = err.splitlines(keepends=True)
        assert len(lines) == ok_lines, err
        assert all(line.endswith("\n") for line in lines), err
    else:
        assert code in (1, 2)
        assert err.count("\n") == 1, err


class TestCorruptFiles:
    """Mutated input files end in an exit code, never in a traceback."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_infer_with_a_mutated_checkpoint(self, tmp_path, capsys, data):
        good, wav = tmp_path / "good", tmp_path / "a.wav"
        if not good.exists():
            good.mkdir()
            zero_checkpoint(good)
            make_wav(wav, seconds=0.5)
        checkpoint = tmp_path / "model.phck"
        checkpoint.write_bytes(mutation(data, (good / "model.phck").read_bytes()))
        capsys.readouterr()
        code = run(["infer", "--checkpoint", checkpoint, wav])
        assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_eval_with_a_mutated_feature_file(self, tmp_path, capsys, data):
        checkpoint = tmp_path / "model.phck"
        if not checkpoint.exists():
            featurized_fixture(tmp_path)
            zero_checkpoint(tmp_path)
        path = tmp_path / "features" / "w1.wav.phfm"
        good = path.with_suffix(".good")
        if not good.exists():
            path.rename(good)
        path.write_bytes(mutation(data, good.read_bytes()))
        capsys.readouterr()
        code = run(["eval", "--checkpoint", checkpoint,
                    "--samples", tmp_path / "samples.csv",
                    "--features", tmp_path / "features",
                    "--report-dir", tmp_path / "report"])
        assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_infer_with_a_mutated_wav(self, tmp_path, capsys, data):
        good, wav = tmp_path / "good", tmp_path / "a.wav"
        if not good.exists():
            good.mkdir()
            zero_checkpoint(good)
            make_wav(good / "a.wav", seconds=0.5)
        wav.write_bytes(mutation(data, (good / "a.wav").read_bytes()))
        capsys.readouterr()
        code = run(["infer", "--checkpoint", good / "model.phck", wav])
        assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_featurize_with_a_mutated_wav(self, tmp_path, capsys, data):
        cache, good = tmp_path / "cache", tmp_path / "good.wav"
        if not good.exists():
            cache.mkdir()
            make_wav(good, seconds=0.5)
            sample_csv(tmp_path, ["a.wav"])
        (cache / "a.wav").write_bytes(mutation(data, good.read_bytes()))
        capsys.readouterr()
        code = run(["featurize", "--samples", tmp_path / "samples.csv",
                    "--cache", cache, "--out", tmp_path / "features"])
        # On success featurize reports the norm it computed on stderr.
        assert_clean_exit(code, capsys.readouterr().err, ok_lines=1)


    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_filter_with_a_mutated_manifest(self, tmp_path, capsys, data):
        good, manifest = tmp_path / "good.csv", tmp_path / "m.csv"
        if not good.exists():
            write_manifest(good, [
                f'bonjour,fra,bɔ̃ʒuʁ,"{BONJOUR_AUDIO}"',
                "twoipa,fra,ku|kut,LL-Q150 (fra)-A-t.wav",
                "clean,fra,ato,LL-Q150 (fra)-C-c.wav",
            ])
        manifest.write_bytes(mutation(data, good.read_bytes()))
        capsys.readouterr()
        code = run(["filter", "--manifest", manifest,
                    "--out", tmp_path / "kept.csv"])
        assert_clean_exit(code, capsys.readouterr().err)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_featurize_with_a_mutated_samples_csv(self, tmp_path, capsys, data):
        cache, good = tmp_path / "cache", tmp_path / "good.csv"
        if not good.exists():
            cache.mkdir()
            make_wav(cache / "a.wav", seconds=0.5)
            make_wav(cache / "b.wav", seconds=0.5, freq=880.0)
            sample_csv(tmp_path, ["a.wav", "b.wav"]).rename(good)
        samples = tmp_path / "samples.csv"
        samples.write_bytes(mutation(data, good.read_bytes()))
        capsys.readouterr()
        code = run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", tmp_path / "features"])
        assert_clean_exit(code, capsys.readouterr().err, ok_lines=1)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_with_a_mutated_config(self, tmp_path, capsys, data):
        good, run_dir = tmp_path / "good.json", tmp_path / "run"
        if not good.exists():
            featurized_fixture(tmp_path)
            tiny_config_file(tmp_path).rename(good)
        config = tmp_path / "config.json"
        config.write_bytes(mutation(data, good.read_bytes()))
        shutil.rmtree(run_dir, ignore_errors=True)
        capsys.readouterr()
        code = run(["train", "--features", tmp_path / "features",
                    "--samples", tmp_path / "samples.csv",
                    "--run-dir", run_dir, "--config", config])
        # On success train reports its epochs and run dir on stderr.
        assert_clean_exit(code, capsys.readouterr().err, ok_lines=1)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_train_with_a_corrupt_norm_file(self, tmp_path, capsys, data):
        norm, good, run_dir = (tmp_path / "features" / "norm.json",
                               tmp_path / "good.json", tmp_path / "run")
        if not good.exists():
            featurized_fixture(tmp_path)
            tiny_config_file(tmp_path)
            norm.rename(good)
        number = st.one_of(JSON_SCALARS, st.floats(-3, 3))
        near_misses = st.dictionaries(
            st.sampled_from(["mean", "std", "scale"]), number, max_size=3)
        norm.write_bytes(corrupt_json(data, good.read_bytes(), near_misses))
        shutil.rmtree(run_dir, ignore_errors=True)
        capsys.readouterr()
        code = run(["train", "--features", tmp_path / "features",
                    "--samples", tmp_path / "samples.csv",
                    "--run-dir", run_dir, "--config", tmp_path / "config.json"])
        assert_clean_exit(code, capsys.readouterr().err, ok_lines=1)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_suspects_with_a_corrupt_report(self, tmp_path, capsys, data):
        report_dir, good = tmp_path / "report", tmp_path / "good.json"
        if not good.exists():
            target = [INVENTORY[i] for i in (1, 2, 3)]
            analysis.write_report_bundle(report_dir, analysis.build_report([
                analysis.PredictionPair.build(word=f"w{i}",
                                              audio_filename=f"w{i}.wav",
                                              target=target,
                                              predicted=target[:i])
                for i in range(3)]))
            (report_dir / "report.json").rename(good)
        field = st.one_of(JSON_SCALARS, st.text(max_size=3), st.integers(-2, 5))
        row = st.fixed_dictionaries(
            {}, optional={k: field for k in cli.SUSPECT_FIELDS})
        near_misses = st.fixed_dictionaries({"suspects": st.lists(row, max_size=3)})
        (report_dir / "report.json").write_bytes(
            corrupt_json(data, good.read_bytes(), near_misses))
        capsys.readouterr()
        code = run(["suspects", "--report-dir", report_dir, "--top", 2])
        assert_clean_exit(code, capsys.readouterr().err)


def float32_wav(path, bad):
    """A 1 s float32 WAV holding one ``bad`` sample and one infinity."""
    from test_dsp import pcm16_wav

    samples = 0.5 * np.sin(np.arange(16000) / 8.0)
    samples[100], samples[8000] = bad, np.inf
    path.write_bytes(pcm16_wav(samples, audio_format=3, bits=32))


class TestNonFiniteWav:
    """A float32 WAV with a NaN or infinite sample is rejected at
    ``decode_wav``, so no non-finite feature is written."""

    def test_featurize_exits_one_naming_the_file(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        float32_wav(cache / "a.wav", np.nan)
        samples = sample_csv(tmp_path, ["a.wav"])
        code = run(["featurize", "--samples", samples, "--cache", cache,
                    "--out", tmp_path / "features"])
        err = capsys.readouterr().err
        assert_clean_exit(code, err)
        assert code == 1
        assert str(cache / "a.wav") in err and "NaN or infinite" in err
        assert not (tmp_path / "features" / "a.wav.phfm").exists()

    def test_infer_exits_one(self, tmp_path, capsys):
        checkpoint = zero_checkpoint(tmp_path)
        wav = tmp_path / "a.wav"
        float32_wav(wav, -np.inf)
        code = run(["infer", "--checkpoint", checkpoint, wav])
        captured = capsys.readouterr()
        assert_clean_exit(code, captured.err)
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"{wav}\tstage 'decode_wav': ")


def with_array_value(checkpoint, key, value):
    """Rewrite ``checkpoint`` with the first value of array ``key`` set to
    ``value``."""
    meta, arrays = load_checkpoint(checkpoint)
    arrays = {name: array.copy() for name, array in arrays.items()}
    arrays[key].flat[0] = value
    save_checkpoint(checkpoint, meta, arrays)


class TestNonFiniteCheckpoint:
    """A checkpoint array holding a NaN or an infinity is rejected as it is
    copied into the model or optimizer, naming the file."""

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("key, value, array", [
        ("param/conv1.w", np.nan, "parameter conv1.w"),
        ("buffer/conv1_bn.running_var", np.inf, "buffer conv1_bn.running_var")])
    def test_eval_and_infer_exit_one(self, tmp_path, capsys, command, key,
                                     value, array):
        checkpoint = zero_checkpoint(tmp_path)
        with_array_value(checkpoint, key, value)
        wav = tmp_path / "a.wav"
        make_wav(wav)
        samples, features = featurized_fixture(tmp_path)
        args = ([wav] if command == "infer" else
                ["--samples", samples, "--features", features,
                 "--report-dir", tmp_path / "report"])
        assert run([command, "--checkpoint", checkpoint, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {checkpoint}: {array}: "
                                "values that are NaN or infinite\n")
        assert not (tmp_path / "report").exists()

    def test_train_resume_exits_one(self, tmp_path, capsys):
        samples, features = featurized_fixture(tmp_path)
        common = ["train", "--features", features, "--samples", samples,
                  "--config", tiny_config_file(tmp_path)]
        assert run(common + ["--run-dir", tmp_path / "run"]) == 0
        checkpoint = tmp_path / "run" / "epoch_1.phck"
        with_array_value(checkpoint, "opt/m/out.b", -np.inf)
        capsys.readouterr()
        assert run(common + ["--run-dir", tmp_path / "resumed", "--epochs", 2,
                             "--resume", checkpoint]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {checkpoint}: optimizer state m/out.b: "
                       "values that are NaN or infinite\n")


class TestFloatingPointFault:
    """A checkpoint whose finite values overflow in the network, or make a
    NaN there, stops the clip at ``model_forward`` instead of decoding it."""

    @pytest.mark.parametrize("command", ["eval", "infer"])
    @pytest.mark.parametrize("key, value, message", [
        ("param/conv1.w", np.finfo(np.float32).max, "overflow encountered"),
        ("buffer/conv1_bn.running_var", -1.0, "invalid value encountered")],
        ids=["overflow", "invalid"])
    def test_eval_and_infer_exit_one(self, tmp_path, capsys, command, key,
                                     value, message):
        checkpoint = zero_checkpoint(tmp_path)
        with_array_value(checkpoint, key, value)
        wav = tmp_path / "a.wav"
        make_wav(wav)
        samples, features = featurized_fixture(tmp_path)
        args = ([wav] if command == "infer" else
                ["--samples", samples, "--features", features,
                 "--report-dir", tmp_path / "report"])
        assert run([command, "--checkpoint", checkpoint, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"{wav}\t" if command == "infer" else "error: "
        assert captured.err.startswith(f"{prefix}stage 'model_forward': {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_error_state_is_restored(self, tmp_path, capsys, command):
        checkpoint = zero_checkpoint(tmp_path)
        with_array_value(checkpoint, "param/conv1.w", np.finfo(np.float32).max)
        wav = tmp_path / "a.wav"
        make_wav(wav)
        samples, features = featurized_fixture(tmp_path)
        args = ([wav] if command == "infer" else
                ["--samples", samples, "--features", features,
                 "--report-dir", tmp_path / "report"])
        before = np.geterr()
        assert run([command, "--checkpoint", checkpoint, *args]) == 1
        assert np.geterr() == before


def _config_file(base, content):
    path = base / "config.json"
    path.write_text(content)
    return ["train", "--config", path, "--samples", base / "samples.csv",
            "--features", base, "--run-dir", base / "run"]


def _norm_file(base, content):
    samples, features = featurized_fixture(base)
    (features / "norm.json").write_text(content)
    return ["train", "--features", features, "--samples", samples,
            "--run-dir", base / "run", "--config", tiny_config_file(base)]


def _report_file(base, content):
    (base / "report").mkdir()
    (base / "report" / "report.json").write_text(content)
    return ["suspects", "--report-dir", base / "report"]


def _feature_file(base):
    samples, features = featurized_fixture(base)
    (features / "w0.wav.phfm").write_bytes(b"PHFM\x01")
    return ["eval", "--checkpoint", zero_checkpoint(base), "--samples", samples,
            "--features", features, "--report-dir", base / "report"]


def _checkpoint_file(base):
    save_checkpoint(base / "model.phck", {"blank_id": 37}, {})
    make_wav(base / "a.wav")
    return ["infer", "--checkpoint", base / "model.phck", base / "a.wav"]


def _metrics_file(base):
    samples, features = featurized_fixture(base)
    common = ["train", "--features", features, "--samples", samples,
              "--config", tiny_config_file(base), "--run-dir", base / "run"]
    assert run(common) == 0
    (base / "run" / "metrics.jsonl").write_text('{"step": 1}\n')
    return common + ["--epochs", 2, "--resume", base / "run" / "epoch_1.phck"]


class TestLineBreakInFileNames:
    """A file name holding a line break is escaped in the error naming
    it, so the error stays one stderr line."""

    @pytest.mark.parametrize("command, code", [
        (lambda base: _config_file(base, "{bad"), 2),
        (lambda base: _config_file(base, "[1]"), 2),
        (lambda base: _norm_file(base, "{bad"), 1),
        (lambda base: _norm_file(base, "[1]"), 1),
        (lambda base: _report_file(base, "{bad"), 1),
        (lambda base: _report_file(base, "[1]"), 1),
        (_feature_file, 1),
        (_checkpoint_file, 1),
        (_metrics_file, 1),
    ], ids=["config-not-json", "config-not-object", "norm-not-json",
            "norm-invalid", "report-not-json", "report-not-a-report",
            "feature-file", "checkpoint-meta", "metrics-file"])
    def test_error_stays_one_line(self, tmp_path, capsys, command, code):
        base = tmp_path / "a\nb"
        base.mkdir()
        argv = command(base)
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert "a\\nb" in err


class TestUsageErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["bogus"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["filter"])
        assert err.value.code == 2


def test_module_entry_point_exits_with_mains_code(tmp_path):
    # `python -m phonoscribe.cli` as a child process, so sys.exit(main())
    # runs as it does for a user
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(cli.__file__).parent.parent)}

    def child(*args):
        return subprocess.run([sys.executable, "-m", "phonoscribe.cli", *args],
                              capture_output=True, encoding="utf-8", env=env,
                              timeout=120)

    inventory = child("inventory")
    assert inventory.returncode == 0
    assert len(inventory.stdout.splitlines()) == len(INVENTORY) == 37
    assert inventory.stderr == ""
    missing = child("suspects", "--report-dir", str(tmp_path))
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: ")
