import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import numpy_bytes
from oracles import naive_mfcc, oneshot_resample
from phonoscribe.dsp import (
    RESAMPLE_BLOCK,
    AudioClip,
    CorruptHeaderError,
    DEFAULT_NORM,
    FeatureConfig,
    FeatureFileError,
    FeatureNorm,
    UnsupportedFormatError,
    compute_norm,
    decode_wav,
    encode_wav,
    fix_length,
    frame_signal,
    hann_window,
    load_features,
    magnitude_spectrum,
    mel_filterbank,
    mfcc,
    resample,
    save_features,
    standardize,
)


def pcm16_wav(samples, rate=16000, channels=1, audio_format=1, bits=16):
    if audio_format == 1:
        payload = np.asarray(samples, dtype="<i2").tobytes()
    else:
        payload = np.asarray(samples, dtype="<f4").tobytes()
    block = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, channels, rate, rate * block, block, bits,
        b"data", len(payload),
    ) + payload


def overwrite_byte(raw: bytes, at: int, value: int) -> bytes:
    return raw[:at] + bytes([value]) + raw[at + 1:]


VALID_WAV = pcm16_wav([1, -2, 3, -4], channels=2)


class TestDecodeWav:
    def test_pcm16_scaling(self):
        clip = decode_wav(pcm16_wav([16384]))
        assert clip.samples[0] == pytest.approx(0.5)
        assert clip.sample_rate == 16000

    def test_stereo_averaged(self):
        left, right = round(0.2 * 32768), round(0.4 * 32768)
        clip = decode_wav(pcm16_wav([left, right], channels=2))
        assert clip.samples.shape == (1,)
        assert clip.samples[0] == pytest.approx(0.3, abs=1e-4)

    def test_float32(self):
        clip = decode_wav(pcm16_wav([0.25, -0.5], audio_format=3, bits=32))
        assert np.allclose(clip.samples, [0.25, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float32_rejected(self, bad, channels):
        data = pcm16_wav([0.25, bad, -0.5, 0.0], channels=channels,
                         audio_format=3, bits=32)
        with pytest.raises(UnsupportedFormatError, match="NaN or infinite"):
            decode_wav(data)

    @pytest.mark.parametrize("channels, rate, error, message", [
        (3, 16000, UnsupportedFormatError, "3 channels"),
        (1, 0, CorruptHeaderError, "non-positive sample rate"),
    ], ids=["three-channels", "zero-rate"])
    def test_unusable_header_rejected(self, channels, rate, error, message):
        data = pcm16_wav([0] * 6, rate=rate, channels=channels)
        with pytest.raises(error, match=message):
            decode_wav(data)

    def test_mulaw_unsupported(self):
        data = pcm16_wav([0], audio_format=7, bits=8)
        with pytest.raises(UnsupportedFormatError):
            decode_wav(data)

    def test_corrupt_header(self):
        with pytest.raises(CorruptHeaderError):
            decode_wav(b"JUNKJUNKJUNKJUNK")

    def test_missing_data_chunk(self):
        data = pcm16_wav([0])
        with pytest.raises(CorruptHeaderError):
            decode_wav(data[:36])  # header plus fmt, no data chunk

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=80),
        st.binary(max_size=80).map(lambda tail: b"RIFF\x00\x00\x00\x00WAVE" + tail),
        st.tuples(st.integers(0, len(VALID_WAV) - 1), st.integers(0, 255))
        .map(lambda edit: overwrite_byte(VALID_WAV, *edit)),
        st.integers(0, len(VALID_WAV)).map(lambda end: VALID_WAV[:end]),
    ))
    def test_arbitrary_bytes_decode_or_are_rejected(self, data):
        try:
            clip = decode_wav(data)
        except (CorruptHeaderError, UnsupportedFormatError):
            return
        assert clip.sample_rate > 0
        assert clip.samples.dtype == np.float64 and clip.samples.ndim == 1

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, size=500)
        clip = AudioClip(16000, samples)
        back = decode_wav(encode_wav(clip))
        assert back.sample_rate == 16000
        # one LSB of scaling skew plus rounding
        assert np.abs(back.samples - samples).max() < 1.0 / 16000


class TestFixLength:
    def test_pad_short_clip(self):
        clip = AudioClip(16000, np.ones(16000))
        out = fix_length(clip, 2.0)
        assert len(out.samples) == 32000
        assert np.all(out.samples[16000:] == 0)
        assert np.all(out.samples[:16000] == 1)

    def test_truncate_long_clip(self):
        clip = AudioClip(16000, np.arange(48000, dtype=np.float64))
        out = fix_length(clip, 2.0)
        assert len(out.samples) == 32000
        assert out.samples[-1] == 31999

    def test_exact_length_identity(self):
        clip = AudioClip(16000, np.random.default_rng(1).normal(size=32000))
        out = fix_length(clip, 2.0)
        assert out.samples is clip.samples

    def test_non_integer_product_rounds(self):
        clip = AudioClip(22050, np.zeros(10))
        assert len(fix_length(clip, 2.0).samples) == 44100


class TestResample:
    def test_same_rate_identity(self):
        clip = AudioClip(16000, np.ones(100))
        assert resample(clip, 16000) is clip

    @pytest.mark.parametrize("target_rate", [0, -16000])
    def test_non_positive_target_rate_rejected(self, target_rate):
        with pytest.raises(ValueError, match="target_rate must be positive"):
            resample(AudioClip(16000, np.ones(100)), target_rate)

    def test_dc_preserved(self):
        clip = AudioClip(48000, np.full(48000, 0.5))
        out = resample(clip, 16000)
        assert len(out.samples) == 16000
        assert np.abs(out.samples - 0.5).max() < 1e-3

    def test_sine_keeps_dominant_bin(self):
        rate_in, rate_out, freq = 48000, 16000, 1000
        t = np.arange(rate_in) / rate_in
        clip = AudioClip(rate_in, np.sin(2 * np.pi * freq * t))
        out = resample(clip, rate_out)
        assert len(out.samples) == rate_out
        spectrum = np.abs(np.fft.rfft(out.samples))
        assert spectrum.argmax() == freq  # 1 Hz bins for a 1 s signal

    def test_upsample_length(self):
        clip = AudioClip(8000, np.zeros(8000))
        assert len(resample(clip, 16000).samples) == 16000

    @pytest.mark.parametrize("rate, out_len", [
        (8000, 3 * RESAMPLE_BLOCK + 100),   # up, several blocks
        (48000, 3 * RESAMPLE_BLOCK + 1),    # down, a one-sample last block
        (44100, 4 * RESAMPLE_BLOCK),        # down, whole blocks
        (8000, 1000),                       # up, under one block
        (44100, 57),                        # down, under one block
    ])
    def test_blocks_equal_the_one_shot_formula(self, rate, out_len):
        n = round(out_len * rate / 16000)
        samples = np.random.default_rng(rate + out_len).uniform(-1, 1, n)
        out = resample(AudioClip(rate, samples), 16000).samples
        want = oneshot_resample(samples, rate, 16000)
        assert len(want) == out_len
        assert out.tobytes() == want.tobytes()

    def test_ten_seconds_at_48k_peak_under_4_mib(self):
        clip = AudioClip(48000, np.random.default_rng(3).uniform(-1, 1, 480000))
        with numpy_bytes() as usage:
            out = resample(clip, 16000)
            held, peak = usage()
        assert held == out.samples.nbytes
        assert peak < 4 * 2**20


def kept_clip_reach(rate: int) -> int:
    """Input samples that the first 2 s of 16 kHz output read: output
    sample j reads taps floor(j / ratio) - 7 ... + 8, and n input samples
    give round(n * ratio) output samples, which below a ratio of 1/16 the
    taps alone can leave short of 2 s."""
    ratio = 16000 / rate
    n = max(math.floor(31999 / ratio) + 9, math.ceil(31999.5 / ratio))
    while round(n * ratio) < 32000:
        n += 1
    return n


class TestResampleInput:
    """``resample(clip, 16000, 2.0)`` computes only the first 2 s of
    output, bit for bit those of the whole clip's, whether the clip ends
    before, at or past the input they read."""

    # 384 kHz is a ratio of 1/24, where the tap reach alone leaves the
    # output short of 2 s.
    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000, 96000,
                                      192000, 384000])
    def test_kept_output_unchanged(self, rate):
        rng = np.random.default_rng(rate)
        need = kept_clip_reach(rate)
        assert need < 3 * rate
        for n in sorted({2 * rate - 1, 2 * rate, 2 * rate + 1,
                         need - 1, need, need + 1, 3 * rate}):
            clip = AudioClip(rate, rng.uniform(-1, 1, n))
            kept = resample(clip, 16000, 2.0)
            if rate != 16000:
                assert len(kept.samples) == min(round(n * 16000 / rate), 32000)
            want = fix_length(resample(clip, 16000), 2.0).samples
            got = fix_length(kept, 2.0).samples
            assert got.tobytes() == want.tobytes()


class TestMfcc:
    def test_shape_for_two_seconds(self):
        clip = AudioClip(16000, np.zeros(32000))
        assert mfcc(clip).shape == (198, 40)

    def test_all_zero_clip_closed_form(self):
        # Silence hits the log floor in every mel band, so each frame is the
        # DCT of a constant vector: c0 = sqrt(64) * ln(1e-10), rest 0.
        features = mfcc(AudioClip(16000, np.zeros(32000)))
        expected_c0 = np.sqrt(64) * np.log(1e-10)
        assert np.allclose(features[:, 0], expected_c0, atol=1e-9)
        assert np.abs(features[:, 1:]).max() < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        clip = AudioClip(16000, rng.uniform(-1, 1, 32000))
        first = mfcc(clip)
        second = mfcc(clip)
        assert np.array_equal(first, second)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        clip = AudioClip(16000, rng.uniform(-0.8, 0.8, 32000))
        got = mfcc(clip)
        want = naive_mfcc(clip.samples)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("n", [1, 100, 399])
    def test_window_longer_than_clip(self, n):
        with pytest.raises(ValueError, match=f"a {n}-sample signal is shorter "
                           "than one 400-sample window"):
            mfcc(AudioClip(16000, np.zeros(n)))

    @pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
    def test_wrong_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"clip at {rate} Hz; MFCCs are "
                           "computed at 16000 Hz"):
            mfcc(AudioClip(rate, np.zeros(16000)))

    def test_parseval_identity(self):
        # sum |X_k|^2 over the full spectrum equals N * sum x^2.
        rng = np.random.default_rng(3)
        n_fft = 512
        x = rng.normal(size=(5, n_fft))
        mag = magnitude_spectrum(x, n_fft)
        full_energy = (mag[:, 0] ** 2 + mag[:, -1] ** 2
                       + 2 * (mag[:, 1:-1] ** 2).sum(axis=1))
        time_energy = n_fft * (x ** 2).sum(axis=1)
        assert np.abs(full_energy / time_energy - 1).max() < 1e-6

    def test_hann_window_endpoints(self):
        w = hann_window(400)
        assert w[0] == pytest.approx(0.0)
        assert w[-1] == pytest.approx(0.0)
        assert w.max() <= 1.0

    def test_frame_count_formula(self):
        x = np.zeros(32000)
        frames = frame_signal(x, 400, 160)
        assert frames.shape == (1 + (32000 - 400) // 160, 400)


class TestFeatureConfig:
    def test_pinned_filterbank_has_no_empty_filter(self):
        config = FeatureConfig()
        fbank = mel_filterbank(config.n_mels, config.n_fft, config.sample_rate)
        assert fbank.any(axis=1).all()


class TestNorm:
    def test_two_values(self):
        norm = compute_norm([np.array([[0.0, 2.0]])])
        assert norm.mean == pytest.approx(1.0)
        assert norm.std == pytest.approx(1.0)

    def test_constant_input_degenerate(self):
        with pytest.raises(ValueError, match=r"^all feature values identical$"):
            compute_norm([np.full((4, 4), 5.0)])

    def test_empty_input(self):
        with pytest.raises(ValueError, match=r"^no feature values$"):
            compute_norm([])

    def test_shipped_default_constants(self):
        assert DEFAULT_NORM == FeatureNorm(mean=-11.48, std=80.30)

    def test_population_std_over_all_matrices(self):
        mats = [np.array([[0.0]]), np.array([[2.0, 2.0], [0.0, 0.0]])]
        norm = compute_norm(mats)
        values = np.array([0, 2, 2, 0, 0], dtype=float)
        assert norm.mean == pytest.approx(values.mean())
        assert norm.std == pytest.approx(values.std())


class TestStandardize:
    def test_mean_maps_to_zero(self):
        norm = FeatureNorm(mean=3.0, std=2.0)
        assert standardize(np.array([3.0]), norm)[0] == 0.0

    def test_mean_plus_std_maps_to_one(self):
        norm = FeatureNorm(mean=3.0, std=2.0)
        assert standardize(np.array([5.0]), norm)[0] == 1.0

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 4))
        norm = FeatureNorm(mean=-11.48, std=80.30)
        z = standardize(x, norm)
        assert np.abs(z * norm.std + norm.mean - x).max() < 1e-12


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(198, 40)).astype(np.float32)
        path = tmp_path / "x.phfm"
        save_features(path, features)
        assert np.array_equal(load_features(path), features)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.phfm"
        save_features(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"PHFM"
        version, t, c = struct.unpack_from("<HII", raw, 4)
        assert (version, t, c) == (1, 2, 3)
        assert len(raw) == 14 + 4 * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.phfm"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FeatureFileError):
            load_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.phfm"
        path.write_bytes(struct.pack("<4sHII", b"PHFM", 2, 1, 1) + b"\0" * 4)
        with pytest.raises(FeatureFileError, match=f"{path}: unsupported version 2"):
            load_features(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "x.phfm"
        path.write_bytes(b"PHFM\x01")
        with pytest.raises(FeatureFileError):
            load_features(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.phfm"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FeatureFileError):
            load_features(path)

    def test_file_cut_during_the_read(self, tmp_path, monkeypatch):
        # the size check sees the size the file had when it was opened; a
        # file cut after that leaves the payload read short
        path = tmp_path / "x.phfm"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        uncut = os.stat(path)
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: uncut)
        with pytest.raises(FeatureFileError,
                           match=f"^{path}: truncated feature payload$"):
            load_features(path)

    @pytest.mark.parametrize("t, c, payload", [
        (2**31, 2**31, b""),           # T*C*4 overflows a read size
        (2**20, 2**20, b"\0" * 8),     # 4 TiB: would not fit in memory
        (1, 2, b"\0" * 5),             # not a whole number of float32
        (1, 1, b"\0" * 8),             # trailing bytes
    ], ids=["overflow", "huge", "ragged", "trailing"])
    def test_payload_length_checked_against_header(self, tmp_path, t, c,
                                                   payload):
        path = tmp_path / "x.phfm"
        path.write_bytes(struct.pack("<4sHII", b"PHFM", 1, t, c) + payload)
        with pytest.raises(FeatureFileError, match=str(path)):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        features = np.zeros((3, 4), dtype=np.float32)
        features[1, 2] = value
        path = tmp_path / "x.phfm"
        save_features(path, features)
        with pytest.raises(FeatureFileError, match=f"{path}: .*NaN or infinite"):
            load_features(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda tail: b"PHFM\x01\x00" + tail),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.binary(max_size=40))
        .map(lambda f: struct.pack("<4sHII", b"PHFM", 1, f[0], f[1]) + f[2]),
    ))
    def test_arbitrary_bytes_load_or_are_rejected(self, tmp_path, data):
        path = tmp_path / "x.phfm"
        path.write_bytes(data)
        try:
            features = load_features(path)
        except FeatureFileError:
            return
        t, c = struct.unpack_from("<II", data, 6)
        assert features.shape == (t, c)
        assert features.dtype == np.float32
        assert np.isfinite(features).all()
