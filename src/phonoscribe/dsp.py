"""Audio decoding and MFCC feature extraction.

Featurization is pinned for reproducibility: 16 kHz mono, clips forced to
2.0 s, 25 ms Hann windows with a 10 ms hop, 512-point spectrum, 64
triangular mel filters spanning 0 Hz to Nyquist, natural log with a 1e-10
floor, orthonormal DCT-II keeping the first 40 coefficients. A 2 s clip at
16 kHz therefore yields 1 + (32000 - 400) // 160 = 198 frames. These
values are the constants of ``FeatureConfig``; no config file, checkpoint
or caller can change them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .settings import is_real, printable


class CorruptHeaderError(ValueError):
    pass


class UnsupportedFormatError(ValueError):
    def __init__(self, codec: str):
        super().__init__(f"unsupported WAV format: {codec}")


class FeatureFileError(ValueError):
    pass


@dataclass(frozen=True)
class AudioClip:
    """Mono audio, amplitudes in [-1, 1]."""

    sample_rate: int
    samples: np.ndarray


@dataclass(frozen=True)
class FeatureConfig:
    """The pinned featurization settings, as class constants (no fields):
    nothing can set them, so every instance is the same."""

    sample_rate = 16000
    clip_seconds = 2.0
    window_seconds = 0.025
    hop_seconds = 0.010
    n_fft = 512
    n_mels = 64
    n_coefficients = 40
    log_floor = 1e-10


def _samples(seconds: float, rate: int) -> int:
    """A duration in whole samples at ``rate``."""
    return round(seconds * rate)


@dataclass(frozen=True)
class FeatureNorm:
    """Global scalar standardization constants."""

    mean: float
    std: float

    def __post_init__(self):
        if not is_real(self.mean):
            raise ValueError(f"mean must be a finite number, not {self.mean!r}")
        if not is_real(self.std) or self.std <= 0:
            raise ValueError(f"std must be positive and finite, not {self.std!r}")


# Constants observed on the full recording corpus; shipped as the default
# for real-corpus runs. Synthetic or re-built corpora should recompute.
DEFAULT_NORM = FeatureNorm(mean=-11.48, std=80.30)


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE container to a mono clip.

    Supports PCM16 and IEEE float32, 1 or 2 channels. Stereo is averaged;
    PCM16 is scaled by 1/32768. A float32 sample that is NaN or infinite
    is an UnsupportedFormatError.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise CorruptHeaderError("truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise CorruptHeaderError("missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{channels} channels")
    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) // 2 * 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) // 4 * 4], dtype="<f4")
        if not np.isfinite(raw).all():
            raise UnsupportedFormatError("float32 samples that are NaN or infinite")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedFormatError(f"format {audio_format}, {bits}-bit")

    if channels == 2:
        samples = samples[: len(samples) // 2 * 2].reshape(-1, 2).mean(axis=1)
    if sample_rate <= 0:
        raise CorruptHeaderError("non-positive sample rate")
    return AudioClip(sample_rate=sample_rate, samples=samples)


def encode_wav(clip: AudioClip) -> bytes:
    """Serialize a clip as PCM16 WAV (counterpart of ``decode_wav``)."""
    pcm = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    payload = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    return header + payload


def fix_length(clip: AudioClip, seconds: float) -> AudioClip:
    """Zero-pad or truncate (both at the end) to exactly round(s * rate)."""
    n = _samples(seconds, clip.sample_rate)
    x = clip.samples
    if len(x) == n:
        return clip
    if len(x) > n:
        return AudioClip(clip.sample_rate, x[:n].copy())
    out = np.zeros(n, dtype=x.dtype)
    out[: len(x)] = x
    return AudioClip(clip.sample_rate, out)


RESAMPLE_BLOCK = 4096  # output samples per block


def resample(clip: AudioClip, target_rate: int,
             seconds: float | None = None) -> AudioClip:
    """Band-limited rate conversion with a 16-tap windowed-sinc kernel.

    Kernel weights are renormalized per output sample, so DC is preserved
    exactly, including at the clip edges. Identity when rates match. With
    ``seconds``, only the output samples of the first ``seconds`` are
    computed, so ``fix_length(resample(clip, rate, s), s)`` equals
    ``fix_length(resample(clip, rate), s)`` at a cost that does not grow
    with the clip. The output is worked out in blocks of
    ``RESAMPLE_BLOCK`` samples, which bounds the (samples x 16)
    temporaries; each output sample's arithmetic does not depend on the
    block it falls in.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == clip.sample_rate:
        return clip
    x = clip.samples.astype(np.float64, copy=False)
    n = len(x)
    ratio = target_rate / clip.sample_rate
    out_len = int(round(n * ratio))
    if seconds is not None:
        out_len = min(out_len, _samples(seconds, target_rate))
    if out_len == 0 or n == 0:
        return AudioClip(target_rate, np.zeros(out_len))

    cutoff = min(1.0, ratio)  # anti-aliasing when downsampling
    y = np.empty(out_len)
    for start in range(0, out_len, RESAMPLE_BLOCK):
        stop = min(start + RESAMPLE_BLOCK, out_len)
        y[start:stop] = _resampled_block(x, np.arange(start, stop) / ratio, cutoff)
    return AudioClip(target_rate, y)


def _resampled_block(x: np.ndarray, positions: np.ndarray,
                     cutoff: float) -> np.ndarray:
    """``resample``'s output samples at ``positions``, in input samples."""
    taps = np.arange(-7, 9)
    base = np.floor(positions).astype(np.int64)[:, None]
    delta = (base + taps) - positions[:, None]
    weights = cutoff * np.sinc(cutoff * delta)
    weights *= 0.5 + 0.5 * np.cos(np.pi * delta / 8.0)  # Hann taper, |delta| <= 8
    del delta  # the tap indices below take its memory

    idx = base + taps
    weights *= (idx >= 0) & (idx < len(x))
    gathered = x[np.clip(idx, 0, len(x) - 1, out=idx)]
    gathered *= weights
    return gathered.sum(axis=1) / weights.sum(axis=1)


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window: 0.5 - 0.5 cos(2 pi k / (n - 1))."""
    k = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * k / (n - 1))


def frame_signal(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    if window > len(x):
        raise ValueError(f"a {len(x)}-sample signal is shorter than one "
                         f"{window}-sample window")
    frames = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
    return np.ascontiguousarray(frames)


def magnitude_spectrum(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """|DFT| of zero-padded frames; rows are frames, n_fft//2 + 1 bins."""
    return np.abs(np.fft.rfft(frames, n=n_fft, axis=-1))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on the mel scale, (n_mels, n_fft//2 + 1).

    Band edges are mel-spaced between 0 Hz and Nyquist; weights are the
    triangle heights evaluated at each FFT bin's center frequency.
    """
    edges = _mel_to_hz(np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0),
                                   n_mels + 2))
    bins = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    up = (bins[None, :] - lower) / (center - lower)
    down = (upper - bins[None, :]) / (upper - center)
    return np.maximum(0.0, np.minimum(up, down))


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, (n_out, n_in)."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.sqrt(2.0 / n_in) * np.cos(np.pi * (2 * n + 1) * k / (2 * n_in))
    mat[0] /= np.sqrt(2.0)
    return mat


def mfcc(clip: AudioClip, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """MFCC matrix, (frames, n_coefficients), float64.

    The clip must already be at ``config.sample_rate``; run ``resample`` and
    ``fix_length`` first. Every ``FeatureConfig`` holds the same pinned
    values, so passing one changes nothing.
    """
    if clip.sample_rate != config.sample_rate:
        raise ValueError(f"clip at {clip.sample_rate} Hz; MFCCs are computed "
                         f"at {config.sample_rate} Hz")
    window = _samples(config.window_seconds, config.sample_rate)
    hop = _samples(config.hop_seconds, config.sample_rate)
    frames = frame_signal(clip.samples.astype(np.float64), window, hop)
    frames = frames * hann_window(window)

    spectrum = magnitude_spectrum(frames, config.n_fft)
    fbank = mel_filterbank(config.n_mels, config.n_fft, config.sample_rate)
    energies = spectrum @ fbank.T
    log_energies = np.log(np.maximum(energies, config.log_floor))
    dct = dct_matrix(config.n_coefficients, config.n_mels)
    return log_energies @ dct.T


def compute_norm(feature_matrices: Iterable[np.ndarray]) -> FeatureNorm:
    """Scalar mean and population std over every coefficient of every frame."""
    total = 0
    acc = 0.0
    acc_sq = 0.0
    for mat in feature_matrices:
        arr = np.asarray(mat, dtype=np.float64)
        total += arr.size
        acc += arr.sum()
        acc_sq += np.square(arr).sum()
    if total == 0:
        raise ValueError("no feature values")
    mean = acc / total
    var = acc_sq / total - mean * mean
    std = float(np.sqrt(max(var, 0.0)))
    if std <= 0.0:
        raise ValueError("all feature values identical")
    return FeatureNorm(mean=float(mean), std=std)


def standardize(features: np.ndarray, norm: FeatureNorm) -> np.ndarray:
    return (features - norm.mean) / norm.std


FEATURE_MAGIC = b"PHFM"
FEATURE_VERSION = 1


def save_features(path: str | Path, features: np.ndarray) -> None:
    """Write a feature matrix: magic, u16 version, u32 T, u32 C, f32-LE data."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    header = struct.pack("<4sHII", FEATURE_MAGIC, FEATURE_VERSION, *arr.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(arr.tobytes())


def load_features(path: str | Path) -> np.ndarray:
    """Read a feature file; a malformed or non-finite one is a FeatureFileError
    naming ``path``. The payload length is checked against T x C from the file
    size before anything is read or allocated."""
    header_size = struct.calcsize("<4sHII")
    name = printable(path)
    with open(path, "rb") as f:
        payload_size = os.fstat(f.fileno()).st_size - header_size
        header = f.read(header_size)
        if len(header) < header_size:
            raise FeatureFileError(f"{name}: truncated feature header")
        magic, version, t, c = struct.unpack("<4sHII", header)
        if magic != FEATURE_MAGIC:
            raise FeatureFileError(f"{name}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FeatureFileError(f"{name}: unsupported version {version}")
        if payload_size != 4 * t * c:
            raise FeatureFileError(
                f"{name}: header says {t}x{c} float32 values "
                f"({4 * t * c} bytes), the payload has {payload_size} bytes")
        data = np.empty((t, c), dtype="<f4")
        if f.readinto(data) != data.nbytes:
            raise FeatureFileError(f"{name}: truncated feature payload")
    if not np.isfinite(data).all():
        raise FeatureFileError(f"{name}: feature values that are NaN or infinite")
    return data
