"""Independent reference implementations used only to check the package.

Everything here is deliberately written the slow, literal way (explicit
recursions, path enumeration, O(N^2) transforms, finite differences) and
shares no code with the implementations under test.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np


def ref_edit_distance(a, b) -> int:
    """Textbook recursive Levenshtein over two generic sequences."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
        )

    return d(len(a), len(b))


def enumerate_minimal_scripts(target, predicted) -> list[tuple]:
    """Every minimal edit script as a tuple of (op, target?, predicted?)."""
    target = tuple(target)
    predicted = tuple(predicted)

    @lru_cache(maxsize=None)
    def cost(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            cost(i - 1, j - 1) + (target[i - 1] != predicted[j - 1]),
            cost(i - 1, j) + 1,
            cost(i, j - 1) + 1,
        )

    @lru_cache(maxsize=None)
    def scripts(i, j):
        if i == 0 and j == 0:
            return [()]
        out = []
        here = cost(i, j)
        if i > 0 and j > 0:
            step = 0 if target[i - 1] == predicted[j - 1] else 1
            if cost(i - 1, j - 1) + step == here:
                op = "match" if step == 0 else "substitute"
                out += [s + ((op, target[i - 1], predicted[j - 1]),)
                        for s in scripts(i - 1, j - 1)]
        if i > 0 and cost(i - 1, j) + 1 == here:
            out += [s + (("delete", target[i - 1], None),)
                    for s in scripts(i - 1, j)]
        if j > 0 and cost(i, j - 1) + 1 == here:
            out += [s + (("insert", None, predicted[j - 1]),)
                    for s in scripts(i, j - 1)]
        return out

    return scripts(len(target), len(predicted))


def ctc_collapse(path, blank: int) -> tuple:
    """Standard CTC collapse: merge frame repeats, then drop blanks."""
    out = []
    prev = None
    for p in path:
        if p != prev:
            out.append(p)
        prev = p
    return tuple(x for x in out if x != blank)


def ctc_brute_force(probs: np.ndarray, labels) -> float:
    """Total probability of ``labels`` by enumerating all K^T frame paths."""
    t_len, n_classes = probs.shape
    blank = n_classes - 1
    want = tuple(labels)
    total = 0.0
    for path in product(range(n_classes), repeat=t_len):
        if ctc_collapse(path, blank) == want:
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    return total


def naive_lstm(x: np.ndarray, wx, wh, b) -> np.ndarray:
    """One LSTM direction over (B, T, I), time front to back, gate order
    (i, f, g, o), one sample and one step at a time with exp-form sigmoids."""
    hidden = wh.shape[0]
    out = np.zeros(x.shape[:2] + (hidden,))
    for n in range(x.shape[0]):
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for t in range(x.shape[1]):
            a = x[n, t] @ wx + h @ wh + b
            i, f, g, o = (a[k * hidden:(k + 1) * hidden] for k in range(4))
            c = c / (1.0 + np.exp(-f)) + np.tanh(g) / (1.0 + np.exp(-i))
            h = np.tanh(c) / (1.0 + np.exp(-o))
            out[n, t] = h
    return out


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = f()
        flat[i] = original - h
        down = f()
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0), 1e-8)
    return float(np.abs(got - want).max(initial=0.0) / scale)


def naive_mfcc(
    samples: np.ndarray,
    sample_rate: int = 16000,
    window_seconds: float = 0.025,
    hop_seconds: float = 0.010,
    n_fft: int = 512,
    n_mels: int = 64,
    n_coefficients: int = 40,
    log_floor: float = 1e-10,
) -> np.ndarray:
    """MFCCs from the literal formulas: direct DFT sums, triangle filters,
    explicit DCT-II cosine sums."""
    window = round(window_seconds * sample_rate)
    hop = round(hop_seconds * sample_rate)
    n_bins = n_fft // 2 + 1

    taper = np.array(
        [0.5 - 0.5 * np.cos(2.0 * np.pi * k / (window - 1)) for k in range(window)]
    )

    frames = []
    start = 0
    while start + window <= len(samples):
        frames.append(samples[start:start + window] * taper)
        start += hop

    # Direct DFT of the zero-padded frame, evaluated bin by bin.
    n = np.arange(n_fft)
    angles = 2.0 * np.pi * np.outer(np.arange(n_bins), n) / n_fft
    cos_table = np.cos(angles)
    sin_table = np.sin(angles)

    # Triangle filter weights from the mel band edges.
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [inv_mel(mel(0.0) + (mel(sample_rate / 2.0) - mel(0.0)) * e / (n_mels + 1))
             for e in range(n_mels + 2)]
    filters = np.zeros((n_mels, n_bins))
    for j in range(n_mels):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for k in range(n_bins):
            f = k * sample_rate / n_fft
            if lo <= f <= mid:
                filters[j, k] = (f - lo) / (mid - lo)
            elif mid < f <= hi:
                filters[j, k] = (hi - f) / (hi - mid)

    dct = np.zeros((n_coefficients, n_mels))
    for k in range(n_coefficients):
        scale = np.sqrt(1.0 / n_mels) if k == 0 else np.sqrt(2.0 / n_mels)
        for m in range(n_mels):
            dct[k, m] = scale * np.cos(np.pi * (2 * m + 1) * k / (2.0 * n_mels))

    out = np.zeros((len(frames), n_coefficients))
    for t, frame in enumerate(frames):
        padded = np.zeros(n_fft)
        padded[:window] = frame
        re = cos_table @ padded
        im = -sin_table @ padded
        magnitude = np.sqrt(re * re + im * im)
        banked = filters @ magnitude
        logged = np.log(np.maximum(banked, log_floor))
        out[t] = dct @ logged
    return out


def oneshot_resample(samples: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """The windowed-sinc resampler's formula over every output sample at
    once: one (out_len, 16) array per step."""
    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    ratio = target_rate / rate
    out_len = int(round(n * ratio))
    positions = np.arange(out_len) / ratio
    idx = np.floor(positions).astype(np.int64)[:, None] + np.arange(-7, 9)[None, :]
    delta = idx - positions[:, None]
    cutoff = min(1.0, ratio)
    weights = cutoff * np.sinc(cutoff * delta)
    weights *= 0.5 + 0.5 * np.cos(np.pi * delta / 8.0)
    weights *= (idx >= 0) & (idx < n)
    gathered = x[np.clip(idx, 0, n - 1)]
    return (weights * gathered).sum(axis=1) / weights.sum(axis=1)
