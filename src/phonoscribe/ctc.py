"""CTC loss with exact gradients, and greedy decoding.

The loss is the standard alignment-marginalized negative log-likelihood:
labels are expanded with blanks (blank, l1, blank, l2, ..., blank) and a
forward-backward recursion sums over every frame-level path that collapses
to the label sequence. All recursions run in log space; at 200 frames the
probability-space form underflows float64.

The blank is always the LAST class: a (T, K) input has K - 1 usable labels
and blank id K - 1.

One kernel, ``ctc_loss_batch``, runs the recursion for a whole (B, T, K)
batch; ``ctc_loss`` is its B=1 case, and ``ctc_nll_batch`` its losses
alone, from the alpha half. Samples are padded to S = 2 * max_len
+ 1 states in one time-major (T, B, S) lattice, so a frame costs two
in-place ``np.logaddexp`` over (B, S) for alpha and two for beta. -inf pad
columns turn the stay/step/skip shifts into slices, and the skip rules are
0/-inf penalty rows. Per sample the arithmetic, and so every bit of the
result, is that of an unpadded recursion.

The decoder applies the usual collapse (merge frame repeats, drop blanks)
and then additionally merges any remaining adjacent identical labels, so
even a blank-separated repeat comes out once. Consequently decoded
sequences never contain the same phoneme twice in a row.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

NEG_INF = -np.inf


class InfeasibleLengthError(ValueError):
    pass


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stable for large logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_backward(dlogp: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given the gradient w.r.t. log_softmax output."""
    return dlogp - np.exp(logp) * dlogp.sum(axis=-1, keepdims=True)


def min_frames(labels: Sequence[int]) -> int:
    """Shortest input that can emit ``labels``: repeats need a blank between."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def ctc_loss(logp: np.ndarray, labels: Sequence[int]) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of ``labels`` and its exact gradient.

    ``logp`` is a (T, K) matrix of per-frame log-probabilities (rows summing
    to one in probability space); the returned gradient is with respect to
    those log-probabilities and composes with ``log_softmax_backward``.

    Raises InfeasibleLengthError when T is too short for the labels.
    """
    losses, grad = ctc_loss_batch(np.asarray(logp)[None], [labels])
    return float(losses[0]), grad[0]


def ctc_nll_batch(logp: np.ndarray, labels: Sequence[Sequence[int]]
                  ) -> np.ndarray:
    """``ctc_loss_batch``'s per-sample losses, bit for bit, from the alpha
    recursion alone: no beta pass and no gradient."""
    return -_alpha(np.asarray(logp, dtype=np.float64), labels)[-1]


def ctc_loss_batch(logp: np.ndarray, labels: Sequence[Sequence[int]]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample CTC losses (B,) of a (B, T, K) batch and their gradients.

    Sample b's loss and (T, K) gradient equal ``ctc_loss(logp[b],
    labels[b])``; the labels may differ in length. Raises ValueError for
    an empty or out-of-range label sequence and InfeasibleLengthError when
    T is too short for any sample's labels.
    """
    logp = np.asarray(logp, dtype=np.float64)
    n_batch, t_len, n_classes = logp.shape
    states, ends, skip_pen, emit, alpha, log_p = _alpha(logp, labels)
    n_states = states.shape[1]
    rows = np.arange(n_batch)
    feed_pen = np.full((n_batch, n_states), NEG_INF)
    feed_pen[:, :-2] = skip_pen[:, 2:]

    # beta's emitting successor ``nxt`` carries two trailing -inf pad
    # columns, so the step and skip shifts are slices.
    beta = np.full((t_len, n_batch, n_states), NEG_INF)
    beta[-1, rows, ends - 1] = 0.0
    beta[-1, rows, ends - 2] = 0.0
    nxt = np.empty((n_batch, n_states + 2))
    nxt[:, -2:] = NEG_INF
    skip = np.empty((n_batch, n_states))
    for t in range(t_len - 2, -1, -1):
        out = beta[t]
        np.add(beta[t + 1], emit[t + 1], out=nxt[:, :-2])
        np.logaddexp(nxt[:, :-2], nxt[:, 1:-1], out=out)
        np.add(nxt[:, 2:], feed_pen, out=skip)
        np.logaddexp(out, skip, out=out)

    # State posteriors; each valid row of exp(gamma - log_p) sums to 1.
    posterior = np.exp(alpha + beta - log_p[:, None])
    grad = np.zeros((t_len, n_batch, n_classes))
    np.add.at(grad, (np.arange(t_len)[:, None, None], rows[:, None], states),
              posterior)
    return -log_p, -grad.transpose(1, 0, 2)


def _alpha(logp: np.ndarray, labels: Sequence[Sequence[int]]):
    """Checks a float64 (B, T, K) batch against its labels and runs the
    alpha recursion. Returns the lattice, the blank-expanded states (B, S),
    each sample's state count (B,), the 0/-inf penalties of a skip into
    each state (B, S) and the emissions (T, B, S), then alpha (T, B, S)
    and each sample's log-likelihood (B,)."""
    n_batch, t_len, n_classes = logp.shape
    blank = n_classes - 1
    labels = [list(seq) for seq in labels]
    if len(labels) != n_batch:
        raise ValueError(f"{len(labels)} label sequences for a batch of {n_batch}")
    for seq in labels:
        if not seq:
            raise ValueError("labels must be non-empty")
        if any(not 0 <= l < blank for l in seq):
            raise ValueError(f"label ids must be in [0, {blank})")
        needed = min_frames(seq)
        if t_len < needed:
            raise InfeasibleLengthError(f"{t_len} frames cannot emit the label "
                                        f"sequence (needs at least {needed})")

    # Blank-expanded state rows (blank, l1, blank, ..., lL, blank), padded
    # with blanks to the longest. Beta starts at each sample's own last two
    # states and only moves left, so it is -inf on padded states and their
    # posteriors are 0; what alpha holds there never reaches a result.
    n_states = 2 * max(map(len, labels)) + 1
    ends = np.array([2 * len(seq) + 1 for seq in labels])  # states per sample
    states = np.full((n_batch, n_states), blank, dtype=np.int64)
    for b, seq in enumerate(labels):
        states[b, 1:ends[b]:2] = seq
    rows = np.arange(n_batch)

    # A state may receive from s-2 only if it is a label differing from the
    # label two states back (skipping the separating blank); state s feeds
    # s+2 under the same rule.
    skip_pen = np.full((n_batch, n_states), NEG_INF)
    skip_pen[:, 3::2][states[:, 3::2] != states[:, 1:-2:2]] = 0.0

    emit = logp.transpose(1, 0, 2)[:, rows[:, None], states]  # (T, B, S)

    # alpha carries two leading -inf pad columns, so the step and skip
    # shifts are slices.
    alpha = np.full((t_len, n_batch, n_states + 2), NEG_INF)
    alpha[0, :, 2:4] = emit[0, :, :2]
    skip = np.empty((n_batch, n_states))
    for t in range(1, t_len):
        prev, out = alpha[t - 1], alpha[t, :, 2:]
        np.logaddexp(prev[:, 2:], prev[:, 1:-1], out=out)
        np.add(prev[:, :-2], skip_pen, out=skip)
        np.logaddexp(out, skip, out=out)
        out += emit[t]
    alpha = alpha[:, :, 2:]
    log_p = np.logaddexp(alpha[-1, rows, ends - 1], alpha[-1, rows, ends - 2])
    return states, ends, skip_pen, emit, alpha, log_p


def greedy_decode(logp: np.ndarray) -> list[int]:
    """Best-per-frame decode; ties go to the lowest class id.

    Returns label ids with blanks removed and no two adjacent ids equal.
    """
    logp = np.asarray(logp)
    blank = logp.shape[1] - 1
    frame_ids = logp.argmax(axis=1)
    collapsed = [k for k, _ in groupby(frame_ids) if k != blank]
    return [int(k) for k, _ in groupby(collapsed)]
