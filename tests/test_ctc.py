import numpy as np
import pytest

from oracles import ctc_brute_force, finite_difference, relative_error
from phonoscribe.ctc import (
    InfeasibleLengthError,
    ctc_loss,
    ctc_loss_batch,
    ctc_nll_batch,
    greedy_decode,
    log_softmax,
    log_softmax_backward,
    min_frames,
)


def random_logp(rng, t_len, n_classes):
    return log_softmax(rng.normal(size=(t_len, n_classes)) * 2.0)


class TestLogSoftmax:
    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        logp = random_logp(rng, 6, 38)
        sums = np.log(np.exp(logp).sum(axis=1))
        assert np.abs(sums).max() < 1e-6

    def test_stable_for_large_logits(self):
        logp = log_softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(logp).all()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 6))
        probe = rng.normal(size=(4, 6))

        def loss():
            return float((log_softmax(logits) * probe).sum())

        logp = log_softmax(logits)
        analytic = log_softmax_backward(probe, logp)
        numeric = finite_difference(loss, logits)
        assert relative_error(analytic, numeric) < 1e-6


class TestCtcLossValues:
    def test_single_frame_uniform(self):
        logp = np.full((1, 38), -np.log(38.0))
        loss, _ = ctc_loss(logp, [5])
        assert loss == pytest.approx(np.log(38.0), abs=1e-12)

    def test_two_frames_uniform(self):
        # paths collapsing to "a": aa, a-blank, blank-a -> 3 / 38^2
        logp = np.full((2, 38), -np.log(38.0))
        loss, _ = ctc_loss(logp, [5])
        assert loss == pytest.approx(np.log(38.0 ** 2 / 3.0), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        n_classes = 5
        for t_len in range(1, 5):
            for lab_len in range(1, 4):
                for _ in range(20):
                    labels = list(rng.integers(0, n_classes - 1, size=lab_len))
                    logp = random_logp(rng, t_len, n_classes)
                    if t_len < min_frames(labels):
                        with pytest.raises(InfeasibleLengthError):
                            ctc_loss(logp, labels)
                        continue
                    want = ctc_brute_force(np.exp(logp), labels)
                    loss, _ = ctc_loss(logp, labels)
                    assert np.exp(-loss) == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t_len = int(rng.integers(2, 5))
            labels = list(rng.integers(0, 4, size=rng.integers(1, t_len + 1)))
            if t_len < min_frames(labels):
                continue
            logp = random_logp(rng, t_len, 5)

            def loss():
                return ctc_loss(logp, labels)[0]

            _, grad = ctc_loss(logp, labels)
            numeric = finite_difference(loss, logp)
            assert relative_error(grad, numeric) < 1e-6

    def test_gradient_rows_sum_to_minus_one(self):
        # raising a whole row of log-probs by d multiplies P by e^d
        rng = np.random.default_rng(4)
        logp = random_logp(rng, 6, 7)
        _, grad = ctc_loss(logp, [0, 3, 2])
        assert np.allclose(grad.sum(axis=1), -1.0, atol=1e-9)

    def test_infeasible_length_is_error_not_inf(self):
        logp = random_logp(np.random.default_rng(5), 1, 5)
        with pytest.raises(InfeasibleLengthError):
            ctc_loss(logp, [0, 1])

    def test_repeat_needs_separating_blank(self):
        logp = random_logp(np.random.default_rng(6), 2, 5)
        with pytest.raises(InfeasibleLengthError):
            ctc_loss(logp, [1, 1])
        loss, _ = ctc_loss(random_logp(np.random.default_rng(7), 3, 5), [1, 1])
        assert np.isfinite(loss)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(random_logp(np.random.default_rng(8), 3, 5), [])

    def test_blank_id_not_allowed_in_labels(self):
        with pytest.raises(ValueError):
            ctc_loss(random_logp(np.random.default_rng(9), 3, 5), [4])

    def test_permutation_covariance(self):
        # permuting the non-blank classes in both logp and labels is a no-op
        rng = np.random.default_rng(10)
        logp = random_logp(rng, 5, 6)
        labels = [0, 2, 4]
        base, _ = ctc_loss(logp, labels)
        perm = list(rng.permutation(5))
        permuted_logp = logp.copy()
        for original, target in enumerate(perm):
            permuted_logp[:, target] = logp[:, original]
        permuted_labels = [perm[l] for l in labels]
        moved, _ = ctc_loss(permuted_logp, permuted_labels)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_long_input_stays_finite(self):
        rng = np.random.default_rng(11)
        logp = random_logp(rng, 198, 38)
        loss, grad = ctc_loss(logp, [1, 5, 9, 3])
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestCtcLossBatch:
    def assert_matches_per_sample(self, logp, labels):
        losses, grad = ctc_loss_batch(logp, labels)
        assert losses.shape == (len(labels),)
        assert grad.shape == logp.shape
        assert np.array_equal(ctc_nll_batch(logp, labels), losses)
        for b, seq in enumerate(labels):
            loss, want = ctc_loss(logp[b], seq)
            assert np.allclose(losses[b], loss, rtol=0, atol=1e-12)
            assert np.allclose(grad[b], want, rtol=0, atol=1e-12)

    def test_mixed_lengths_match_per_sample_loop(self):
        rng = np.random.default_rng(20)
        t_len = 8
        labels = [
            [3],                    # length 1
            [1, 1],                 # blank-separated repeat
            [0, 2, 2, 1, 1, 0],     # needs exactly min_frames == t_len
            [4, 0, 4],
            [2, 2, 2],
        ]
        assert min_frames(labels[2]) == t_len
        logp = np.stack([random_logp(rng, t_len, 6) for _ in labels])
        self.assert_matches_per_sample(logp, labels)

    def test_equal_lengths_match_per_sample_loop(self):
        rng = np.random.default_rng(21)
        labels = [[0, 1, 2], [2, 2, 0], [1, 0, 1], [3, 3, 3]]
        logp = np.stack([random_logp(rng, 12, 5) for _ in labels])
        self.assert_matches_per_sample(logp, labels)

    def test_random_batches_match_per_sample_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            t_len = int(rng.integers(1, 40))
            n_classes = int(rng.integers(2, 9))
            labels = []
            while len(labels) < rng.integers(1, 9):
                seq = list(rng.integers(0, n_classes - 1,
                                        size=rng.integers(1, 12)))
                if min_frames(seq) <= t_len:
                    labels.append(seq)
            logp = np.stack([random_logp(rng, t_len, n_classes) for _ in labels])
            self.assert_matches_per_sample(logp, labels)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(23)
        n_classes = 4
        for t_len in range(1, 5):
            for _ in range(10):
                labels = []
                while len(labels) < 3:
                    seq = list(rng.integers(0, n_classes - 1,
                                            size=rng.integers(1, 4)))
                    if min_frames(seq) <= t_len:
                        labels.append(seq)
                logp = np.stack([random_logp(rng, t_len, n_classes)
                                 for _ in labels])
                losses, _ = ctc_loss_batch(logp, labels)
                for b, seq in enumerate(labels):
                    want = ctc_brute_force(np.exp(logp[b]), seq)
                    assert np.exp(-losses[b]) == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # a random weight per sample checks that each sample's gradient
        # lands in its own rows
        rng = np.random.default_rng(24)
        labels = [[0], [1, 1], [2, 0, 3]]
        logp = np.stack([random_logp(rng, 5, 5) for _ in labels])
        weights = rng.normal(size=len(labels))

        def loss():
            return float(ctc_loss_batch(logp, labels)[0] @ weights)

        _, grad = ctc_loss_batch(logp, labels)
        analytic = grad * weights[:, None, None]
        numeric = finite_difference(loss, logp)
        assert relative_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("bad, error", [
        ([0, 1, 0, 1], InfeasibleLengthError),  # 4 frames needed, 3 given
        ([2, 2, 2], InfeasibleLengthError),     # 5 frames needed
        ([], ValueError),
        ([4], ValueError),                      # the blank id
        ([-1], ValueError),
    ])
    def test_one_bad_sample_fails_the_batch(self, bad, error):
        rng = np.random.default_rng(25)
        logp = np.stack([random_logp(rng, 3, 5) for _ in range(3)])
        with pytest.raises(error):
            ctc_loss_batch(logp, [[0, 1], bad, [3]])
        with pytest.raises(error):
            ctc_nll_batch(logp, [[0, 1], bad, [3]])

    def test_label_count_must_match_batch(self):
        logp = random_logp(np.random.default_rng(26), 3, 5)[None]
        with pytest.raises(ValueError):
            ctc_loss_batch(logp, [[0], [1]])
        with pytest.raises(ValueError):
            ctc_nll_batch(logp, [[0], [1]])


def logp_from_argmax(frames, n_classes):
    """Log-prob rows whose argmax follows ``frames``."""
    out = np.full((len(frames), n_classes), np.log(0.01))
    for t, k in enumerate(frames):
        out[t, k] = np.log(0.9)
    return out


class TestGreedyDecode:
    BLANK = 37

    def test_standard_collapse(self):
        b = 22  # 'b'
        nasal_o = 14  # 'ɔ̃'
        logp = logp_from_argmax([b, b, self.BLANK, nasal_o], 38)
        assert greedy_decode(logp) == [b, nasal_o]

    def test_all_blank(self):
        logp = logp_from_argmax([self.BLANK] * 5, 38)
        assert greedy_decode(logp) == []

    def test_blank_separated_repeat_merges(self):
        a = 3
        logp = logp_from_argmax([a, self.BLANK, a], 38)
        assert greedy_decode(logp) == [a]

    def test_ties_pick_lowest_id(self):
        logp = np.zeros((2, 38))
        assert greedy_decode(logp) == [0]

    def test_never_blank_never_adjacent_repeat(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            logp = rng.normal(size=(rng.integers(1, 30), 6))
            ids = greedy_decode(logp)
            assert 5 not in ids
            assert all(x != y for x, y in zip(ids, ids[1:]))
