"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time

import numpy as np
import pytest

from conftest import TINY_MODEL
from oracles import (
    ctc_brute_force,
    finite_difference,
    naive_mfcc,
    relative_error,
)
from phonoscribe import ctc, dsp
from phonoscribe.analysis import (
    distance_stats,
    error_pairs,
    phoneme_accuracy,
    suspects,
    confusion_matrix,
)
from phonoscribe.analysis import PredictionPair
from phonoscribe.corpus import PageRecord, filter_samples
from phonoscribe.ipa import INVENTORY, levenshtein, render_ipa, tokenize_ipa
from phonoscribe.nn import (
    INPUT_WIDTH,
    BatchNorm1d,
    Conv1d,
    LSTM,
    Linear,
    ReLU,
    TranscriptionModel,
)
from phonoscribe.training import infer, train_run

from synth import TONE_PHONEMES, tone_clip

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def announce(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def make_pair(word, target_text, predicted_text):
    return PredictionPair.build(word, f"{word}.wav",
                                tokenize_ipa(target_text),
                                tokenize_ipa(predicted_text))


# --------------------------------------------------------------------------
# 1. CTC loss equals brute-force path enumeration.

def test_criterion_1_ctc_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    n_classes = 5
    checked = 0
    for t_len in (1, 2, 3, 4):
        for lab_len in (1, 2, 3):
            for _ in range(200):
                labels = list(rng.integers(0, n_classes - 1, size=lab_len))
                logp = ctc.log_softmax(rng.normal(size=(t_len, n_classes)) * 2)
                if t_len < ctc.min_frames(labels):
                    with pytest.raises(ctc.InfeasibleLengthError):
                        ctc.ctc_loss(logp, labels)
                    assert ctc_brute_force(np.exp(logp), labels) == 0.0
                    continue
                loss, _ = ctc.ctc_loss(logp, labels)
                want = ctc_brute_force(np.exp(logp), labels)
                assert abs(np.exp(-loss) - want) <= 1e-9
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 1000
    assert elapsed < 30.0
    announce(1, f"CTC oracle equivalence, {checked} instances, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Analytic gradients match central finite differences everywhere.

def _check_full_gradients(layer, x, forward, probe_rng, tol=GRAD_TOL):
    probe = probe_rng.normal(size=forward(x).shape)

    def loss():
        return float((forward(x) * probe).sum())

    dx = layer.backward(probe)
    assert relative_error(dx, finite_difference(loss, x, FD_STEP)) < tol
    grads = dict(layer.grads)
    for name, param in layer.params.items():
        numeric = finite_difference(loss, param, FD_STEP)
        assert relative_error(grads[name], numeric) < tol, name


def test_criterion_2_gradient_checks():
    started = time.perf_counter()
    instances = 20

    for i in range(instances):
        rng = np.random.default_rng(200 + i)
        layer = Conv1d(3, 4, 3, rng=rng, dtype=np.float64)
        _check_full_gradients(layer, rng.normal(size=(2, 6, 3)),
                              layer.forward, rng)

    for i in range(instances):
        rng = np.random.default_rng(300 + i)
        layer = BatchNorm1d(3, dtype=np.float64)
        layer.params["gamma"][:] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"][:] = rng.normal(size=3)
        _check_full_gradients(layer, rng.normal(size=(2, 5, 3)),
                              lambda v: layer.forward(v, (0, 0)), rng)

    for i in range(instances):  # single LSTM cell
        rng = np.random.default_rng(400 + i)
        layer = LSTM(3, 4, rng=rng, dtype=np.float64)
        _check_full_gradients(layer, rng.normal(size=(2, 1, 3)),
                              layer.forward, rng, tol=1e-5)

    for i in range(instances):  # unrolled BPTT
        rng = np.random.default_rng(500 + i)
        layer = LSTM(3, 4, rng=rng, dtype=np.float64)
        _check_full_gradients(layer, rng.normal(size=(2, 5, 3)),
                              layer.forward, rng, tol=1e-5)

    for i in range(instances):
        rng = np.random.default_rng(600 + i)
        layer = Linear(4, 3, rng=rng, dtype=np.float64)
        _check_full_gradients(layer, rng.normal(size=(2, 5, 4)),
                              layer.forward, rng)

    for i in range(instances):  # CTC loss w.r.t. log-probabilities
        rng = np.random.default_rng(700 + i)
        t_len = int(rng.integers(3, 6))
        labels = [int(v) for v in rng.integers(0, 4, size=2)]
        if t_len < ctc.min_frames(labels):
            continue
        logp = ctc.log_softmax(rng.normal(size=(t_len, 5)))
        _, grad = ctc.ctc_loss(logp, labels)
        numeric = finite_difference(lambda: ctc.ctc_loss(logp, labels)[0],
                                    logp, FD_STEP)
        assert relative_error(grad, numeric) < 1e-6

    # full composed model at reduced widths, CTC on top
    config = TINY_MODEL

    def min_relu_input(model, x):
        # smallest |conv output|: finite differences are only trustworthy
        # when no ReLU input sits within the probe step of its kink
        closest = np.inf
        h = x
        for _, layer in model._layers:
            if isinstance(layer, ReLU):
                closest = min(closest, float(np.abs(h).min()))
            h = layer.forward(h, (model.dropout_seed, 0))
        return closest

    checked = 0
    seed = 800
    while checked < instances:
        seed += 1
        assert seed < 900, "could not find enough kink-safe instances"
        i = seed
        rng = np.random.default_rng(seed)
        model = TranscriptionModel(config, rng=rng, dtype=np.float64)
        x = rng.normal(size=(2, 6, INPUT_WIDTH))
        if min_relu_input(model, x) < 1e-3:
            continue
        checked += 1
        labels = [[int(v) for v in rng.integers(0, 37, size=2)]
                  for _ in range(2)]

        def loss():
            logits = model.forward(x, train=True)
            total = 0.0
            for b in range(2):
                logp = ctc.log_softmax(logits[b])
                total += ctc.ctc_loss(logp, labels[b])[0]
            return total / 2

        logits = model.forward(x, train=True)
        dlogits = np.empty_like(logits)
        for b in range(2):
            logp = ctc.log_softmax(logits[b])
            _, dlogp = ctc.ctc_loss(logp, labels[b])
            dlogits[b] = ctc.log_softmax_backward(dlogp, logp) / 2
        dx = model.backward(dlogits)
        analytic = model.gradients()

        coord_rng = np.random.default_rng(900 + i)
        for name, param in model.parameters().items():
            flat = param.reshape(-1)
            picks = coord_rng.choice(flat.size, size=min(3, flat.size),
                                     replace=False)
            got = np.array([analytic[name].reshape(-1)[c] for c in picks])
            num = np.zeros(len(picks))
            for j, c in enumerate(picks):
                keep = flat[c]
                flat[c] = keep + FD_STEP
                up = loss()
                flat[c] = keep - FD_STEP
                down = loss()
                flat[c] = keep
                num[j] = (up - down) / (2 * FD_STEP)
            assert relative_error(got, num) < GRAD_TOL, name

        x_flat = x.reshape(-1)
        picks = coord_rng.choice(x_flat.size, size=8, replace=False)
        got = np.array([dx.reshape(-1)[c] for c in picks])
        num = np.zeros(len(picks))
        for j, c in enumerate(picks):
            keep = x_flat[c]
            x_flat[c] = keep + FD_STEP
            up = loss()
            x_flat[c] = keep - FD_STEP
            down = loss()
            x_flat[c] = keep
            num[j] = (up - down) / (2 * FD_STEP)
        assert relative_error(got, num) < GRAD_TOL

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(2, f"gradient checks, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 3. The reduced model memorizes the synthetic tone corpus.

def test_criterion_3_synthetic_overfit(overfit_run):
    metrics = overfit_run["metrics"]
    n_epochs = len(metrics.epochs)
    assert n_epochs <= 300
    assert metrics.epochs[-1].eval_accuracy == 1.0
    assert overfit_run["elapsed"] < 600.0
    announce(3, f"synthetic overfit, eval accuracy 1.0 at epoch {n_epochs}, "
                f"{overfit_run['elapsed']:.0f}s")


def test_infer_recovers_word_from_overfit_checkpoint(overfit_run, tmp_path):
    # End-user chain on a fresh WAV of a word the trained model decodes
    # exactly (eval accuracy hit 1.0, so any eval-split word qualifies).
    from phonoscribe.training import _split

    _, eval_split = _split(overfit_run["samples"], overfit_run["config"])
    target = min(eval_split, key=lambda s: len(s.label))
    alphabet_ids = [p.id for p in TONE_PHONEMES]
    indices = [alphabet_ids.index(l) for l in target.label]
    wav = tmp_path / "clip.wav"
    wav.write_bytes(dsp.encode_wav(tone_clip(indices)))
    seq, text = infer(overfit_run["checkpoint"].transcriber(), wav)
    assert [p.id for p in seq] == target.label
    assert text == render_ipa([INVENTORY[i] for i in target.label])


# --------------------------------------------------------------------------
# 4. MFCC pipeline equals the naive-DFT reference; Parseval holds.

def test_criterion_4_mfcc_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(10):
        samples = rng.uniform(-0.8, 0.8, size=32000)
        clip = dsp.AudioClip(16000, samples)
        got = dsp.mfcc(clip)
        want = naive_mfcc(samples)
        assert got.shape == (198, 40)
        assert np.abs(got - want).max() <= 1e-6

    frames = rng.normal(size=(20, 512))
    mag = dsp.magnitude_spectrum(frames, 512)
    spectral = mag[:, 0] ** 2 + mag[:, -1] ** 2 + 2 * (mag[:, 1:-1] ** 2).sum(1)
    temporal = 512 * (frames ** 2).sum(1)
    assert np.abs(spectral / temporal - 1.0).max() <= 1e-6

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(4, f"MFCC oracle and Parseval, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Metric fixtures reproduce the published evaluation tables.

TOP10 = [
    ("1337", "lit", "mitasɑ̃tʁɑ̃mzɔt", 13),
    ("agent innervant", "aʒɑ̃inɛʁvɑ̃", "go", 11),
    ("brut de décoffrage", "bʁytdədekɔfʁaʒ", "sbɔʁdedtɔʁ", 10),
    ("Michel", "miʃɛl", "stɛ̃dəsɑ̃mʃɛl", 10),
    ("phalange proximale", "falɑ̃ʒpʁɔksimal", "falɑ̃ʒ", 9),
    ("analyse calorimétrique", "analɔgʃimik", "analiskalɔʁimetik", 9),
    ("àtha", "atɔ̃nœ̃blavi", "ata", 9),
    ("Wikitionnaire", "gazaefɛdəsfɛʁ", "gɔʒifisølɛʁ", 9),
    ("arrondir par défaut", "aʁɔ̃diʁpaʁdefo", "aʁɑ̃diʁ", 8),
    ("Luxembourg", "lyksɑ̃buʁ", "yseʁzɔnb", 8),
]

TABLE5_HEAD = [
    ("o", "ɔ", 1203),
    ("e", "ɛ", 651),
    ("ɛ", "e", 546),
    ("ɑ", "a", 316),
    ("ɔ", "o", 307),
    ("t", "d", 125),
    ("ɛ", "a", 104),
    ("a", "ɑ", 83),
]


def test_criterion_5a_phoneme_accuracy_fixture():
    pairs = [make_pair(f"ok{i}", "ŋ", "ŋ") for i in range(40)]
    pairs += [make_pair(f"bad{i}", "ŋ", "g") for i in range(17)]
    rows = phoneme_accuracy(confusion_matrix(pairs))
    row = next(r for r in rows if r.phoneme == "ŋ")
    assert (row.correct, row.incorrect) == (40, 17)
    assert row.accuracy == pytest.approx(0.70, abs=0.005)
    announce(5, "a: per-phoneme accuracy 40/17 -> 0.70")


def test_criterion_5b_error_pair_fixture():
    pairs = []
    count = 0
    for target, predicted, n in TABLE5_HEAD:
        pairs += [make_pair(f"p{count + i}", target, predicted)
                  for i in range(n)]
        count += n
    # pad the long tail: 90 distinct rare pairs (letters disjoint from the
    # head pairs), each strictly below the smallest head count of 83
    filler = [(a, b) for a in "ifvzmnljwy" for b in "ifvzmnljwy" if a != b]
    remaining = 10000 - count
    for index, (target, predicted) in enumerate(filler):
        if remaining <= 0:
            break
        take = min(82, remaining)
        pairs += [make_pair(f"f{index}_{i}", target, predicted)
                  for i in range(take)]
        remaining -= take
    assert remaining == 0
    ranked = error_pairs(confusion_matrix(pairs))
    head = [(r.target, r.predicted) for r in ranked[:8]]
    assert head == [(t, p) for t, p, _ in TABLE5_HEAD]
    assert ranked[0].share == pytest.approx(0.1203, abs=1e-9)
    assert sum(r.share for r in ranked) == pytest.approx(1.0, abs=1e-9)
    announce(5, "b: error-pair ranking, (o -> ɔ) at 12.03%")


def test_criterion_5c_suspects_fixture():
    pairs = [make_pair(w, t, p) for w, t, p, _ in TOP10]
    for (word, _, _, want), pair in zip(TOP10, pairs):
        assert pair.distance == want, word
    report = suspects(pairs)[:10]
    assert [r.distance for r in report] == [13, 11, 10, 10, 9, 9, 9, 9, 8, 8]
    assert report[0].word == "1337"
    assert report[0].target_ipa == "lit"
    # full ordering: falling distance, ties by word
    by_rule = sorted(
        ((p.distance, p.word) for p in pairs),
        key=lambda item: (-item[0], item[1]),
    )
    assert [(r.distance, r.word) for r in report] == by_rule
    announce(5, "c: top-10 suspects, distance 13 first")


def test_criterion_5d_distance_stats():
    pairs = [make_pair("a", "wi", "wi"), make_pair("b", "ku", "ku"),
             make_pair("c", "o", "ɔ")]
    mean, std = distance_stats(pairs)
    assert mean == pytest.approx(0.3333, abs=1e-4)
    assert std == pytest.approx(0.4714, abs=1e-4)
    announce(5, "d: distance stats on {0,0,1}")


# --------------------------------------------------------------------------
# 6. Restriction rules keep exactly the hand-computed set.

def test_criterion_6_filter_rules():
    def page(word, language="fra", ipa=("wi",), audio=None):
        audio = audio or (f"LL-Q150 (fra)-A-{word}.wav",)
        return PageRecord(word, language, list(ipa), list(audio))

    pages = [
        page("clean1"),
        page("english", language="eng"),
        page("clean2", ipa=("ku",)),
        page("twoipa", ipa=("ku", "kut")),
        page("clean3", ipa=("ato",)),
        page("badsymbol", ipa=("bra",)),
        page("clean4", ipa=("bɔ̃ʒuʁ",)),
        page("toolong", ipa=("ab" * 10,)),
        page("clean5", ipa=("sa",)),
        page("notll", audio=("bonjour.wav",)),
    ]
    kept, stats = filter_samples(pages)
    assert [s.word for s in kept] == ["clean1", "clean2", "clean3",
                                      "clean4", "clean5"]
    assert stats.input_count == 10
    assert stats.kept_count == 5
    assert stats.rejected_by_rule == {"language": 1, "single_ipa": 1,
                                      "inventory": 1, "length": 1,
                                      "ll_audio": 1}
    assert stats.input_count == stats.kept_count + sum(
        stats.rejected_by_rule.values())
    announce(6, "filter rules, 5 kept with one rejection per rule")


# --------------------------------------------------------------------------
# 7. Reference mode is bit-deterministic.

def test_criterion_7_determinism(tone_corpus, tmp_path):
    samples, norm = tone_corpus
    from conftest import overfit_config

    config = overfit_config(norm, epochs=3, stop_at=None)
    first = tmp_path / "run_a"
    second = tmp_path / "run_b"
    train_run(samples, config, run_dir=first)
    train_run(samples, config, run_dir=second)

    metrics_a = (first / "metrics.jsonl").read_bytes()
    assert metrics_a == (second / "metrics.jsonl").read_bytes()
    assert len(metrics_a.splitlines()) == 3
    for epoch in (1, 2, 3):
        name = f"epoch_{epoch}.phck"
        assert (first / name).read_bytes() == (second / name).read_bytes()
    announce(7, "byte-identical checkpoints and metrics across runs")


# --------------------------------------------------------------------------
# 8. Round-trip and metric axioms.

def test_criterion_8_roundtrip_and_axioms():
    rng = random.Random(808)

    for _ in range(1000):
        seq = [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(20))]
        assert tokenize_ipa(render_ipa(seq)) == seq

    def rand_seq():
        return [INVENTORY[rng.randrange(37)] for _ in range(rng.randrange(12))]

    for _ in range(1000):
        a, b, c = rand_seq(), rand_seq(), rand_seq()
        assert levenshtein(a, b) <= levenshtein(a, c) + levenshtein(c, b)

    pairs = []
    for i in range(150):
        target = "".join(INVENTORY[rng.randrange(37)].symbol
                         for _ in range(rng.randrange(1, 12)))
        predicted = "".join(INVENTORY[rng.randrange(37)].symbol
                            for _ in range(rng.randrange(0, 12)))
        pairs.append(make_pair(f"r{i}", target, predicted))
    cm = confusion_matrix(pairs)
    sums = cm.proportions.sum(axis=1)
    occupied = cm.counts.sum(axis=1) > 0
    assert np.abs(sums[occupied] - 1.0).max() <= 1e-9
    announce(8, "round-trip, triangle inequality, row stochasticity")
