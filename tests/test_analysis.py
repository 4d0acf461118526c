import csv
import json
import random
from collections import Counter

import numpy as np
import pytest

from phonoscribe.analysis import (
    ConfusionMatrix,
    EmptyInputError,
    PredictionPair,
    build_report,
    confusion_matrix,
    distance_stats,
    error_pairs,
    exact_match_accuracy,
    length_accuracy,
    phoneme_accuracy,
    suspects,
    write_report_bundle,
)
from phonoscribe.ipa import (BY_SYMBOL, INVENTORY, Delete, Match, Substitute,
                             align, tokenize_ipa)


def pair(target_text, predicted_text, word="w", filename="w.wav"):
    return PredictionPair.build(word, filename, tokenize_ipa(target_text),
                                tokenize_ipa(predicted_text))


class TestPredictionPair:
    def test_distance_cached(self):
        p = pair("abɛ", "aɛ")
        assert p.distance == 1

    def test_exact_flag(self):
        assert pair("ab", "ab").exact
        assert not pair("ab", "a").exact


class TestPhonemeAccuracy:
    def test_engma_fixture(self):
        # 40 correct plus 17 wrong occurrences of ŋ -> accuracy 0.70
        pairs = [pair("ŋ", "ŋ") for _ in range(40)]
        pairs += [pair("ŋ", "g") for _ in range(17)]
        rows = phoneme_accuracy(confusion_matrix(pairs))
        row = next(r for r in rows if r.phoneme == "ŋ")
        assert (row.correct, row.incorrect) == (40, 17)
        assert row.accuracy == pytest.approx(0.70, abs=0.005)

    def test_all_exact_pairs_give_ones(self):
        pairs = [pair("bɔ̃ʒuʁ", "bɔ̃ʒuʁ"), pair("wi", "wi")]
        rows = phoneme_accuracy(confusion_matrix(pairs))
        assert rows
        assert all(r.accuracy == 1.0 for r in rows)

    def test_forced_substitution(self):
        rows = phoneme_accuracy(confusion_matrix([pair("o", "ɔ")]))
        row = next(r for r in rows if r.phoneme == "o")
        assert (row.correct, row.incorrect) == (0, 1)

    def test_insertions_touch_no_target_row(self):
        rows = phoneme_accuracy(confusion_matrix([pair("a", "ab")]))
        assert {r.phoneme for r in rows} == {"a"}

    def test_sorted_by_rising_accuracy(self):
        pairs = [pair("a", "a"), pair("o", "ɔ"), pair("u", "u"),
                 pair("u", "u"), pair("u", "y")]
        rows = phoneme_accuracy(confusion_matrix(pairs))
        accuracies = [r.accuracy for r in rows]
        assert accuracies == sorted(accuracies)


class TestConfusionMatrix:
    def test_single_exact_pair_is_diagonal(self):
        cm = confusion_matrix([pair("a", "a")])
        a = BY_SYMBOL["a"].id
        assert cm.counts[a, a] == 1
        assert cm.proportions[a, a] == 1.0

    def test_deletion_column(self):
        # alignment gives Match(a), Delete(b)
        cm = confusion_matrix([pair("ab", "a")])
        a, b = BY_SYMBOL["a"].id, BY_SYMBOL["b"].id
        assert cm.proportions[a, a] == 1.0
        assert cm.proportions[b, ConfusionMatrix.DELETED_COLUMN] == 1.0

    def test_epsilon_row_rendering(self):
        # 92% kept, 6% -> e, 1% -> a, 1% deleted
        pairs = [pair("ɛ", "ɛ") for _ in range(92)]
        pairs += [pair("ɛ", "e") for _ in range(6)]
        pairs += [pair("ɛ", "a")]
        pairs += [pair("ɛ", "")]
        cm = confusion_matrix(pairs)
        eps = BY_SYMBOL["ɛ"].id
        assert cm.proportions[eps, eps] == pytest.approx(0.92)
        assert cm.proportions[eps, BY_SYMBOL["e"].id] == pytest.approx(0.06)
        assert cm.proportions[eps, BY_SYMBOL["a"].id] == pytest.approx(0.01)
        assert cm.proportions[eps, ConfusionMatrix.DELETED_COLUMN] == \
            pytest.approx(0.01)

    def test_rows_stochastic_on_random_pairs(self):
        rng = random.Random(8)
        pairs = []
        for _ in range(100):
            t = "".join(INVENTORY[rng.randrange(37)].symbol
                        for _ in range(rng.randrange(1, 10)))
            p = "".join(INVENTORY[rng.randrange(37)].symbol
                        for _ in range(rng.randrange(0, 10)))
            pairs.append(pair(t, p))
        cm = confusion_matrix(pairs)
        sums = cm.proportions.sum(axis=1)
        occupied = cm.counts.sum(axis=1) > 0
        assert np.abs(sums[occupied] - 1.0).max() < 1e-9
        assert np.all(sums[~occupied] == 0.0)

    def test_insertions_counted_separately(self):
        cm = confusion_matrix([pair("a", "ab")])
        assert cm.inserted[BY_SYMBOL["b"].id] == 1
        assert cm.counts.sum() == 1  # only the Match(a)


class TestErrorPairs:
    def test_single_substitution_is_everything(self):
        ranked = error_pairs(confusion_matrix([pair("o", "ɔ")]))
        assert len(ranked) == 1
        assert ranked[0].target == "o"
        assert ranked[0].predicted == "ɔ"
        assert ranked[0].share == 1.0

    def test_shares_sum_to_one(self):
        pairs = [pair("o", "ɔ"), pair("e", "ɛ"), pair("e", "ɛ"),
                 pair("a", "ɑ")]
        ranked = error_pairs(confusion_matrix(pairs))
        assert sum(r.share for r in ranked) == pytest.approx(1.0, abs=1e-9)

    def test_ranked_descending(self):
        pairs = [pair("e", "ɛ")] * 3 + [pair("o", "ɔ")] * 5 + [pair("a", "ɑ")]
        ranked = error_pairs(confusion_matrix(pairs))
        assert [(r.target, r.predicted) for r in ranked[:2]] == [
            ("o", "ɔ"), ("e", "ɛ")
        ]

    def test_deletions_not_counted(self):
        assert error_pairs(confusion_matrix([pair("ab", "a")])) == []


class TestTablesFromConfusion:
    def test_match_the_per_op_reference_on_random_pairs(self):
        # reference: tally the edit ops of each pair directly
        rng = random.Random(11)
        pairs = []
        for _ in range(300):
            alphabet = INVENTORY[:rng.randrange(2, 8)]
            t = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
            p = [rng.choice(alphabet) for _ in range(rng.randrange(0, 8))]
            pairs.append(PredictionPair.build("w", "w.wav", t, p))
        correct, incorrect, substituted = Counter(), Counter(), Counter()
        for p in pairs:
            for op in align(p.target, p.predicted):
                if isinstance(op, Match):
                    correct[op.target.symbol] += 1
                elif isinstance(op, (Substitute, Delete)):
                    incorrect[op.target.symbol] += 1
                if isinstance(op, Substitute):
                    substituted[op.target.symbol, op.predicted.symbol] += 1
        cm = confusion_matrix(pairs)
        rows = {r.phoneme: (r.correct, r.incorrect) for r in phoneme_accuracy(cm)}
        assert rows == {s: (correct[s], incorrect[s]) for s in correct | incorrect}
        ranked = error_pairs(cm)
        assert {(r.target, r.predicted): r.count for r in ranked} == substituted
        assert [r.count for r in ranked] == sorted(substituted.values(),
                                                   reverse=True)


class TestDistanceStats:
    def test_all_exact(self):
        mean, std = distance_stats([pair("a", "a"), pair("b", "b")])
        assert (mean, std) == (0.0, 0.0)

    def test_hand_computed(self):
        pairs = [pair("a", "a"), pair("b", "b"), pair("o", "ɔ")]
        mean, std = distance_stats(pairs)
        assert mean == pytest.approx(1 / 3, abs=1e-4)
        assert std == pytest.approx(0.4714, abs=1e-4)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            distance_stats([])


TOP10_FIXTURE = [
    ("1337", "lit", "mitasɑ̃tʁɑ̃mzɔt"),
    ("agent innervant", "aʒɑ̃inɛʁvɑ̃", "go"),
    ("brut de décoffrage", "bʁytdədekɔfʁaʒ", "sbɔʁdedtɔʁ"),
    ("Michel", "miʃɛl", "stɛ̃dəsɑ̃mʃɛl"),
    ("phalange proximale", "falɑ̃ʒpʁɔksimal", "falɑ̃ʒ"),
    ("analyse calorimétrique", "analɔgʃimik", "analiskalɔʁimetik"),
    ("àtha", "atɔ̃nœ̃blavi", "ata"),
    ("Wikitionnaire", "gazaefɛdəsfɛʁ", "gɔʒifisølɛʁ"),
    ("arrondir par défaut", "aʁɔ̃diʁpaʁdefo", "aʁɑ̃diʁ"),
    ("Luxembourg", "lyksɑ̃buʁ", "yseʁzɔnb"),
]


def top10_pairs():
    return [pair(t, p, word=w) for w, t, p in TOP10_FIXTURE]


class TestSuspects:
    def test_top10_distances_and_order(self):
        report = suspects(top10_pairs())
        assert [r.distance for r in report] == [13, 11, 10, 10, 9, 9, 9, 9, 8, 8]
        # falling distance, ties by word
        assert [r.word for r in report] == [
            "1337",
            "agent innervant",
            "Michel",
            "brut de décoffrage",
            "Wikitionnaire",
            "analyse calorimétrique",
            "phalange proximale",
            "àtha",
            "Luxembourg",
            "arrondir par défaut",
        ]

    def test_empty_input(self):
        assert suspects([]) == []

    def test_rows_name_the_recording(self, tmp_path):
        # two recordings of one word: only the file tells the rows apart
        pairs = [pair("wi", "ku", word="oui", filename="LL-a.wav"),
                 pair("wi", "ku", word="oui", filename="LL-b.wav")]
        assert [r.audio_filename for r in suspects(pairs)] == ["LL-a.wav",
                                                              "LL-b.wav"]
        write_report_bundle(tmp_path, build_report(pairs))
        data = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert [r["audio_filename"] for r in data["suspects"]] == [
            "LL-a.wav", "LL-b.wav"]


class TestLengthAccuracy:
    def test_partition_means(self):
        pairs = [pair("abɛ", "abɛ"), pair("bɔ̃ʒuʁ", "bɔ̃ʒuʁ"),
                 pair("mitasɑ̃tʁɑ̃mzɔt", "lit")]
        stats = length_accuracy(pairs)
        assert stats.exact_target_mean == pytest.approx(4.0)
        assert stats.error_target_mean == pytest.approx(13.0)
        assert stats.error_predicted_mean == pytest.approx(3.0)

    def test_all_exact_reports_absent_error_mean(self):
        stats = length_accuracy([pair("ab", "ab")])
        assert stats.error_target_mean is None
        assert stats.exact_target_mean == 2.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            length_accuracy([])


class TestReportBundle:
    def test_files_written(self, tmp_path):
        report = build_report(top10_pairs() + [pair("wi", "wi")])
        write_report_bundle(tmp_path, report)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "confusion.csv").exists()

    def test_report_keeps_every_suspect_and_markdown_shows_ten(self, tmp_path):
        pairs = [pair("ab", "ku", word=f"w{i:02d}") for i in range(25)]
        report = build_report(pairs + [pair("wi", "wi", word="exact")])
        assert len(report.suspects) == 26
        assert [r.word for r in report.suspects[:25]] == [
            f"w{i:02d}" for i in range(25)]
        assert report.suspects[-1].distance == 0
        write_report_bundle(tmp_path, report)
        data = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert len(data["suspects"]) == 26
        markdown = (tmp_path / "report.md").read_text("utf-8")
        table = markdown.split("## Highest-distance samples")[1]
        assert table.count("| w") == 10

    def test_report_json_contents(self, tmp_path):
        report = build_report([pair("wi", "wi"), pair("o", "ɔ")])
        write_report_bundle(tmp_path, report)
        data = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert data["exact_match_accuracy"] == 0.5
        assert data["sample_count"] == 2
        assert data["error_pairs"][0]["target"] == "o"
        assert len(data["confusion"]["symbols"]) == 37

    def test_confusion_csv_dimensions(self, tmp_path):
        report = build_report([pair("wi", "wi")])
        write_report_bundle(tmp_path, report)
        with open(tmp_path / "confusion.csv", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 38  # header + 37 target rows
        assert rows[0][0] == "target"
        assert rows[0][-1] == "deleted"
        assert all(len(r) == 39 for r in rows)  # label + 37 + deleted

    def test_exact_match_accuracy_values(self):
        assert exact_match_accuracy([pair("a", "a")]) == 1.0
        assert exact_match_accuracy([pair("a", "b")]) == 0.0
