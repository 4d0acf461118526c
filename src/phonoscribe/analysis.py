"""Error analytics over (target, predicted) transcription pairs.

Phoneme-level metrics come from the deterministic alignment in
``ipa.align``: a target phoneme counts as correct when its edit op is a
Match, incorrect on Substitute or Delete. Insertions belong to no target
phoneme; they are tallied separately and excluded from the confusion
matrix, which keeps one row per target phoneme (37 predicted columns plus
a "deleted" column). ``confusion_matrix`` aligns each pair once; the
per-phoneme accuracy and error-pair tables are read off its counts.

Word-level distance uses ``ipa.levenshtein`` (codepoint-weighted).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ipa import (
    INVENTORY,
    Delete,
    Insert,
    PhonemeSeq,
    align,
    levenshtein,
    render_ipa,
)

N_PHONEMES = len(INVENTORY)


@dataclass
class PredictionPair:
    word: str
    audio_filename: str
    target: PhonemeSeq
    predicted: PhonemeSeq
    distance: int

    @classmethod
    def build(cls, word: str, audio_filename: str, target: PhonemeSeq,
              predicted: PhonemeSeq) -> "PredictionPair":
        return cls(word, audio_filename, target, predicted,
                   levenshtein(target, predicted))

    @property
    def exact(self) -> bool:
        return self.target == self.predicted


@dataclass
class PhonemeAccuracyRow:
    phoneme: str
    correct: int
    incorrect: int
    accuracy: float


@dataclass
class ErrorPair:
    target: str
    predicted: str
    count: int
    share: float


@dataclass
class SuspectRow:
    word: str
    audio_filename: str
    target_ipa: str
    predicted_ipa: str
    distance: int


@dataclass
class ConfusionMatrix:
    """Row-stochastic target -> predicted proportions with a deleted column.

    ``counts`` is (37, 38) int: columns 0..36 are predicted phonemes,
    column 37 is deletions. ``proportions`` divides each row by its total
    (rows with no occurrences stay all-zero). ``inserted`` counts
    insertions per predicted phoneme.
    """

    counts: np.ndarray
    proportions: np.ndarray
    inserted: np.ndarray

    DELETED_COLUMN = N_PHONEMES


def confusion_matrix(pairs: Sequence[PredictionPair]) -> ConfusionMatrix:
    """Align each pair once and tally its ops; the other tables read this."""
    counts = np.zeros((N_PHONEMES, N_PHONEMES + 1), dtype=np.int64)
    inserted = np.zeros(N_PHONEMES, dtype=np.int64)
    for pair in pairs:
        for op in align(pair.target, pair.predicted):
            if isinstance(op, Insert):
                inserted[op.predicted.id] += 1
            elif isinstance(op, Delete):
                counts[op.target.id, ConfusionMatrix.DELETED_COLUMN] += 1
            else:  # Match or Substitute
                counts[op.target.id, op.predicted.id] += 1
    totals = counts.sum(axis=1, keepdims=True)
    proportions = np.divide(counts, totals, where=totals > 0,
                            out=np.zeros(counts.shape, dtype=np.float64))
    return ConfusionMatrix(counts=counts, proportions=proportions,
                           inserted=inserted)


def phoneme_accuracy(confusion: ConfusionMatrix) -> list[PhonemeAccuracyRow]:
    """Per-phoneme correct/incorrect counts, rows sorted by rising accuracy."""
    # align emits Match on equal symbols: the diagonal is exactly the Matches
    correct = np.diagonal(confusion.counts)
    incorrect = confusion.counts.sum(axis=1) - correct
    rows = [
        PhonemeAccuracyRow(
            phoneme=INVENTORY[i].symbol,
            correct=int(correct[i]),
            incorrect=int(incorrect[i]),
            accuracy=float(correct[i] / (correct[i] + incorrect[i])),
        )
        for i in range(N_PHONEMES)
        if correct[i] + incorrect[i] > 0
    ]
    rows.sort(key=lambda r: (r.accuracy, r.phoneme))
    return rows


def error_pairs(confusion: ConfusionMatrix) -> list[ErrorPair]:
    """Substitution pairs ranked by their share of all substitution errors."""
    substituted = confusion.counts[:, :N_PHONEMES].copy()
    np.fill_diagonal(substituted, 0)
    counts = {(int(t), int(p)): int(substituted[t, p])
              for t, p in zip(*np.nonzero(substituted))}
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        ErrorPair(
            target=INVENTORY[t].symbol,
            predicted=INVENTORY[p].symbol,
            count=n,
            share=n / total,
        )
        for (t, p), n in ranked
    ]


def distance_stats(pairs: Sequence[PredictionPair]) -> tuple[float, float]:
    """Population mean and std of the cached distances."""
    if not pairs:
        raise ValueError("no prediction pairs")
    distances = np.array([p.distance for p in pairs], dtype=np.float64)
    return float(distances.mean()), float(distances.std())


def suspects(pairs: Sequence[PredictionPair]) -> list[SuspectRow]:
    """Pairs ranked by falling distance (ties: word order); likely bad samples."""
    rows = [
        SuspectRow(
            word=p.word,
            audio_filename=p.audio_filename,
            target_ipa=render_ipa(p.target),
            predicted_ipa=render_ipa(p.predicted),
            distance=p.distance,
        )
        for p in pairs
    ]
    rows.sort(key=lambda r: (-r.distance, r.word))
    return rows


@dataclass
class LengthStats:
    exact_target_mean: float | None
    error_target_mean: float | None
    exact_predicted_mean: float | None
    error_predicted_mean: float | None


def length_accuracy(pairs: Sequence[PredictionPair]) -> LengthStats:
    """Mean sequence lengths split by exact match vs not.

    Reported for both target and predicted lengths; a mean over an empty
    partition is absent (None).
    """
    if not pairs:
        raise ValueError("no prediction pairs")

    def mean(values: list[int]) -> float | None:
        return float(np.mean(values)) if values else None

    exact = [p for p in pairs if p.exact]
    wrong = [p for p in pairs if not p.exact]
    return LengthStats(
        exact_target_mean=mean([len(p.target) for p in exact]),
        error_target_mean=mean([len(p.target) for p in wrong]),
        exact_predicted_mean=mean([len(p.predicted) for p in exact]),
        error_predicted_mean=mean([len(p.predicted) for p in wrong]),
    )


def exact_match_accuracy(pairs: Sequence[PredictionPair]) -> float:
    if not pairs:
        raise ValueError("no prediction pairs")
    return sum(p.exact for p in pairs) / len(pairs)


@dataclass
class Report:
    exact_match_accuracy: float
    phoneme_accuracy: list[PhonemeAccuracyRow]
    error_pairs: list[ErrorPair]
    distance_mean: float
    distance_std: float
    length: LengthStats
    suspects: list[SuspectRow]
    confusion: ConfusionMatrix
    sample_count: int


def build_report(pairs: Sequence[PredictionPair]) -> Report:
    confusion = confusion_matrix(pairs)
    distance_mean, distance_std = distance_stats(pairs)
    return Report(
        exact_match_accuracy=exact_match_accuracy(pairs),
        phoneme_accuracy=phoneme_accuracy(confusion),
        error_pairs=error_pairs(confusion),
        distance_mean=distance_mean,
        distance_std=distance_std,
        length=length_accuracy(pairs),
        suspects=suspects(pairs),
        confusion=confusion,
        sample_count=len(pairs),
    )


def report_to_dict(report: Report) -> dict:
    return {
        "sample_count": report.sample_count,
        "exact_match_accuracy": report.exact_match_accuracy,
        "phoneme_accuracy": [asdict(r) for r in report.phoneme_accuracy],
        "error_pairs": [asdict(r) for r in report.error_pairs],
        "distance": {"mean": report.distance_mean, "std": report.distance_std},
        "length": asdict(report.length),
        "suspects": [asdict(r) for r in report.suspects],
        "confusion": {
            "symbols": [p.symbol for p in INVENTORY],
            "counts": report.confusion.counts.tolist(),
            "proportions": report.confusion.proportions.tolist(),
            "inserted": report.confusion.inserted.tolist(),
        },
    }


def _markdown_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def report_to_markdown(report: Report) -> str:
    lines = ["# Evaluation report", ""]
    lines.append(f"Samples: {report.sample_count}")
    lines.append(f"Exact-match accuracy: {report.exact_match_accuracy:.4f}")
    lines.append(f"Edit distance: mean {report.distance_mean:.2f}, "
                 f"std {report.distance_std:.2f}")
    lines.append("")

    lines.append("## Accuracy per phoneme")
    lines.extend(_markdown_table(
        ["Target phoneme", "Correct", "Incorrect", "Average accuracy"],
        [[r.phoneme, str(r.correct), str(r.incorrect), f"{r.accuracy:.2f}"]
         for r in report.phoneme_accuracy],
    ))
    lines.append("")

    lines.append("## Most encountered error pairs")
    lines.extend(_markdown_table(
        ["Target phoneme", "Predicted phoneme", "Percentage of all errors"],
        [[r.target, r.predicted, f"{100 * r.share:.2f}%"]
         for r in report.error_pairs[:10]],
    ))
    lines.append("")

    lines.append("## Highest-distance samples")
    lines.extend(_markdown_table(
        ["Word", "Target", "Prediction", "Distance"],
        [[r.word, f"/{r.target_ipa}/", f"/{r.predicted_ipa}/", str(r.distance)]
         for r in report.suspects[:10]],
    ))
    lines.append("")
    return "\n".join(lines)


def write_report_bundle(report_dir: str | Path, report: Report) -> None:
    """Write report.json, report.md and confusion.csv into ``report_dir``."""
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    with open(report_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report_to_dict(report), f, ensure_ascii=False, indent=2,
                  sort_keys=True)
    (report_dir / "report.md").write_text(report_to_markdown(report),
                                          encoding="utf-8")
    with open(report_dir / "confusion.csv", "w", encoding="utf-8",
              newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["target"] + [p.symbol for p in INVENTORY] + ["deleted"])
        for i, phoneme in enumerate(INVENTORY):
            row = [f"{v:.6f}" for v in report.confusion.proportions[i]]
            writer.writerow([phoneme.symbol] + row)
