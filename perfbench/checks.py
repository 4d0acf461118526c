"""Output checks of the benchmark.

Each check returns a list of problems, empty when the output is correct.
They compare against facts that hold for any correct implementation (the
generator's ground truth, counts, consistency between two outputs of the
same run, a float64 recomputation within a stated tolerance), so a
numeric rewrite that keeps the program correct keeps them passing.
"""

from __future__ import annotations

import json
import math

# float32 training against a float64 copy of the same weights, inputs and
# dropout masks. Measured relative gaps are 6e-8 to 3e-7; a wrong layer or
# loss gives gaps of order one.
FIRST_STEP_RTOL = 1e-4

# Two decode paths of one clip (eval on float32 feature files, infer on
# features computed in float64, B=1 or batched) give logits that differ by
# rounding: measured gaps reach 4e-8 while the seeded checkpoint's top-two
# logit margins go down to 1e-7. So a frame's argmax may flip, rarely, and
# one flipped frame changes at most two phonemes, at most 4 codepoints. A
# clip swapped, mis-padded or decoded through a wrong layer changes most
# clips.
MAX_FLIPPED_CLIPS = 1
MAX_FLIP_DISTANCE = 4


def losses_finite(epochs) -> list[str]:
    return [f"epoch {e.epoch}: non-finite {field} {value}"
            for e in epochs
            for field, value in (("train_loss", e.train_loss),
                                 ("eval_loss", e.eval_loss))
            if not math.isfinite(value)]


def first_step_matches(loss32: float, loss64: float,
                       rtol: float = FIRST_STEP_RTOL) -> list[str]:
    gap = abs(loss32 - loss64)
    if math.isfinite(gap) and gap <= rtol * max(1.0, abs(loss64)):
        return []
    return [f"first-step loss {loss32!r} differs from the float64 "
            f"reference {loss64!r} by more than rtol {rtol}"]


def filter_counts(stdout: str, truth: dict) -> list[str]:
    try:
        stats = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"filter printed no JSON: {stdout[:80]!r}"]
    if stats != truth:
        return [f"filter stats {stats} differ from ground truth {truth}"]
    return []


def featurize_lines(stdout: str, names: list[str], frames: int,
                    coefficients: int) -> list[str]:
    """One ``<name>\\t<T>x<C>`` line per clip, in sample order."""
    expected = [f"{n}\t{frames}x{coefficients}" for n in names]
    got = stdout.splitlines()
    return [f"featurize line {i}: {g!r}, expected {e!r}"
            for i, (g, e) in enumerate(zip(got, expected)) if g != e] + (
        [f"featurize printed {len(got)} lines for {len(names)} clips"]
        if len(got) != len(names) else [])


def eval_report(stdout: str, report: dict, clips: int) -> list[str]:
    problems = []
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"eval printed no JSON: {stdout[:80]!r}"]
    if summary.get("samples") != clips:
        problems.append(f"eval printed samples={summary.get('samples')}, "
                        f"expected {clips}")
    if report.get("sample_count") != clips:
        problems.append(f"report.json sample_count={report.get('sample_count')}, "
                        f"expected {clips}")
    if summary.get("exact_match_accuracy") != report.get("exact_match_accuracy"):
        problems.append("eval stdout and report.json disagree on accuracy")
    return problems


def suspects_rows(stdout: str, report: dict) -> list[str]:
    """Printed rows are report.json's suspects, in order, highest distance first."""
    rows = report.get("suspects", [])
    expected = [f"{r['word']}\t{r['target_ipa']}\t{r['predicted_ipa']}"
                f"\t{r['distance']}" for r in rows]
    problems = []
    if stdout.splitlines() != expected:
        problems.append("suspects output differs from report.json suspects")
    distances = [r["distance"] for r in rows]
    if distances != sorted(distances, reverse=True):
        problems.append("suspects are not ranked by falling distance")
    return problems


def infer_lines(stdout: str, wavs: list[str]) -> list[str]:
    """Exactly one ``<wav>\\t<ipa>`` line per WAV, in argument order."""
    got = stdout.splitlines()
    if len(got) != len(wavs):
        return [f"infer printed {len(got)} lines for {len(wavs)} WAVs"]
    return [f"infer line {i} is {g!r}, expected the {w} prefix"
            for i, (g, w) in enumerate(zip(got, wavs))
            if not g.startswith(f"{w}\t")]


def codepoint_distance(a: str, b: str) -> int:
    """Levenshtein distance over Unicode codepoints."""
    row = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, cb in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                       prev + (ca != cb))
    return row[-1]


def transcripts_informative(transcripts: list[str]) -> list[str]:
    """Most transcriptions are non-empty and distinct, so comparing them
    between commands can show a clip decoded wrongly or swapped."""
    distinct = {t for t in transcripts if t}
    if 2 * len(distinct) > len(transcripts):
        return []
    return [f"only {len(distinct)} distinct non-empty transcriptions of "
            f"{len(transcripts)} clips: the output checks would be vacuous"]


def transcripts_agree(what: str, got: dict[str, str],
                      reference: dict[str, str]) -> list[str]:
    """``got`` (clip -> IPA) equals the reference transcriptions, up to one
    clip with one frame flipped by rounding (see MAX_FLIPPED_CLIPS)."""
    unknown = sorted(set(got) - set(reference))
    if unknown:
        return [f"{what}: no reference transcription for {unknown[:3]}"]
    differ = [k for k in got if got[k] != reference[k]]
    problems = [f"{what}: {k} transcribed {got[k]!r}, reference {reference[k]!r}"
                for k in differ
                if codepoint_distance(got[k], reference[k]) > MAX_FLIP_DISTANCE]
    if len(differ) > MAX_FLIPPED_CLIPS:
        problems.append(f"{what}: {len(differ)} of {len(got)} transcriptions "
                        f"differ from the reference")
    return problems
