"""Smoke test of the benchmark at tiny sizes.

Every workload builds from a seed and emits every metric BENCHMARK.json
names, with its unit; the output checks trip on corrupted outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from phonoscribe.nn import TranscriptionModel  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {  # end-to-end metrics of the fuller report line, per workload
    "train_shipped": {"train_samples_per_s", "train_run_s", "setup_s",
                      "peak_rss_mb"},
    "train_gate": {"train_samples_per_s", "train_run_s", "setup_s",
                   "peak_rss_mb"},
    "audit_corpus": {"filter_pages_per_s", "featurize_clips_per_s",
                     "eval_clips_per_s", "infer_clips_per_s", "infer_word_s",
                     "audit_clips_per_s", "setup_s", "peak_rss_mb"},
}


def run_bench(tmp_path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, proc.stderr


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_emits_every_metric(tmp_path, workload, trace):
    code, lines, stderr = run_bench(tmp_path, workload, trace)
    assert code == 0, stderr
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    assert all(isinstance(e["value"], (int, float))
               for e in result["metrics"].values())
    assert report["environment"]["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["error_rate"]["value"] == 0
    if not trace:
        assert set(report["metrics"]) == REPORTED[workload]
        assert all(m["unit"] for m in report["metrics"].values())
    else:
        dump = json.loads(stderr.splitlines()[-1])["spans"]
        spans = dump["spans"]
        assert "training" in dump["names"] or "cli.infer" in dump["names"]
        for i, (_, start, end, parent) in enumerate(spans):
            assert start <= end
            if parent >= 0:
                assert parent < i
                assert spans[parent][1] <= start and end <= spans[parent][2]
    assert not (tmp_path / ".perfbench_work").exists()


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_gate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, name):
    def inputs(seed, sub):
        workload = workloads.make(name, seed, tmp_path / sub, smoke=True)
        workload.setup()
        if isinstance(workload, workloads.AuditWorkload):
            return [p.read_bytes() for p in sorted(workload.root.rglob("*"))
                    if p.is_file()]
        return [s.features.tobytes() for s in workload.samples]

    assert inputs(5, "a") == inputs(5, "b")
    assert inputs(5, "a") != inputs(6, "c")


def test_train_labels_cover_inventory_and_length_range():
    labels = workloads.word_labels(np.random.default_rng(0), 40,
                                   tuple(range(37)), (1, 19))
    assert {p for word in labels for p in word} == set(range(37))
    assert {len(w) for w in labels} >= {1, 19}
    assert len({tuple(w) for w in labels}) == 40
    assert all(a != b for w in labels for a, b in zip(w, w[1:]))


def test_manifest_ground_truth_matches_filter(tmp_path):
    from phonoscribe import corpus

    workload = workloads.make("audit_corpus", 2, tmp_path, smoke=True)
    workload.setup()
    samples, stats = corpus.filter_samples(
        corpus.parse_manifest(workload.root / "manifest.csv"))
    assert stats.rejected_by_rule == workload.expected["rejected_by_rule"]
    assert [s.audio_filename for s in samples] == workload.names
    _, expected, _ = workloads.generate_manifest(np.random.default_rng(0), 500, 12)
    assert all(count > 0 for count in expected["rejected_by_rule"].values())


def test_checks_pass_good_and_trip_on_corrupted_outputs():
    truth = {"input_count": 5, "kept_count": 2,
             "rejected_by_rule": {"language": 3}}
    assert checks.filter_counts(json.dumps(truth), truth) == []
    assert checks.filter_counts(json.dumps({**truth, "kept_count": 3}), truth)
    assert checks.filter_counts("not json", truth)

    assert checks.featurize_lines("a\t198x40\nb\t198x40\n", ["a", "b"], 198, 40) == []
    assert checks.featurize_lines("a\t198x40\n", ["a", "b"], 198, 40)
    assert checks.featurize_lines("a\t197x40\nb\t198x40\n", ["a", "b"], 198, 40)

    report = {"sample_count": 2, "exact_match_accuracy": 0.5,
              "suspects": [{"word": "x", "target_ipa": "a", "predicted_ipa": "b",
                            "distance": 2},
                           {"word": "y", "target_ipa": "i", "predicted_ipa": "i",
                            "distance": 0}]}
    summary = json.dumps({"samples": 2, "exact_match_accuracy": 0.5})
    assert checks.eval_report(summary, report, 2) == []
    assert checks.eval_report(summary, {**report, "sample_count": 1}, 2)
    assert checks.eval_report(summary, report, 3)

    rows = "x\ta\tb\t2\ny\ti\ti\t0\n"
    assert checks.suspects_rows(rows, report) == []
    assert checks.suspects_rows("y\ti\ti\t0\nx\ta\tb\t2\n", report)
    assert checks.suspects_rows(rows, {"suspects": report["suspects"][::-1]})

    assert checks.infer_lines("a.wav\tab\nb.wav\t\n", ["a.wav", "b.wav"]) == []
    assert checks.infer_lines("a.wav\tab\n", ["a.wav", "b.wav"])
    assert checks.infer_lines("a.wav\tab\na.wav\tab\n", ["a.wav", "b.wav"])

    reference = {"a.wav": "abi", "b.wav": "sku", "c.wav": "ɑ̃k"}
    assert checks.transcripts_agree("infer", dict(reference), reference) == []
    assert checks.transcripts_agree("infer", {"a.wav": "abi"}, reference) == []
    flipped = {**reference, "a.wav": "abki"}
    assert checks.transcripts_agree("infer", flipped, reference) == []
    assert checks.transcripts_agree("infer", {**flipped, "b.wav": "su"}, reference)
    assert checks.transcripts_agree("infer", {**reference, "a.wav": "kuskuk"},
                                    reference)
    swapped = {**reference, "a.wav": "sku", "b.wav": "abi"}
    assert checks.transcripts_agree("infer", swapped, reference)
    assert checks.transcripts_agree("infer", {"d.wav": "abi"}, reference)
    assert checks.codepoint_distance("ɑ̃k", "k") == 2
    assert checks.transcripts_informative(list(reference.values())) == []
    assert checks.transcripts_informative(["", "", "ab"])
    assert checks.transcripts_informative(["ab", "ab", "ab", "k"])

    assert checks.first_step_matches(650.0, 650.0 * (1 + 1e-6)) == []
    assert checks.first_step_matches(650.0, 651.0)
    assert checks.first_step_matches(float("nan"), 650.0)


@pytest.fixture
def audit(tmp_path):
    audit = workloads.make("audit_corpus", 1, tmp_path, smoke=True)
    audit.setup()
    assert audit.warm_up().failed == 0
    assert audit.iterate(1).failed == 0
    return audit


def test_corrupted_program_output_counts_as_failed(audit, monkeypatch):
    from phonoscribe import corpus

    original = corpus.filter_samples

    def drop_one(pages):
        samples, stats = original(pages)
        stats.kept_count -= 1
        return samples[1:], stats

    monkeypatch.setattr(corpus, "filter_samples", drop_one)
    outcome = audit.iterate(2)
    assert outcome.failed > 0 and outcome.problems


def test_swapped_clips_count_as_failed(audit, monkeypatch):
    from phonoscribe import training

    original = training.infer

    def neighbour(checkpoint, wav_path):
        i = audit.wavs.index(str(wav_path))
        return original(checkpoint, audit.wavs[(i + 1) % len(audit.wavs)])

    monkeypatch.setattr(training, "infer", neighbour)
    outcome = audit.iterate(2)
    assert outcome.failed > 0
    assert any(p.startswith("infer:") for p in outcome.problems)
    assert any(p.startswith("one-file infer:") for p in outcome.problems)


def test_wrong_layer_in_every_decode_path_counts_as_failed(audit, monkeypatch):
    original = TranscriptionModel.forward_single

    def reversed_in_time(model, x):
        return original(model, x[::-1].copy())

    monkeypatch.setattr(TranscriptionModel, "forward_single", reversed_in_time)
    outcome = audit.iterate(2)
    assert outcome.failed > 0
    assert any(p.startswith("eval:") for p in outcome.problems)


def test_uninformative_checkpoint_fails_the_warm_up(audit, monkeypatch):
    from phonoscribe import training

    monkeypatch.setattr(training, "infer", lambda checkpoint, wav: ([], ""))
    assert audit.warm_up().failed == len(audit.wavs)
    assert audit.iterate(2).failed > 0


def test_float32_error_trips_the_first_step_check(tmp_path, monkeypatch):
    train = workloads.make("train_gate", 1, tmp_path, smoke=True)
    train.setup()
    assert train.warm_up().failed == 0
    assert train.final_check().failed == 0
    original = TranscriptionModel.forward

    def skewed(model, x, *args, **kwargs):
        out = original(model, x, *args, **kwargs)
        return out * 1.01 if out.dtype == np.float32 else out

    monkeypatch.setattr(TranscriptionModel, "forward", skewed)
    assert train.warm_up().failed == 0
    assert train.final_check().failed == 1
