"""Span tracing of phonoscribe's layers, applied from outside the package.

Inside ``with Tracer():`` every traced entry point (a public function, or a
method of a public class) is replaced by a wrapper that records one span
per call: name, start, end (process CPU seconds, like every time the
benchmark reports) and the index of the enclosing span. Work
counts computed from the call's arguments and result (GFLOP from tensor
shapes, CTC lattice cells, resampled samples, checkpoint bytes) are kept
beside the spans. Everything stays in memory; ``layer_metrics`` turns it
into the per-layer metrics once the traced run has ended.

A layer's self time is its spans' duration minus the time their child
spans cover. Calls are synchronous and single-threaded, so children nest
inside their parent.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# Per-layer metrics, in report order, with their units. ``kind`` says how a
# value is obtained: "self_s" from span self time, "count" from counting
# calls, "computed" from shapes and sizes, "derived" as a ratio of others.
LAYER_METRICS = [
    ("nn.lstm.fwd_s", "s", "self_s"),
    ("nn.lstm.bwd_s", "s", "self_s"),
    ("nn.lstm.gflop", "GFLOP", "computed"),
    ("nn.lstm.gflop_per_s", "GFLOP/s", "derived"),
    ("nn.conv1d.fwd_s", "s", "self_s"),
    ("nn.conv1d.bwd_s", "s", "self_s"),
    ("nn.conv1d.gflop", "GFLOP", "computed"),
    ("nn.conv1d.gflop_per_s", "GFLOP/s", "derived"),
    ("nn.linear.fwd_s", "s", "self_s"),
    ("nn.linear.bwd_s", "s", "self_s"),
    ("nn.linear.gflop", "GFLOP", "computed"),
    ("nn.linear.gflop_per_s", "GFLOP/s", "derived"),
    ("nn.batchnorm.fwd_s", "s", "self_s"),
    ("nn.batchnorm.bwd_s", "s", "self_s"),
    ("nn.relu.fwd_s", "s", "self_s"),
    ("nn.relu.bwd_s", "s", "self_s"),
    ("nn.dropout.fwd_s", "s", "self_s"),
    ("nn.dropout.bwd_s", "s", "self_s"),
    ("nn.model.self_s", "s", "self_s"),
    ("nn.model.builds", "count", "count"),
    ("nn.model.builds_per_infer_call", "count", "derived"),
    ("nn.optim.adamw_s", "s", "self_s"),
    ("nn.optim.params_updated", "count", "computed"),
    ("nn.checkpoint.load_s", "s", "self_s"),
    ("nn.checkpoint.bytes_read", "bytes", "computed"),
    ("nn.checkpoint.useful_byte_ratio", "ratio", "derived"),
    ("ctc.loss_s", "s", "self_s"),
    ("ctc.log_softmax_s", "s", "self_s"),
    ("ctc.lattice_cells", "count", "computed"),
    ("ctc.decode_s", "s", "self_s"),
    ("dsp.decode_wav_s", "s", "self_s"),
    ("dsp.resample_s", "s", "self_s"),
    ("dsp.resample_samples", "count", "computed"),
    ("dsp.mfcc_s", "s", "self_s"),
    ("dsp.save_features_s", "s", "self_s"),
    ("dsp.load_features_s", "s", "self_s"),
    ("analysis.build_report_s", "s", "self_s"),
    ("analysis.write_report_s", "s", "self_s"),
    ("ipa.align_calls", "count", "count"),
    ("corpus.parse_manifest_s", "s", "self_s"),
    ("corpus.filter_samples_s", "s", "self_s"),
    ("training.self_s", "s", "self_s"),
    ("cli.filter_s", "s", "self_s"),
    ("cli.featurize_s", "s", "self_s"),
    ("cli.eval_s", "s", "self_s"),
    ("cli.suspects_s", "s", "self_s"),
    ("cli.infer_s", "s", "self_s"),
    ("tracing_overhead_pct", "%", "derived"),
]


def _gflop(multiply_adds: int) -> float:
    return 2.0 * multiply_adds / 1e9


def _rows(x) -> int:
    return x.size // x.shape[-1]


def _conv_fwd(args, kwargs, result):
    layer, x = args[0], args[1]
    macs = _rows(x) * layer.kernel_size * layer.in_channels * layer.out_channels
    yield "nn.conv1d.gflop", _gflop(macs)


def _conv_bwd(args, kwargs, result):
    layer, dy = args[0], args[1]
    macs = _rows(dy) * layer.kernel_size * layer.in_channels * layer.out_channels
    yield "nn.conv1d.gflop", 2 * _gflop(macs)  # weight grad plus input grad


def _linear_fwd(args, kwargs, result):
    layer, x = args[0], args[1]
    yield "nn.linear.gflop", _gflop(_rows(x) * layer.in_features * layer.out_features)


def _linear_bwd(args, kwargs, result):
    layer, dy = args[0], args[1]
    yield "nn.linear.gflop", 2 * _gflop(
        _rows(dy) * layer.in_features * layer.out_features)


def _lstm_macs(layer, x) -> int:
    hidden = layer.hidden_size
    return _rows(x) * (layer.input_size + hidden) * 4 * hidden


def _lstm_fwd(args, kwargs, result):
    yield "nn.lstm.gflop", _gflop(_lstm_macs(args[0], args[1]))


def _lstm_bwd(args, kwargs, result):
    yield "nn.lstm.gflop", 2 * _gflop(_lstm_macs(args[0], args[1]))


def _adamw_step(args, kwargs, result):
    optimizer, grads = args[0], args[1]
    yield "nn.optim.params_updated", sum(
        p.size for name, p in optimizer.params.items() if name in grads)


def _ctc_cells(args, kwargs, result):
    logp, labels = args[0], args[1]
    yield "ctc.lattice_cells", logp.shape[0] * (2 * len(labels) + 1)


def _resampled(args, kwargs, result):
    clip, target_rate = args[0], args[1]
    if clip.sample_rate != target_rate:
        yield "dsp.resample_samples", len(result.samples)


def _checkpoint_bytes(args, kwargs, result):
    _, arrays = result
    yield "nn.checkpoint.bytes_read", os.path.getsize(args[0])
    yield "nn.checkpoint.useful_bytes", sum(
        4 * a.size for k, a in arrays.items()
        if k.startswith(("param/", "buffer/")))


def _one(counter):
    def count(args, kwargs, result):
        yield counter, 1
    return count


def _cli_span(args):
    return f"cli.{args[0][0]}"


def _targets():
    """(owner, attribute, span name or None, counter or None) per entry point."""
    from phonoscribe import analysis, cli, corpus, ctc, dsp, training
    from phonoscribe.nn import layers, lstm, model, optim

    return [
        (cli, "main", _cli_span, None),
        (training, "train_run", "training", None),
        (training, "predict_ids", "training", None),
        (training, "infer", "training", None),
        (training.Checkpoint, "load", "training", None),
        (training.Checkpoint, "build_model", "training", None),
        (training, "load_checkpoint", "nn.checkpoint.load", _checkpoint_bytes),
        (model.TranscriptionModel, "__init__", "nn.model",
         _one("nn.model.builds")),
        (model.TranscriptionModel, "forward", "nn.model", None),
        (model.TranscriptionModel, "backward", "nn.model", None),
        (layers.Conv1d, "forward", "nn.conv1d.fwd", _conv_fwd),
        (layers.Conv1d, "backward", "nn.conv1d.bwd", _conv_bwd),
        (layers.Linear, "forward", "nn.linear.fwd", _linear_fwd),
        (layers.Linear, "backward", "nn.linear.bwd", _linear_bwd),
        (layers.BatchNorm1d, "forward", "nn.batchnorm.fwd", None),
        (layers.BatchNorm1d, "backward", "nn.batchnorm.bwd", None),
        (layers.ReLU, "forward", "nn.relu.fwd", None),
        (layers.ReLU, "backward", "nn.relu.bwd", None),
        (layers.Dropout, "forward", "nn.dropout.fwd", None),
        (layers.Dropout, "backward", "nn.dropout.bwd", None),
        (lstm.BiLSTM, "forward", "nn.lstm.fwd", None),
        (lstm.BiLSTM, "backward", "nn.lstm.bwd", None),
        (lstm.LSTM, "forward", "nn.lstm.fwd", _lstm_fwd),
        (lstm.LSTM, "backward", "nn.lstm.bwd", _lstm_bwd),
        (optim.AdamW, "step", "nn.optim.adamw", _adamw_step),
        (ctc, "ctc_loss", "ctc.loss", _ctc_cells),
        (ctc, "log_softmax", "ctc.log_softmax", None),
        (ctc, "log_softmax_backward", "ctc.log_softmax", None),
        (ctc, "greedy_decode", "ctc.decode", None),
        (dsp, "decode_wav", "dsp.decode_wav", None),
        (dsp, "resample", "dsp.resample", _resampled),
        (dsp, "mfcc", "dsp.mfcc", None),
        (dsp, "save_features", "dsp.save_features", None),
        (dsp, "load_features", "dsp.load_features", None),
        (analysis, "build_report", "analysis.build_report", None),
        (analysis, "write_report_bundle", "analysis.write_report", None),
        (analysis, "align", None, _one("ipa.align_calls")),
        (corpus, "parse_manifest", "corpus.parse_manifest", None),
        (corpus, "filter_samples", "corpus.filter_samples", None),
    ]


class Tracer:
    """Records spans and counts while installed as a context manager."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Counts split by the outermost span that was open when they
        # happened, e.g. model builds inside ``cli.infer`` commands.
        self.counts_by_root: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count(self, counter, args, kwargs, result) -> None:
        root = self.spans[self._stack[0]][0] if self._stack else ""
        for key, amount in counter(args, kwargs, result):
            self.counts[key] += amount
            self.counts_by_root[root][key] += amount

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                tracer._count(counter, args, kwargs, result)
                return result
            span_name = name(args) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((span_name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent)
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        """Every span as [name index, start, end, parent index], in seconds
        from the first span's start."""
        names = sorted({name for name, *_ in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {"names": names,
                "spans": [[index[name], start - origin, end - origin, parent]
                          for name, start, end, parent in self.spans]}

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child):
            seconds[name] += (end - start) - covered
            calls[name] += 1
        return seconds, calls


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric of ``LAYER_METRICS`` from one traced run."""
    seconds, calls = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, _, kind in LAYER_METRICS:
        if kind == "self_s":
            span = metric[:-len("_s")]
            if span.endswith(".self"):  # a module's own time, e.g. training.self_s
                span = span[:-len(".self")]
            out[metric] = seconds.get(span, 0.0)
        elif kind in ("count", "computed"):
            out[metric] = counts.get(metric, 0)
    for kernel in ("nn.lstm", "nn.conv1d", "nn.linear"):
        busy = out[f"{kernel}.fwd_s"] + out[f"{kernel}.bwd_s"]
        out[f"{kernel}.gflop_per_s"] = out[f"{kernel}.gflop"] / busy if busy else 0.0
    infer_calls = calls.get("cli.infer", 0)
    out["nn.model.builds_per_infer_call"] = (
        tracer.counts_by_root["cli.infer"]["nn.model.builds"] / infer_calls
        if infer_calls else 0.0)
    read = counts.get("nn.checkpoint.bytes_read", 0)
    out["nn.checkpoint.useful_byte_ratio"] = (
        counts.get("nn.checkpoint.useful_bytes", 0) / read if read else 0.0)
    out["tracing_overhead_pct"] = overhead_pct
    return out
