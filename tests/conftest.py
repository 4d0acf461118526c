import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from phonoscribe.nn import ModelConfig, TranscriptionModel
from phonoscribe.training import TrainConfig, train_run

from synth import build_tone_corpus

@contextmanager
def numpy_bytes():
    """Trace the allocations made inside the block. Yields ``usage()``,
    which returns ``(held, peak)`` so far: the bytes of numpy arrays
    allocated inside the block and still alive, and the highest total of
    traced bytes (numpy's and Python's) alive at once."""
    def usage():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        return (sum(trace.size for trace in snapshot.traces),
                tracemalloc.get_traced_memory()[1])

    tracemalloc.start()
    try:
        yield usage
    finally:
        tracemalloc.stop()


@contextmanager
def layer_memory():
    """Trace every layer call of each ``TranscriptionModel`` built inside
    the block. Yields a list that gains one ``(layer, phase, held, peak)``
    per call, in call order: the layer's name in the model, "forward" or
    "backward", and ``numpy_bytes``'s held and peak, the peak reset as the
    call starts, so it is the highest traced total during that call."""
    calls = []
    build = TranscriptionModel.__init__

    def init(model, *args, **kwargs):
        build(model, *args, **kwargs)
        for name, layer in model._layers:
            for phase in ("forward", "backward"):
                setattr(layer, phase, traced(name, phase, getattr(layer, phase)))

    def traced(name, phase, call):
        def run(*args):
            tracemalloc.reset_peak()
            out = call(*args)
            calls.append((name, phase, *usage()))
            return out
        return run

    with numpy_bytes() as usage:
        TranscriptionModel.__init__ = init
        try:
            yield calls
        finally:
            TranscriptionModel.__init__ = build


# The smallest model the tests train and decode with: the pinned graph at
# widths of 8, without dropout.
TINY_MODEL = ModelConfig(conv_units=8, lstm_units=8, lstm_dropout=0.0)


# Reduced-model training setup for the synthetic-corpus gate; deterministic
# end to end (corpus synthesis, split, init, batch order).
OVERFIT_SEED = 7
OVERFIT_MAX_EPOCHS = 300


def overfit_config(norm, epochs=OVERFIT_MAX_EPOCHS, seed=OVERFIT_SEED,
                   stop_at=1.0):
    return TrainConfig(
        batch_size=8,
        epochs=epochs,
        eval_batches=1,
        seed=seed,
        lr=2.5e-3,
        model=ModelConfig(conv_units=32, lstm_units=64, lstm_dropout=0.0),
        norm=norm,
        stop_at_eval_accuracy=stop_at,
    )


@pytest.fixture(scope="session")
def tone_corpus():
    return build_tone_corpus(40)


@pytest.fixture(scope="session")
def overfit_run(tone_corpus):
    """One full training run on the synthetic corpus, shared by tests."""
    samples, norm = tone_corpus
    config = overfit_config(norm)
    started = time.perf_counter()
    checkpoint, metrics = train_run(samples, config)
    elapsed = time.perf_counter() - started
    return {
        "samples": samples,
        "norm": norm,
        "config": config,
        "checkpoint": checkpoint,
        "metrics": metrics,
        "elapsed": elapsed,
    }
