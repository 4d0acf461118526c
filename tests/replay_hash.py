"""Print the sha256 of every file two tiny training runs write that must keep
its bytes: each ``epoch_*.phck`` and ``metrics.jsonl``, and the report bundle
(``report.json``, ``report.md``, ``confusion.csv``) of the first run's model.

Both runs train on ``synth.build_tone_corpus(40)`` for 2 epochs at batch 8,
seed 5, with conv 16, ``lstm_dropout`` 0.5 and one eval batch. One has LSTM
64, where the recurrent GEMMs put the rows left; the other LSTM 256, where
they put the weights left (B·H·4H = 2.1·10**6 > 10**6). The returned
checkpoint of the first run decodes all 40 samples through ``predict_ids``,
and ``analysis.build_report`` and ``write_report_bundle`` write its bundle.
Run it before and after a numeric or report rewrite and compare the two
outputs:

    python tests/replay_hash.py

It pins no hash, since another BLAS build may give other bytes.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# Set before numpy loads: the BLAS thread count changes training bytes, and
# checkpoints record these variables.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phonoscribe import analysis, training  # noqa: E402
from phonoscribe.ipa import INVENTORY  # noqa: E402
from phonoscribe.nn import ModelConfig  # noqa: E402
from phonoscribe.training import TrainConfig, train_run  # noqa: E402

from synth import build_tone_corpus  # noqa: E402

assert THREAD_VARS == training.THREAD_VARS


def main() -> None:
    samples, norm = build_tone_corpus(40)
    with tempfile.TemporaryDirectory() as tmp:
        for name, lstm_units in (("rows_left", 64), ("weights_left", 256)):
            model = ModelConfig(conv_units=16, lstm_units=lstm_units, lstm_dropout=0.5)
            config = TrainConfig(batch_size=8, epochs=2, eval_batches=1, seed=5,
                                 model=model, norm=norm)
            run_dir = Path(tmp, name)
            checkpoint, _ = train_run(samples, config, run_dir)
            for path in [*sorted(run_dir.glob("epoch_*.phck")), run_dir / "metrics.jsonl"]:
                print_digest(path, name)
            if name == "rows_left":
                report_dir = Path(tmp, "report")
                analysis.write_report_bundle(report_dir, analysis.build_report(
                    decode(checkpoint.transcriber(), samples)))
                for file in ("report.json", "report.md", "confusion.csv"):
                    print_digest(report_dir / file, "report")


def print_digest(path: Path, group: str) -> None:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"{digest}  {group}/{path.name}", flush=True)


def decode(transcriber, samples) -> list[analysis.PredictionPair]:
    """Each sample's label and greedy decode, as ``eval`` pairs them."""
    return [analysis.PredictionPair.build(
        word=s.word, audio_filename=s.audio_filename,
        target=[INVENTORY[i] for i in s.label],
        predicted=[INVENTORY[i] for i in training.predict_ids(transcriber, s.features)])
        for s in samples]


if __name__ == "__main__":
    main()
