"""Print the sha256 of every file two tiny training runs write that must keep
its bytes: each ``epoch_*.phck`` and ``metrics.jsonl``.

Both runs train on ``synth.build_tone_corpus(40)`` for 2 epochs at batch 8,
seed 5, with conv 16, ``lstm_dropout`` 0.5 and one eval batch. One has LSTM
64, where the recurrent GEMMs put the rows left; the other LSTM 256, where
they put the weights left (B·H·4H = 2.1·10**6 > 10**6). Run it before and
after a numeric rewrite and compare the two outputs:

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

from phonoscribe import training  # noqa: E402
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
            train_run(samples, config, run_dir)
            for path in [*sorted(run_dir.glob("epoch_*.phck")), run_dir / "metrics.jsonl"]:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}", flush=True)


if __name__ == "__main__":
    main()
