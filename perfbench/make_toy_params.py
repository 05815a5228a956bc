"""Train the toy model the stream_toy workload decodes with, and store it as
float32 records (half the size of the float64 file `auscult train` writes).

The recipe is acceptance criterion 8's: 60 synthetic 2 s tone/noise clips,
30 epochs of batch-16 SGD at learning rate 0.5, seed 0 (about 80 s on one
core). Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_toy_params.py

It rewrites perfbench/data/toy.params and perfbench/data/toy.cfg.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from auscult.data import synthetic_tone_noise_dataset  # noqa: E402
from auscult.model import preset_config, save_model_config  # noqa: E402
from auscult.nn import flatten_params, save_params  # noqa: E402
from auscult.training import TrainConfig, train_toy, training_accuracy  # noqa: E402


def main() -> int:
    dataset = synthetic_tone_noise_dataset(n_clips=60, duration_s=2.0, seed=0)
    cfg = preset_config("toy", n_classes=2)
    params, trace = train_toy(
        dataset, cfg, TrainConfig(lr0=0.5, epochs=30, batch_size=16, seed=0)
    )
    accuracy = training_accuracy(dataset, params, cfg)
    if accuracy < 0.95:
        print(f"training accuracy {accuracy:.3f} is below 0.95", file=sys.stderr)
        return 1
    out = HERE / "data"
    out.mkdir(exist_ok=True)
    flat32 = {k: v.astype(np.float32) for k, v in flatten_params(params).items()}
    tmp = out / "toy.params.tmp"
    save_params(tmp, flat32)
    os.replace(tmp, out / "toy.params")
    save_model_config(out / "toy.cfg", cfg)
    print(f"final loss {trace[-1][1]:.6f}, training accuracy {accuracy:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
