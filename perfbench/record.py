#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run it once on the commit whose outputs are the reference; it takes about
seven minutes on 2 cores. It trains the SMALL generator for 150 epochs on the
pairs of the default seed (the acceptance criterion 9 setup) and stores it as
reference/sweep_net.drpg, the fixed network of the `sweep` workload. Then, for
the default and the held-out seed, it stores the per-epoch losses of 150
training epochs, the RD rows of one sweep op, and the generated planes of the
infer ops (reference/seed_<n>.json, reference/infer_seed_<n>.npz).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # fixes the BLAS thread count before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

from deepref.generator import build_network, save_weights  # noqa: E402
from deepref.training import TrainConfig, train  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELDOUT_SEED, INFER_FRAMES, REFERENCE_DIR, REFERENCE_EPOCHS, SMALL,
    SWEEP_NET, TRAIN_ARGS, Infer, Sweep, train_pairs,
)


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            cfg = TrainConfig(epochs=REFERENCE_EPOCHS, **TRAIN_ARGS)
            net, report = train(build_network(SMALL), train_pairs(seed), cfg)
            if seed == DEFAULT_SEED:
                save_weights(net, SWEEP_NET)
            rows, bd = Sweep.op(Sweep().setup(seed, Path(tmp), warm=False))
            infer = Infer().setup(seed, Path(tmp), warm=False)
            outputs = [Infer.op(infer, i) for i in range(INFER_FRAMES - 1)]
            np.savez_compressed(REFERENCE_DIR / f"infer_seed_{seed}.npz",
                                planes=np.stack([o[1] for o in outputs]))
            doc = {
                "seed": seed,
                "train_losses": [e.loss for e in report.epochs],
                "sweep_rows": rows,
                "sweep_bd_rate_pct": bd,
                "infer_psnr_db": [o[2] for o in outputs],
                "infer_ssim": [o[3] for o in outputs],
            }
            (REFERENCE_DIR / f"seed_{seed}.json").write_text(json.dumps(doc, indent=1) + "\n")
            print(f"seed {seed}: final loss {doc['train_losses'][-1]:.6g}, "
                  f"BD-rate {bd:+.3f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
