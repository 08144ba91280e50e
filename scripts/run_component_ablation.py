#!/usr/bin/env python3
"""Reproduce the progressive component-ablation table.

Trains five models (none, +gcn, +importance, +xattn, +memory) on a shared
synthetic split with deep, node-characteristic anomalies, then prints the
text metrics per row. Runs in a few CPU minutes.
"""

import argparse
import json

from roadcast.dataset import generate_synthetic
from roadcast.model import ModelConfig
from roadcast.training import TrainConfig, run_ablation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--out", default=None, help="optional JSON output path")
    args = ap.parse_args()

    graph, series, events = generate_synthetic(
        n_nodes=8, n_steps=600, anomaly_rate=0.3, anomaly_depth=0.6, seed=0)
    rows = run_ablation(graph, series, events, ModelConfig(),
                        TrainConfig(lr=0.001, batch=8, epochs=args.epochs,
                                    warmup_epochs=4, seed=args.seed))
    print(f"{'label':>12}  {'BLEU-4':>7}  {'ROUGE-L':>7}  {'METEOR':>7}  {'MAE@5':>7}")
    for row in rows:
        print(f"{row['label']:>12}  {row['BLEU-4']:7.2f}  {row['ROUGE-L']:7.4f}  "
              f"{row['METEOR']:7.4f}  {row['pred']['T5']['mae']:7.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
