#!/usr/bin/env bash
# End-to-end demo: generate a synthetic road network, train the joint model,
# emit forecasts and reports, evaluate, and run the self-checks.
set -euo pipefail

OUT="${1:-/tmp/roadcast-demo}"
mkdir -p "$OUT"
# runs from an install or from a checkout with src/ on PYTHONPATH
roadcast() { python3 -m roadcast.cli "$@"; }

roadcast gen-data --nodes 6 --steps 200 --anomaly-rate 0.3 --depth 0.5 \
    --seed 0 --out "$OUT/data"

roadcast train --data "$OUT/data" --lr 0.002 --epochs 10 --batch 8 --seed 0 \
    --out "$OUT/ckpt"

roadcast predict --ckpt "$OUT/ckpt" --data "$OUT/data" --out "$OUT/forecasts.csv"
roadcast describe --ckpt "$OUT/ckpt" --data "$OUT/data" --out "$OUT/reports.jsonl"
roadcast evaluate --ckpt "$OUT/ckpt" --data "$OUT/data" --out "$OUT/report.json"
roadcast verify

echo "pipeline artifacts in $OUT"
