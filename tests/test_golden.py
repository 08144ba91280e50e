"""Golden bit-identity check of the whole command-line pipeline.

A tiny fixed-seed run of ``gen-data -> train -> predict -> describe ->
evaluate``, with every component on and LoRA dropout active, must reproduce
the sha256 digests recorded in ``golden.json`` byte for byte. Digests depend
on numpy's kernels, so on another numpy version the test skips.

Rerecord the digests (only when an output is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from roadcast.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden.json")

CONFIG = {
    "model": {"d_model": 8, "heads": 2, "n_blocks": 1, "window": 8,
              "d_embed": 4, "hist_text_len": 8, "future_text_len": 10,
              "top_k": 4, "memory_slots": 4, "decoder_blocks": 1,
              "detector_hidden": 4, "lora_rank": 4, "lora_alpha": 8.0,
              "lora_dropout": 0.2},
    "train": {"lr": 0.005, "batch": 8, "epochs": 2, "warmup_epochs": 1, "seed": 3},
}

# output file -> path under the run directory
OUTPUTS = {
    "params.bin": "ckpt/params.bin",
    "forecasts.csv": "forecasts.csv",
    "reports.jsonl": "reports.jsonl",
    "report.json": "report.json",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(root: Path) -> dict:
    """Runs the pipeline under ``root``; returns the output and per-tensor digests."""
    data, ckpt, cfg = root / "data", root / "ckpt", root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    # 120 steps give 21 test windows: two forecast batches of 16 and 5
    steps = [
        ["gen-data", "--nodes", "4", "--steps", "120", "--seed", "5", "--out", str(data)],
        ["train", "--data", str(data), "--config", str(cfg), "--out", str(ckpt)],
    ] + [[cmd, "--ckpt", str(ckpt), "--data", str(data), "--out", str(root / out)]
         for cmd, out in (("predict", "forecasts.csv"), ("describe", "reports.jsonl"),
                          ("evaluate", "report.json"))]
    for argv in steps:
        assert main(argv) == EXIT_OK, argv
    raw = (ckpt / "params.bin").read_bytes()
    manifest = json.loads((ckpt / "manifest.json").read_text())
    tensors = {}
    for entry in manifest["tensors"]:
        size = 8 * int(np.prod(entry["shape"], dtype=np.int64))
        tensors[entry["name"]] = _sha(raw[entry["offset"]:entry["offset"] + size])
    return {"outputs": {name: _sha((root / rel).read_bytes()) for name, rel in OUTPUTS.items()},
            "tensors": tensors}


def test_pipeline_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {golden['numpy']}, "
                    f"running numpy {np.__version__}")
    got = run_pipeline(tmp_path)
    differing = sorted(name for name in set(golden["tensors"]) | set(got["tensors"])
                       if golden["tensors"].get(name) != got["tensors"].get(name))
    mismatched = [name for name in OUTPUTS
                  if got["outputs"][name] != golden["outputs"][name]]
    assert not mismatched and not differing, (
        f"outputs differ from golden.json: {mismatched}; "
        f"checkpoint tensors whose bytes differ: {differing}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, **run_pipeline(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
