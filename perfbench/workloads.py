"""The benchmark's three workloads: their inputs, their measured command and
the check of that command's output.

Every input is made from the run's seed through `roadcast gen-data`, plus,
for the two inference workloads, an untrained checkpoint built with
``JointModel`` and ``save_checkpoint``. Its weights come from the fixed
``MODEL_SEED``, not from the run's seed: an untrained model's report length
depends on its initial weights (some seeds stop every report after one or
two tokens, others run all of them to the 24-token limit), so a seeded
initialisation would change the work per run far more than the data does.

The checks import numpy and roadcast, so this module imports them only when a
check runs: until then the set-up's imports of them are cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

MODEL_SEED = 0
TRAIN_EPOCHS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: Dict[str, float]     # gen-data arguments, without --seed and --out
    untrained_checkpoint: bool  # set-up also builds a checkpoint at MODEL_SEED
    # (data dir, checkpoint dir, output dir, seed) -> command argv
    command: Callable[[Path, Path, Path, int], List[str]]
    outputs: List[str]          # files in the output dir that every invocation repeats
    # (data dir, checkpoint dir, output dir, seed) -> units of work in the output
    check: Callable[[Path, Path, Path, int], int]
    unit: str


def _train(data: Path, ckpt: Path, out: Path, seed: int) -> List[str]:
    return ["train", "--data", str(data), "--out", str(out), "--lr", "0.001",
            "--batch", "8", "--epochs", str(TRAIN_EPOCHS), "--seed", str(seed)]


def _check_train(data: Path, ckpt: Path, out: Path, seed: int) -> int:
    import checks

    return checks.check_train(data, out, TRAIN_EPOCHS, seed)


def _describe(data: Path, ckpt: Path, out: Path, seed: int) -> List[str]:
    return ["describe", "--ckpt", str(ckpt), "--data", str(data),
            "--out", str(out / "reports.jsonl")]


def _check_describe(data: Path, ckpt: Path, out: Path, seed: int) -> int:
    import checks

    return checks.check_describe(data, ckpt, out / "reports.jsonl")


def _predict(data: Path, ckpt: Path, out: Path, seed: int) -> List[str]:
    return ["predict", "--ckpt", str(ckpt), "--data", str(data),
            "--out", str(out / "forecasts.csv")]


def _check_predict(data: Path, ckpt: Path, out: Path, seed: int) -> int:
    import checks

    return checks.check_predict(data, ckpt, out / "forecasts.csv", seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-desk",
        why="joint training at the desk config: every module's forward and backward, "
            "the joint loss and Adam; no greedy decoding",
        data={"nodes": 8, "steps": 600, "anomaly-rate": 0.3, "depth": 0.6},
        untrained_checkpoint=False,
        command=_train, outputs=["params.bin", "loss_trace.csv"], check=_check_train,
        unit="optimizer steps"),
    Workload(
        name="describe-long",
        why="reports over a long 8-road series: greedy decoding's full-prefix recompute "
            "dominates; no backward pass, no Adam",
        data={"nodes": 8, "steps": 6023, "anomaly-rate": 0.3, "depth": 0.5},
        untrained_checkpoint=True,
        command=_describe, outputs=["reports.jsonl"], check=_check_describe,
        unit="report tokens"),
    Workload(
        name="predict-city",
        why="forecasts on a 256-road network, where the N^2 terms (graph einsum, node "
            "attention, wide CSV) dominate; the generator never runs",
        data={"nodes": 256, "steps": 343, "anomaly-rate": 0.3, "depth": 0.5},
        untrained_checkpoint=True,
        command=_predict, outputs=["forecasts.csv"], check=_check_predict,
        unit="forecast windows"),
)}


def gen_data_argv(workload: Workload, seed: int, out: Path) -> List[str]:
    argv = ["gen-data"]
    for key, value in workload.data.items():
        argv += [f"--{key}", str(value)]
    return argv + ["--seed", str(seed), "--out", str(out)]


def build_untrained_checkpoint(data_dir: Path, ckpt_dir: Path) -> None:
    """Checkpoint of a freshly initialised desk-config model for ``data_dir``."""
    from roadcast.dataset import load_dataset
    from roadcast.model import JointModel, ModelConfig
    from roadcast.training import prepare_data, save_checkpoint

    graph, series, events, _ = load_dataset(data_dir)
    cfg = ModelConfig()
    data = prepare_data(graph, series, events, cfg)
    model = JointModel(cfg, vocab_size=len(data.vocab), n_nodes=graph.n_nodes,
                       physical_adjacency=graph.adjacency, seed=MODEL_SEED)
    save_checkpoint(ckpt_dir, model, data.vocab, data.stats, seed=MODEL_SEED)
