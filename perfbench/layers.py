"""Per-layer metrics, computed from a traced run's spans and counters.

Normalisers:
  batch       per batch the measured command processed (one optimizer step on
              train-desk, one batch of up to 16 test windows on the other two;
              counted as calls of ``JointModel.forward_predict``)
  call        per call of the function, over the whole run, set-up included
  invocation  per invocation of the measured command
  windowize   per call of ``dataset.windowize``, over the whole run

A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Tracer

SETUP, MEASURE = 0, 1

# forward/backward of every Module subclass of src/roadcast, by module
MODULE_METHODS = (
    [(c, m) for c in ("Linear", "LoraLinear", "Embedding", "LayerNorm", "Conv1dSame",
                      "DepthwiseConv1d", "MultiHeadAttention",                 # nn
                      "SparseAlign", "FilmModulation", "GcnBlock",             # fusion
                      "PatchEmbed", "TwoStageBlock", "Predictor",              # predictor
                      "TextEncoder",                                           # text_encoder
                      "RoadImportance", "RoadCrossAttention", "MemoryRead",
                      "ReportGenerator",                                       # generator
                      "InputEmbed")                                            # model
     for m in ("forward", "backward")]
    + [("JointModel", m) for m in ("forward_predict", "backward_predict",
                                   "forward_generate", "backward_generate")])

# name -> (unit, better, kind, source, normaliser)
Metric = Tuple[str, str, str, str, str]
PER_LAYER: Dict[str, Metric] = {
    f"{cls}.{meth}.self_ms": ("ms/batch", "lower", "self", f"{cls}.{meth}", "batch")
    for cls, meth in MODULE_METHODS
}
PER_LAYER.update({
    "generator.greedy_decode.ms": ("ms/batch", "lower", "total", "generator.greedy_decode", "batch"),
    "generator.step_probs.calls": ("count", "lower", "counter", "generator.step_probs.calls", "invocation"),
    "generator.positions_computed": ("count", "lower", "counter", "generator.positions_computed", "invocation"),
    "generator.tokens_generated": ("count", "higher", "counter", "generator.tokens_generated", "invocation"),
    "generator.useful_position_ratio": ("ratio", "higher", "ratio", "", ""),
    "training.train_step.ms": ("ms/batch", "lower", "total", "training.train_step", "batch"),
    "training.adam_step.ms": ("ms/batch", "lower", "total", "training.adam_step", "batch"),
    "training.zero_grad.ms": ("ms/batch", "lower", "total", "training.zero_grad", "batch"),
    "training.param_grad_dicts.ms": ("ms/batch", "lower", "total", "training.param_grad_dicts", "batch"),
    "training.batchify.ms": ("ms/batch", "lower", "total", "training.batchify", "batch"),
    "training.joint_loss.ms": ("ms/batch", "lower", "total", "training.joint_loss", "batch"),
    "training.save_checkpoint.ms": ("ms", "lower", "total", "training.save_checkpoint", "call"),
    "training.load_checkpoint.ms": ("ms", "lower", "total", "training.load_checkpoint", "call"),
    "training.prepare_data.ms": ("ms", "lower", "total", "training.prepare_data", "call"),
    "dataset.load_dataset.ms": ("ms", "lower", "total", "dataset.load_dataset", "call"),
    "dataset.windowize.ms": ("ms", "lower", "total", "dataset.windowize", "call"),
    "dataset.in_window.calls": ("count", "lower", "counter", "dataset.in_window.calls", "windowize"),
    "dataset.events_scanned": ("count", "lower", "counter", "dataset.events_scanned", "windowize"),
    "dataset.save_dataset.ms": ("ms", "lower", "total", "dataset.save_dataset", "call"),
    "numerics.softmax_rows.ms": ("ms/batch", "lower", "total", "numerics.softmax_rows", "batch"),
    "numerics.softmax_rows.calls": ("count/batch", "lower", "counter", "numerics.softmax_rows.calls", "batch"),
})
PER_LAYER.update({
    f"cli.{cmd}.self_ms": ("ms", "lower", "self", f"cli.{cmd}", "call")
    for cmd in ("gen-data", "train", "predict", "describe")
})


def per_layer_metrics(tracer: Tracer, invocations: int) -> Dict[str, float]:
    """Every PER_LAYER metric's value for a traced run of ``invocations``
    measured commands."""
    everything = (SETUP, MEASURE)
    by_phase = tracer.totals()
    measured = by_phase.get(MEASURE, {})
    whole = {}
    for phase in everything:
        for name, row in by_phase.get(phase, {}).items():
            acc = whole.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    batches = measured.get("JointModel.forward_predict", {}).get("calls", 0)
    windowize_calls = whole.get("dataset.windowize", {}).get("calls", 0)

    def per(value: float, normaliser: str, calls: int) -> float:
        base = {"batch": batches, "invocation": invocations,
                "windowize": windowize_calls, "call": calls}[normaliser]
        return value / base if base else 0.0

    out = {}
    for name, (_, _, kind, source, normaliser) in PER_LAYER.items():
        if kind == "ratio":
            continue
        if kind == "counter":
            phases = (MEASURE,) if normaliser in ("batch", "invocation") else everything
            out[name] = per(tracer.counter(source, phases), normaliser, 0)
            continue
        rows = whole if normaliser == "call" else measured
        row = rows.get(source, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        seconds = row["self_s"] if kind == "self" else row["total_s"]
        out[name] = per(1000.0 * seconds, normaliser, row["calls"])
    positions = out["generator.positions_computed"]
    out["generator.useful_position_ratio"] = (
        out["generator.tokens_generated"] / positions if positions else 0.0)
    return out


def benchmark_entries() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json."""
    return [{"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _, _) in PER_LAYER.items()]
