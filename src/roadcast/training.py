"""End-to-end training: joint loss, Adam, warmup+cosine schedule, the
finite-difference gradient harness, checkpoint I/O, and the ablation runner.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import (EVENT_KINDS, STD_FLOOR, EventLog, NormStats, RoadGraph, Sample,
                      TrafficSeries, denormalize, fit_norm_stats, require,
                      require_config, split_sizes, windowize, z_normalize)
from .errors import DivergenceError, ParameterError, ParseError
from .metrics import MetricReport, evaluate_run
from .model import COMPONENTS, JointModel, ModelConfig
from .numerics import RngState, softmax_rows
from .tokenizer import PAD, Vocab, build_vocab, decode


@dataclass
class TrainConfig:
    """Production-scale settings would be lr 5e-5, batch 4, 50 epochs with 5
    warmup epochs; the desk defaults below keep runs in CPU-minutes."""

    lr: float = 5e-5
    batch: int = 4
    epochs: int = 10
    warmup_epochs: int = 1
    lambda_text: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ParameterError(f"key 'lr' must be positive, got {self.lr!r}")
        for key, low in (("batch", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ParameterError(f"key {key!r} must be >= {low}, got {getattr(self, key)!r}")


# --- losses -----------------------------------------------------------------

def mse_loss(y_hat: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    diff = y_hat - y
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def cross_entropy_loss(logits: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean token-level CE over non-PAD targets; returns (loss, dlogits)."""
    targets = np.asarray(targets, dtype=np.int64)
    mask = (targets != PAD).astype(np.float64)
    n_tok = mask.sum()
    if n_tok == 0:
        return 0.0, np.zeros_like(logits)
    probs = softmax_rows(logits)
    b_idx, l_idx = np.meshgrid(np.arange(targets.shape[0]), np.arange(targets.shape[1]),
                               indexing="ij")
    picked = probs[b_idx, l_idx, targets]
    loss = float(-(np.log(np.maximum(picked, 1e-300)) * mask).sum() / n_tok)
    dlogits = probs.copy()
    dlogits[b_idx, l_idx, targets] -= 1.0
    dlogits *= mask[..., None] / n_tok
    return loss, dlogits


def joint_loss(forecast: np.ndarray, y_true: np.ndarray, logits: np.ndarray,
               targets: np.ndarray, lambda_text: float
               ) -> Tuple[float, np.ndarray, np.ndarray]:
    """MSE + lambda * CE; gradients already scaled by lambda."""
    l_pred, dy = mse_loss(forecast, y_true)
    l_text, dlogits = cross_entropy_loss(logits, targets)
    return l_pred + lambda_text * l_text, dy, lambda_text * dlogits


# --- optimizer and schedule -------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over a named parameter dict; frozen names skipped."""

    def __init__(self, params: Dict[str, np.ndarray], frozen: Sequence[str] = ()) -> None:
        self.params = {k: v for k, v in params.items() if k not in set(frozen)}
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.t = 0

    def step(self, grads: Dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def lr_schedule(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear 0 -> base_lr over warmup, cosine base_lr -> 0 thereafter."""
    if warmup_steps >= total_steps:
        raise ParameterError("warmup_steps must be < total_steps")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * base_lr * (1.0 + np.cos(np.pi * min(progress, 1.0)))


# --- finite-difference gradient harness -------------------------------------

@dataclass
class GradCheckReport:
    n_checked: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


FD_STEP = 1e-5  # central-difference step of `grad_check`


def grad_check(loss_fn, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray],
               skip: Sequence[str] = (), tol: float = 1e-4,
               max_coords_per_tensor: int = 64, seed: int = 0) -> GradCheckReport:
    """Central finite differences on a subsampled coordinate set per tensor.

    ``loss_fn()`` must run forward+backward, repopulating ``grads`` from
    scratch, and return the scalar loss.
    """
    report = GradCheckReport()
    loss_fn()
    analytic = {k: g.copy() for k, g in grads.items()}
    rng = np.random.default_rng(seed)
    skip_set = set(skip)
    for name in sorted(params):
        if name in skip_set:
            continue
        p = params[name]
        n = p.size
        coords = (np.arange(n) if n <= max_coords_per_tensor
                  else np.sort(rng.choice(n, size=max_coords_per_tensor, replace=False)))
        flat = p.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            lp = loss_fn()
            flat[idx] = orig - FD_STEP
            lm = loss_fn()
            flat[idx] = orig
            g_fd = (lp - lm) / (2.0 * FD_STEP)
            g_an = analytic[name].reshape(-1)[idx]
            rel = abs(g_an - g_fd) / max(1.0, abs(g_an), abs(g_fd))
            report.n_checked += 1
            if rel > tol:
                report.failures.append(
                    f"{name}[{idx}]: analytic {g_an:.8g} vs fd {g_fd:.8g} (rel {rel:.3g})")
    return report


# --- data preparation -------------------------------------------------------

@dataclass
class PreparedData:
    vocab: Vocab
    stats: NormStats
    train: List[Sample]
    test: List[Sample]


def closed_corpus(graph: RoadGraph) -> List[str]:
    """Every kind-on-node template, so the vocabulary is closed over all
    possible event texts for this graph."""
    return [f"{kind} on {name}" for kind in EVENT_KINDS for name in graph.node_names]


def prepare_data(graph: RoadGraph, series: TrafficSeries, events: EventLog,
                 cfg: ModelConfig) -> PreparedData:
    """The closed vocabulary, stats fitted before the first test window, and `cut_windows`."""
    vocab = build_vocab(closed_corpus(graph), min_freq=1)
    _, first_test = split_sizes(series.speeds.shape[0], cfg.window)
    stats = fit_norm_stats(series.speeds[:first_test])
    return PreparedData(vocab=vocab, stats=stats,
                        train=cut_windows(series, events, vocab, stats, cfg, test=False),
                        test=cut_windows(series, events, vocab, stats, cfg, test=True))


def cut_windows(series: TrafficSeries, events: EventLog, vocab: Vocab, stats: NormStats,
                cfg: ModelConfig, test: bool) -> List[Sample]:
    """The training windows of ``series`` (the first ``n_train`` of
    `split_sizes`), or with ``test`` its test windows (from anchor
    ``first_test`` on), normalized with ``stats`` and their event texts
    encoded with ``vocab``. Only those anchors are windowized."""
    n_train, first_test = split_sizes(series.speeds.shape[0], cfg.window)
    return windowize(z_normalize(series, stats), events, vocab, cfg.window,
                     hist_text_len=cfg.hist_text_len, future_text_len=cfg.future_text_len,
                     anchors=slice(first_test, None) if test else slice(n_train))


def batchify(samples: Sequence[Sample]) -> Dict[str, np.ndarray]:
    return {
        "x_hist": np.stack([s.x_hist for s in samples]),
        "text_hist": np.asarray([s.text_hist for s in samples], dtype=np.int64),
        "y_future": np.stack([s.y_future for s in samples]),
        "text_future": np.asarray([s.text_future for s in samples], dtype=np.int64),
    }


# --- training loop ----------------------------------------------------------

def train(model: JointModel, train_samples: Sequence[Sample], cfg: TrainConfig,
          max_steps: Optional[int] = None) -> List[float]:
    """Deterministic joint training; returns the per-epoch mean loss trace."""
    if not train_samples:
        raise ParameterError("train split is empty")
    params = model.param_dict()
    frozen = list(model.frozen_names())
    opt = Adam(params, frozen=frozen)
    n = len(train_samples)
    n_batches = -(-n // cfg.batch)
    total_steps = cfg.epochs * n_batches if max_steps is None else max_steps
    warmup_steps = min(cfg.warmup_epochs * n_batches, max(0, total_steps - 1))
    shuffler = RngState(cfg.seed)
    trace: List[float] = []
    step = 0
    model.set_training(True)
    for epoch in range(cfg.epochs):
        order = shuffler.permutation(n)
        epoch_losses = []
        for bi in range(n_batches):
            idx = order[bi * cfg.batch:(bi + 1) * cfg.batch]
            batch = batchify([train_samples[i] for i in idx])
            loss = train_step(model, opt, batch, cfg,
                              lr_schedule(step, total_steps, warmup_steps, cfg.lr))
            epoch_losses.append(loss)
            step += 1
            if max_steps is not None and step >= max_steps:
                trace.append(float(np.mean(epoch_losses)))
                model.set_training(False)
                return trace
        trace.append(float(np.mean(epoch_losses)))
    model.set_training(False)
    return trace


def forward_backward(model: JointModel, batch: Dict[str, np.ndarray],
                     lambda_text: float) -> float:
    """Zero the gradients, run both forwards and the joint loss, then both
    backwards; returns the loss. A non-finite loss raises before any backward."""
    model.zero_grad()
    y_hat = model.forward_predict(batch["x_hist"], batch["text_hist"])
    tokens_in = batch["text_future"][:, :-1]
    targets = batch["text_future"][:, 1:]
    logits = model.forward_generate(tokens_in, batch["y_future"])  # teacher forcing
    loss, dy, dlogits = joint_loss(y_hat, batch["y_future"], logits, targets, lambda_text)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    model.backward_predict(dy)
    model.backward_generate(dlogits)
    return loss


def train_step(model: JointModel, opt: Adam, batch: Dict[str, np.ndarray],
               cfg: TrainConfig, lr: float) -> float:
    try:
        loss = forward_backward(model, batch, cfg.lambda_text)
    except DivergenceError as err:
        raise DivergenceError(f"{err} at lr {lr}") from None
    opt.step(model.grad_dict(), lr)
    return loss


# --- evaluation -------------------------------------------------------------

EVAL_BATCH = 16
# Windows per greedy decode. A decode step makes a dozen small array calls
# whose overhead outweighs their arithmetic at 16 rows; 256 rows of decode
# state at 256 roads is a few tens of MB. A multiple of EVAL_BATCH, so the
# forecast batches, and their bits, do not move.
DECODE_BATCH = 256


def forecast_batches(model: JointModel, samples: Sequence[Sample]
                     ) -> Iterator[Tuple[Sequence[Sample], np.ndarray]]:
    """Puts the model in eval mode and yields (chunk, normalized forecast) for
    consecutive chunks of EVAL_BATCH samples."""
    model.set_training(False)
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start:start + EVAL_BATCH]
        batch = batchify(chunk)
        yield chunk, model.forward_predict(batch["x_hist"], batch["text_hist"])


def report_batches(model: JointModel, samples: Sequence[Sample]
                   ) -> Iterator[Tuple[Sequence[Sample], np.ndarray, List[List[int]]]]:
    """Yields (chunk, normalized forecast, report token lists) for consecutive
    chunks of DECODE_BATCH samples, forecast by `forecast_batches` and then
    decoded greedily in one batch."""
    for start in range(0, len(samples), DECODE_BATCH):
        chunk = samples[start:start + DECODE_BATCH]
        y_hat = np.concatenate([y for _, y in forecast_batches(model, chunk)])
        yield chunk, y_hat, model.decode_reports(y_hat, model.config.future_text_len)


def evaluate(model: JointModel, test_samples: Sequence[Sample], stats: NormStats,
             vocab: Vocab, horizons: Sequence[int] = (5, 10, 15)
             ) -> Tuple[MetricReport, dict]:
    """Forecast metrics on denormalized values; reports decoded greedily from
    the model's own forecasts (not the ground truth)."""
    forecasts, gen_texts = [], []
    for _, y_hat, seqs in report_batches(model, test_samples):
        forecasts.append(y_hat)
        gen_texts.extend(seqs)
    y_hat_all = np.concatenate(forecasts, axis=0)
    y_true_all = np.stack([s.y_future for s in test_samples])
    hyp_words = [decode(g, vocab).split() for g in gen_texts]
    ref_words = [decode(s.text_future, vocab).split() for s in test_samples]
    report = evaluate_run(denormalize(y_hat_all, stats), denormalize(y_true_all, stats),
                          hyp_words, ref_words, horizons=horizons)
    artifacts = {"forecasts": y_hat_all, "gen_tokens": gen_texts,
                 "gen_texts": [" ".join(w) for w in hyp_words]}
    return report, artifacts


# --- checkpoint I/O ---------------------------------------------------------

def save_checkpoint(out_dir, model: JointModel, vocab: Vocab, stats: NormStats,
                    seed: int, train_cfg: Optional[TrainConfig] = None) -> None:
    """manifest.json (names, shapes, offsets, config) + params.bin (LE float64).

    Writes are atomic: temp file then rename.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for name, arr in sorted(model.named_params()):
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = arr.astype("<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "tensors": entries,
        "total_bytes": offset,
        "config": dataclasses.asdict(model.config),
        "train_config": dataclasses.asdict(train_cfg) if train_cfg else None,
        "seed": seed,
        "n_nodes": model.n_nodes,
        "vocab_words": vocab.id_to_word,
        "physical_adjacency": model.gcn.a_physical.tolist(),
        "norm_stats": stats.to_dict(),
    }
    _atomic_write(out / "params.bin", b"".join(blobs))
    _atomic_write(out / "manifest.json",
                  (json.dumps(manifest, indent=2) + "\n").encode())


def load_checkpoint(ckpt_dir) -> Tuple[JointModel, Vocab, NormStats, dict]:
    src = Path(ckpt_dir)
    manifest_path, bin_path = src / "manifest.json", src / "params.bin"
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise ParseError(f"missing manifest.json under {src}")
    except json.JSONDecodeError as err:
        raise ParseError(f"manifest.json: {err}")
    where = str(manifest_path)
    require(manifest, {"config": dict, "vocab_words": [str], "norm_stats": dict,
                       "physical_adjacency": list, "n_nodes": 1, "seed": 0, "tensors": list,
                       "total_bytes": 0}, where)
    n, seed = manifest["n_nodes"], manifest["seed"]
    cfg = require_config(manifest["config"], ModelConfig, f"{where} key 'config'")
    vocab = Vocab(id_to_word=manifest["vocab_words"][4:])
    norm_where = f"{where} key 'norm_stats'"
    norm = require(manifest["norm_stats"], {"mean": list, "std": list}, norm_where)
    stats = NormStats(mean=_number_array(norm, "mean", (n, 1), norm_where),
                      std=_number_array(norm, "std", (n, 1), norm_where))
    if not np.all(stats.std >= STD_FLOOR):  # it divides every input speed
        raise ParseError(f"{norm_where}: key 'std' must hold numbers >= {STD_FLOOR}")
    a_hat = _number_array(manifest, "physical_adjacency", (n, n), where)
    for i, entry in enumerate(manifest["tensors"]):
        require(entry, {"name": str, "shape": [0], "offset": 0}, f"{where} tensor {i}")
    # a_physical already includes self-loop normalization; rebuild then overwrite
    model = JointModel(cfg, vocab_size=len(vocab), n_nodes=n,
                       physical_adjacency=np.zeros_like(a_hat), seed=seed)
    model.gcn.a_physical = a_hat
    raw = bin_path.read_bytes()
    params = model.param_dict()
    missing = sorted(set(params) - {entry["name"] for entry in manifest["tensors"]})
    if missing:
        raise ParseError(f"{manifest_path}: no entry for tensor {missing[0]}")
    for entry in manifest["tensors"]:
        name, shape, off = entry["name"], entry["shape"], entry["offset"]
        if name not in params:
            raise ParseError(f"{manifest_path}: tensor {name} unknown to this model")
        if list(params[name].shape) != shape:
            raise ParseError(f"{manifest_path}: tensor {name} shape {shape} "
                             f"!= {params[name].shape}")
        count = int(np.prod(shape)) if shape else 1
        if off + 8 * count > len(raw):
            raise ParseError(f"{bin_path}: {len(raw)} bytes end inside tensor {name} "
                             f"(bytes {off}-{off + 8 * count})")
        params[name][...] = np.frombuffer(raw, dtype="<f8", count=count,
                                          offset=off).reshape(shape)
    if len(raw) != manifest["total_bytes"]:
        raise ParseError(f"{bin_path}: {len(raw)} bytes, {manifest_path.name} total_bytes is "
                         f"{manifest['total_bytes']}")
    return model, vocab, stats, manifest


def _number_array(obj: dict, key: str, shape: Tuple[int, ...], where: str) -> np.ndarray:
    """``obj[key]`` as a float64 array; ParseError unless it nests numbers in ``shape``."""
    try:
        arr = np.asarray(obj[key])
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise ParseError(f"{where}: key {key!r} must be a "
                         f"{'x'.join(map(str, shape))} array of numbers")
    return arr.astype(np.float64)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# --- ablation runner --------------------------------------------------------

def table_grid() -> List[Tuple[str, dict]]:
    """Component rows in progressive order: none, +gcn, +importance, +xattn,
    +memory (= full). Text conditioning stays on in every row."""
    names = [c for c in COMPONENTS if c != "text"]
    return [("+" + names[i - 1] if i else "none",
             {f"use_{c}": j < i for j, c in enumerate(names)})
            for i in range(len(names) + 1)]


def run_ablation(graph: RoadGraph, series: TrafficSeries, events: EventLog,
                 model_cfg: ModelConfig, train_cfg: TrainConfig) -> List[dict]:
    """Train one model per `table_grid` row on the shared split, evaluate each
    on the shared test set, and emit Table-style rows."""
    rows = []
    data = prepare_data(graph, series, events, model_cfg)
    for label, flags in table_grid():
        cfg = dataclasses.replace(model_cfg, **flags)
        model = JointModel(cfg, vocab_size=len(data.vocab), n_nodes=graph.n_nodes,
                           physical_adjacency=graph.adjacency, seed=train_cfg.seed)
        train(model, data.train, train_cfg)
        report, _ = evaluate(model, data.test, data.stats, data.vocab)
        rows.append({
            "label": label,
            "flags": flags,
            "BLEU-4": report.bleu4,
            "ROUGE-L": report.rouge_l,
            "METEOR": report.meteor,
            "pred": report.pred,
        })
    return rows
