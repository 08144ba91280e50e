"""Output checks for the benchmark's workloads.

Each check recomputes what it needs in-process, from the dataset and the
checkpoint, apart from the code path that wrote the program's output, and
raises `CheckError` naming the first thing that is wrong. On success a check
returns the amount of work the output represents (optimizer steps, generated
report tokens or forecast windows).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import List

import numpy as np

from roadcast.dataset import denormalize, load_dataset
from roadcast.generator import selection_size
from roadcast.model import JointModel
from roadcast.numerics import RngState
from roadcast.tokenizer import BOS, EOS, PAD, UNK
from roadcast.training import batchify, load_checkpoint, prepare_data

LOGIT_TOL = 1e-9      # teacher-forced logit of each decoded token vs the row maximum
FORECAST_TOL = 1e-9   # km/h, forecasts of permuted roads vs the written forecasts
EVAL_BATCH = 16
N_PROBE = 4           # predict windows forecast again in-process
HIDDEN_TOKENS = (PAD, BOS, UNK)  # decoded by the model but dropped from report text


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _forecast(model: JointModel, samples) -> np.ndarray:
    """Normalized forecasts for ``samples``, in batches of EVAL_BATCH."""
    model.set_training(False)
    out = []
    for start in range(0, len(samples), EVAL_BATCH):
        batch = batchify(samples[start:start + EVAL_BATCH])
        out.append(model.forward_predict(batch["x_hist"], batch["text_hist"]))
    return np.concatenate(out, axis=0)


# --- train ------------------------------------------------------------------

def read_loss_trace(path: Path) -> List[float]:
    lines = path.read_text().splitlines()
    _require(bool(lines) and lines[0] == "epoch,loss", f"{path.name}: bad header")
    values = []
    for i, line in enumerate(lines[1:]):
        epoch, loss = line.split(",")
        _require(int(epoch) == i, f"{path.name}: epoch {epoch} out of order")
        values.append(float(loss))
    return values


def check_train(data_dir: Path, ckpt_dir: Path, epochs: int, seed: int) -> int:
    """Checks a `roadcast train` checkpoint; returns the optimizer steps taken."""
    trace = read_loss_trace(ckpt_dir / "loss_trace.csv")
    _require(len(trace) == epochs, f"loss trace has {len(trace)} epochs, expected {epochs}")
    _require(all(math.isfinite(v) for v in trace), "loss trace holds a non-finite value")
    _require(trace[-1] < trace[0],
             f"last epoch loss {trace[-1]!r} is not below the first {trace[0]!r}")

    manifest = json.loads((ckpt_dir / "manifest.json").read_text())
    size = (ckpt_dir / "params.bin").stat().st_size
    _require(manifest["total_bytes"] == size,
             f"total_bytes {manifest['total_bytes']} != params.bin size {size}")
    model, _, _, _ = load_checkpoint(ckpt_dir)
    params = dict(model.named_params())
    entries = sorted(manifest["tensors"], key=lambda e: e["offset"])
    _require(sorted(e["name"] for e in entries) == sorted(params),
             "checkpoint tensors differ from the model's parameters")
    offset = 0
    for entry in entries:
        _require(entry["offset"] == offset, f"tensor {entry['name']} is not at byte {offset}")
        offset += 8 * params[entry["name"]].size
    _require(offset == size, f"tensors cover {offset} of {size} bytes")

    graph, series, events, _ = load_dataset(data_dir)
    data = prepare_data(graph, series, events, model.config)
    fresh = JointModel(model.config, vocab_size=len(data.vocab), n_nodes=graph.n_nodes,
                       physical_adjacency=graph.adjacency, seed=seed)
    y_true = np.stack([s.y_future for s in data.train])
    mse_trained = float(np.mean((_forecast(model, data.train) - y_true) ** 2))
    mse_init = float(np.mean((_forecast(fresh, data.train) - y_true) ** 2))
    _require(mse_trained < mse_init,
             f"training-window MSE {mse_trained!r} is not below the initial {mse_init!r}")
    return epochs * -(-len(data.train) // manifest["train_config"]["batch"])


# --- describe ---------------------------------------------------------------

def _logits(model: JointModel, seqs: List[List[int]], y_hat: np.ndarray) -> np.ndarray:
    width = max(len(s) for s in seqs)
    tokens = np.array([s + [EOS] * (width - len(s)) for s in seqs])
    return model.forward_generate(tokens, y_hat)


def reconstruct_reports(model: JointModel, word_ids: List[List[int]],
                        y_hat: np.ndarray, max_len: int) -> List[List[int]]:
    """Token sequences that greedy decoding must have produced for these reports.

    The report text drops PAD, BOS and UNK, so those tokens are re-inserted
    wherever the teacher-forced logits make one of them the argmax and the
    next word is not. Every other position must put the next token's logit
    within LOGIT_TOL of the row maximum, and a report shorter than
    ``max_len`` must end where EOS is the argmax.
    """
    seqs = [[BOS] + list(w) for w in word_ids]
    verified = [0] * len(seqs)  # positions whose next token is confirmed
    open_rows = set(range(len(seqs)))
    while open_rows:
        rows = sorted(open_rows)
        logits = _logits(model, [seqs[i] for i in rows], y_hat[rows])
        for r, i in enumerate(rows):
            seq = seqs[i]
            _require(len(seq) <= max_len, f"report {i} exceeds {max_len} tokens")
            pos = verified[i]
            while pos + 1 < len(seq):
                row = logits[r, pos]
                if row[seq[pos + 1]] >= row.max() - LOGIT_TOL:
                    pos += 1
                    continue
                best = int(np.argmax(row))
                _require(best in HIDDEN_TOKENS,
                         f"report {i}: token {seq[pos + 1]} at position {pos + 1} "
                         f"is not the argmax {best}")
                seq.insert(pos + 1, best)
                break
            else:
                if len(seq) == max_len:
                    open_rows.discard(i)
                    continue
                best = int(np.argmax(logits[r, pos]))
                _require(best == EOS or best in HIDDEN_TOKENS,
                         f"report {i} ends where token {best}, not EOS, is the argmax")
                seq.append(best)
                if best == EOS:
                    open_rows.discard(i)
            verified[i] = pos
    return seqs


def check_describe(data_dir: Path, ckpt_dir: Path, reports_path: Path) -> int:
    """Checks `roadcast describe` output; returns the generated tokens, EOS
    included and BOS excluded."""
    model, vocab, _, _ = load_checkpoint(ckpt_dir)
    model.set_training(False)
    graph, series, events, _ = load_dataset(data_dir)
    test = prepare_data(graph, series, events, model.config).test
    records = [json.loads(line) for line in reports_path.read_text().splitlines()]
    _require(len(records) == len(test), f"{len(records)} reports for {len(test)} windows")
    k = selection_size(graph.n_nodes)
    word_ids = []
    for rec, sample in zip(records, test):
        _require(rec["anchor"] == sample.anchor_time,
                 f"report anchor {rec['anchor']} != window anchor {sample.anchor_time}")
        sel = rec["selected_nodes"]
        _require(len(sel) == k and len(set(sel)) == k
                 and all(0 <= n < graph.n_nodes for n in sel),
                 f"anchor {rec['anchor']}: selected_nodes {sel} are not {k} distinct roads")
        ids = []
        for word in rec["text"].split():
            _require(word in vocab.word_to_id, f"anchor {rec['anchor']}: unknown word {word!r}")
            ids.append(vocab.word_to_id[word])
        word_ids.append(ids)

    max_len = model.config.future_text_len
    tokens = 0
    for start in range(0, len(test), EVAL_BATCH):
        chunk = test[start:start + EVAL_BATCH]
        batch = batchify(chunk)
        y_hat = model.forward_predict(batch["x_hist"], batch["text_hist"])
        seqs = reconstruct_reports(model, word_ids[start:start + EVAL_BATCH], y_hat, max_len)
        for seq in seqs:
            _require(EOS not in seq[:-1], "a report continues past EOS")
            tokens += len(seq) - 1
    return tokens


# --- predict ----------------------------------------------------------------

def read_forecasts(path: Path, n_nodes: int):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows[0]) == n_nodes + 2 and rows[0][:2] == ["anchor", "step"],
             f"{path.name}: header has {len(rows[0])} columns, expected {n_nodes + 2}")
    for ln, row in enumerate(rows[1:], start=2):
        _require(len(row) == n_nodes + 2, f"{path.name}: row {ln} has {len(row)} columns")
    keys = [(int(r[0]), int(r[1])) for r in rows[1:]]
    values = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    return rows[0][2:], keys, values


def permute_roads(model: JointModel, stats, samples, perm: np.ndarray) -> None:
    """Renumbers the roads, in place, of everything a forecast reads: the
    speeds of ``samples``, the physical adjacency, the rows of ``gcn.e`` and
    the normalisation statistics. Road ``perm[j]`` becomes road ``j``."""
    gcn = model.gcn
    gcn.e[...] = gcn.e[perm]
    gcn.a_physical = gcn.a_physical[perm][:, perm]
    for s in samples:
        s.x_hist = s.x_hist[:, perm]
    stats.mean, stats.std = stats.mean[perm], stats.std[perm]


def check_predict(data_dir: Path, ckpt_dir: Path, csv_path: Path, seed: int) -> int:
    """Checks `roadcast predict` output; returns the forecast windows written.

    N_PROBE windows spread over the test split are forecast again in-process,
    once as they are and once with their roads permuted (`permute_roads`);
    both must match the written forecasts, permuted the same way.
    """
    model, _, stats, _ = load_checkpoint(ckpt_dir)
    graph, series, events, _ = load_dataset(data_dir)
    test = prepare_data(graph, series, events, model.config).test
    n = graph.n_nodes
    window = model.config.window
    names, keys, values = read_forecasts(csv_path, n)
    _require(names == graph.node_names, f"{csv_path.name}: header names differ from the roads")
    _require(len(keys) == len(test) * window,
             f"{csv_path.name}: {len(keys)} rows, expected {len(test) * window}")
    expected_keys = [(s.anchor_time, step) for s in test for step in range(window)]
    _require(keys == expected_keys, f"{csv_path.name}: anchors or steps out of order")
    _require(bool(np.all(np.isfinite(values))), f"{csv_path.name}: non-finite forecast")

    picks = sorted({int(i) for i in np.linspace(0, len(test) - 1, N_PROBE)})
    written = values.reshape(len(test), window, n)[picks]
    probe = [test[i] for i in picks]
    plain = denormalize(_forecast(model, probe), stats)[..., 0]
    _require(np.allclose(plain, written, rtol=0.0, atol=FORECAST_TOL),
             "in-process forecasts differ from the written ones")

    perm = RngState(seed).permutation(n)
    permute_roads(model, stats, probe, perm)
    permuted = denormalize(_forecast(model, probe), stats)[..., 0]
    _require(np.allclose(permuted, written[..., perm], rtol=0.0, atol=FORECAST_TOL),
             "forecasts do not permute with the roads")
    return len(test)
