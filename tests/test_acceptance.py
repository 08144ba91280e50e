"""Acceptance suite: the nine release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavier criteria (5-7) train real models and together stay within
the CPU budgets stated alongside each test.
"""

import dataclasses
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from test_metrics import bleu4_oracle, lcs_oracle, meteor_oracle, rouge_oracle

from roadcast.dataset import generate_synthetic, load_dataset, save_dataset
from roadcast.fusion import FilmModulation, adaptive_adjacency
from roadcast.generator import selection_size
from roadcast.metrics import bleu4, lcs_length, meteor, rouge_l, validate_report
from roadcast.model import JointModel, ModelConfig
from roadcast.numerics import RngState
from roadcast.tokenizer import BOS
from roadcast.training import (TrainConfig, batchify, evaluate, load_checkpoint,
                               prepare_data, run_ablation, save_checkpoint,
                               table_grid, train)
from roadcast.verify import (check_joint_gradients, check_metric_examples,
                             check_mhsa_oracle, check_road_xattn_masked_dense,
                             check_sparse_align_dense, probe_model, run_verify)


def _line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


# Criterion 6 experiment: one fixed dataset, five model/training seeds.
# Anomalies are announced one window ahead of their traffic effect (scheduled
# closures), so the no-text model cannot anticipate the onset while the
# text-conditioned model can.
CRIT6_DATA = dict(n_nodes=6, n_steps=600, anomaly_rate=0.3, anomaly_depth=0.3,
                  seed=0, announce_lead=12)
CRIT6_TRAIN = dict(lr=0.001, batch=16, epochs=60, warmup_epochs=4)

# Criterion 7 experiment: deep anomalies so reports are predictable from traffic.
CRIT7_DATA = dict(n_nodes=8, n_steps=600, anomaly_rate=0.3, anomaly_depth=0.6,
                  seed=0)
CRIT7_TRAIN = dict(lr=0.001, batch=8, epochs=60, warmup_epochs=4)

def _mean_mae(report) -> float:
    return float(np.mean([report.pred[k]["mae"] for k in report.pred]))


def _fit(graph, series, events, cfg, tc_kwargs, seed):
    data = prepare_data(graph, series, events, cfg)
    model = JointModel(cfg, vocab_size=len(data.vocab), n_nodes=graph.n_nodes,
                       physical_adjacency=graph.adjacency, seed=seed)
    train(model, data.train, TrainConfig(seed=seed, **tc_kwargs))
    report, _ = evaluate(model, data.test, data.stats, data.vocab)
    return report


def _run_all(calls, monkeypatch):
    """Results of independent (fn, args) calls, in call order, computed in up
    to two worker processes. Every call is seeded, so the results are those of
    a serial run; the parallelism only shortens criteria 6 and 7."""
    workers = min(2, len(os.sched_getaffinity(0)))
    if workers < 2:
        return [fn(*args) for fn, args in calls]
    # one BLAS thread per worker: two workers that each start a BLAS thread
    # per CPU oversubscribe the CPUs and run slower than one serial process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(fn, *args) for fn, args in calls]
        return [f.result() for f in futures]


def test_criterion_1_gradient_correctness():
    failures = check_joint_gradients(seeds=(0, 1, 2), tol=1e-4)
    _line(1, "all parameterized ops pass central finite-difference checks "
             "(rel err < 1e-4, 3 seeds)", not failures,
          "; ".join(failures[:3]))


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        lh, lr_ = rng.integers(1, 21, size=2)
        hyp = [int(t) for t in rng.integers(0, 8, size=lh)]
        ref = [int(t) for t in rng.integers(0, 8, size=lr_)]
        worst = max(worst,
                    abs(bleu4(hyp, [ref]) - bleu4_oracle(hyp, [ref])),
                    abs(meteor(hyp, ref) - meteor_oracle(hyp, ref)),
                    abs(rouge_l(hyp, ref) - rouge_oracle(hyp, ref)),
                    abs(lcs_length(hyp, ref) - lcs_oracle(tuple(hyp), tuple(ref))))
    examples_ok = not check_metric_examples()
    _line(2, "BLEU-4/METEOR/ROUGE-L/LCS match brute-force oracles within 1e-9 "
             "on 100 random pairs plus worked examples",
          worst < 1e-9 and examples_ok, f"max abs diff {worst:.2e}")


def test_criterion_3_attention_equivalence():
    failures = (check_sparse_align_dense() + check_mhsa_oracle()
                + check_road_xattn_masked_dense())
    _line(3, "sparse alignment, decoder attention, and road cross-attention "
             "match dense/naive oracles within 1e-12", not failures,
          "; ".join(failures[:3]))


def test_criterion_4_structural_invariants():
    ok, detail = True, ""
    rng = RngState(0)
    # adaptive adjacency rows sum to 1
    for n in (1, 5, 20):
        rows = adaptive_adjacency(rng.normal((n, 6))).sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            ok, detail = False, "adjacency rows"
    # FiLM with zero context halves the features exactly
    film = FilmModulation(8, rng)
    feats = rng.normal((2, 3, 4, 8))
    if not np.array_equal(film.forward(feats, np.zeros((2, 3, 8))), 0.5 * feats):
        ok, detail = False, "FiLM zero-context"
    # top-30% selection cardinality for N = 1..50
    for n in range(1, 51):
        if selection_size(n) != max(1, math.ceil(0.3 * n)):
            ok, detail = False, f"selection N={n}"
    # LoRA zero-init output equals the base path bitwise (dropout off)
    model, _, batch = probe_model(0)
    blk = model.generator.blocks[0]
    x = rng.normal((3, blk.wq.w.shape[0]))
    for proj in (blk.wq, blk.wv):
        if not np.array_equal(proj.forward(x), x @ proj.w):
            ok, detail = False, "LoRA zero-init"
    # decoder causality on random probes
    traffic = model.conditioning(batch["y_future"])
    probe_rng = np.random.default_rng(1)
    for _ in range(3):
        tokens = probe_rng.integers(3, 12, size=(1, 6))
        base = model.generator.forward(tokens, traffic[:1])
        pos = int(probe_rng.integers(1, 6))
        mutated = tokens.copy()
        mutated[0, pos] = 3 + (mutated[0, pos] - 3 + 1) % 9
        out = model.generator.forward(mutated, traffic[:1])
        if not np.allclose(out[0, :pos], base[0, :pos], atol=1e-12):
            ok, detail = False, "causality"
    _line(4, "adjacency rows stochastic, FiLM zero-context halving, top-30% "
             "cardinality, LoRA zero-init bitwise, decoder causality", ok, detail)


def test_criterion_5_overfit_sanity():
    graph, series, events = generate_synthetic(8, 64, 0.3, 0.4, seed=0)
    cfg = ModelConfig()
    data = prepare_data(graph, series, events, cfg)
    samples = data.train[:8]
    model = JointModel(cfg, vocab_size=len(data.vocab), n_nodes=8,
                       physical_adjacency=graph.adjacency, seed=0)
    tc = TrainConfig(lr=0.01, batch=8, epochs=500, warmup_epochs=5, seed=0)
    trace = train(model, samples, tc, max_steps=500)
    best = min(trace)
    _line(5, "8-sample overfit reaches joint loss < 0.05 within 500 steps",
          best < 0.05, f"best epoch-mean loss {best:.4f}")


def test_criterion_6_text_ablation_direction(monkeypatch):
    graph, series, events = generate_synthetic(**CRIT6_DATA)
    cfg_no_text = dataclasses.replace(ModelConfig(), use_text=False)
    reports = _run_all([(_fit, (graph, series, events, cfg, CRIT6_TRAIN, seed))
                        for seed in range(5)
                        for cfg in (ModelConfig(), cfg_no_text)], monkeypatch)
    full = [_mean_mae(r) for r in reports[0::2]]
    no_text = [_mean_mae(r) for r in reports[1::2]]
    med_f, med_n = float(np.median(full)), float(np.median(no_text))
    improv = (med_n - med_f) / med_n * 100.0
    _line(6, "median full-model MAE beats median no-text MAE by >= 1% on the "
             "text-announced anomaly benchmark", med_f <= med_n and improv >= 1.0,
          f"median full {med_f:.4f} vs no-text {med_n:.4f}, improv {improv:+.2f}%")


def test_criterion_7_component_ablation_direction(monkeypatch):
    graph, series, events = generate_synthetic(**CRIT7_DATA)
    grid = table_grid()
    none_flags, full_flags = grid[0][1], grid[-1][1]
    cfg_full = dataclasses.replace(ModelConfig(), **full_flags)
    cfg_none = dataclasses.replace(ModelConfig(), **none_flags)
    # the 5-row progressive table for the first seed, in fixed component
    # order, goes first: it is the longest call
    rows, *reports = _run_all(
        [(run_ablation, (graph, series, events, ModelConfig(),
                         TrainConfig(seed=0, **CRIT7_TRAIN)))]
        + [(_fit, (graph, series, events, cfg, CRIT7_TRAIN, seed))
           for seed in range(5) for cfg in (cfg_full, cfg_none)], monkeypatch)
    full = [r.bleu4 for r in reports[0::2]]
    none = [r.bleu4 for r in reports[1::2]]
    med_f, med_n = float(np.median(full)), float(np.median(none))
    print("\n    label         BLEU-4   ROUGE-L  METEOR")
    for row in rows:
        print(f"    {row['label']:<12}  {row['BLEU-4']:6.2f}   "
              f"{row['ROUGE-L']:.4f}   {row['METEOR']:.4f}")
    labels_ok = [r["label"] for r in rows] == [lbl for lbl, _ in grid]
    _line(7, "median full-model BLEU-4 over 5 seeds beats the no-component "
             "baseline by >= 1 point; 5-row ablation table emitted",
          med_f - med_n >= 1.0 and labels_ok,
          f"median full {med_f:.2f} vs none {med_n:.2f}")


def test_criterion_8_determinism_and_persistence(tiny_cfg, tmp_path):
    graph, series, events = generate_synthetic(4, 48, 0.3, 0.4, seed=1)
    outputs = []
    for run in range(2):
        data = prepare_data(graph, series, events, tiny_cfg)
        model = JointModel(tiny_cfg, vocab_size=len(data.vocab), n_nodes=4,
                           physical_adjacency=graph.adjacency, seed=0)
        tc = TrainConfig(lr=0.005, batch=8, epochs=2, warmup_epochs=1, seed=0)
        train(model, data.train, tc)
        save_checkpoint(tmp_path / f"ckpt{run}", model, data.vocab, data.stats, seed=0)
        report, artifacts = evaluate(model, data.test, data.stats, data.vocab)
        outputs.append((model, data, report, artifacts))
    bits_equal = ((tmp_path / "ckpt0" / "params.bin").read_bytes()
                  == (tmp_path / "ckpt1" / "params.bin").read_bytes())
    forecasts_equal = np.array_equal(outputs[0][3]["forecasts"],
                                     outputs[1][3]["forecasts"])
    reports_equal = outputs[0][3]["gen_texts"] == outputs[1][3]["gen_texts"]
    # checkpoint roundtrip restores every tensor bitwise
    again, _, _, _ = load_checkpoint(tmp_path / "ckpt0")
    params = dict(outputs[0][0].named_params())
    ckpt_ok = all(np.array_equal(p, params[name])
                  for name, p in again.named_params())
    # dataset roundtrip is bit-exact
    save_dataset(tmp_path / "data", graph, series, events, seed=1)
    g2, s2, e2, _ = load_dataset(tmp_path / "data")
    data_ok = (np.array_equal(s2.speeds, series.speeds)
               and np.array_equal(g2.adjacency, graph.adjacency)
               and len(e2) == len(events))
    ok = bits_equal and forecasts_equal and reports_equal and ckpt_ok and data_ok
    _line(8, "identical seed/config reproduce checkpoints, forecasts, and "
             "reports bit-identically; save/load roundtrips are bit-exact", ok,
          f"ckpt={bits_equal} fc={forecasts_equal} rep={reports_equal} "
          f"roundtrip={ckpt_ok} dataset={data_ok}")


def test_criterion_9_metric_sanity_schema_and_verify(tiny_cfg, tmp_path):
    graph, series, events = generate_synthetic(4, 48, 0.3, 0.4, seed=2)
    data = prepare_data(graph, series, events, tiny_cfg)
    model = JointModel(tiny_cfg, vocab_size=len(data.vocab), n_nodes=4,
                       physical_adjacency=graph.adjacency, seed=0)
    train(model, data.train,
          TrainConfig(lr=0.005, batch=8, epochs=2, warmup_epochs=1, seed=0))
    report, _ = evaluate(model, data.test, data.stats, data.vocab)
    rmse_ok = all(v["rmse"] >= v["mae"] - 1e-12 for v in report.pred.values())
    d = report.to_dict()
    validate_report(d)  # raises on schema violation
    report.save(tmp_path / "report.json")
    saved = json.loads((tmp_path / "report.json").read_text())
    verify_ok = not run_verify()
    _line(9, "RMSE >= MAE on all evaluation outputs, report.json validates "
             "against the schema, and verify exits clean",
          rmse_ok and saved == d and verify_ok,
          f"rmse_ok={rmse_ok} verify_ok={verify_ok}")
