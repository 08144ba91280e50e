"""Losses, optimizer, schedule, gradient harness, training determinism,
checkpoint roundtrips, and the ablation grid."""

import dataclasses

import numpy as np
import pytest

from roadcast.dataset import generate_synthetic
from roadcast.errors import ParameterError, ParseError
from roadcast.model import JointModel, ModelConfig
from roadcast.numerics import RngState
from roadcast.tokenizer import PAD
from roadcast.training import (Adam, TrainConfig, batchify, cross_entropy_loss,
                               evaluate, forecast_batches, forward_backward,
                               grad_check, joint_loss, load_checkpoint,
                               lr_schedule, mse_loss, prepare_data,
                               save_checkpoint, table_grid, train)


def tiny_setup(cfg, seed=0, n_steps=48):
    graph, series, events = generate_synthetic(4, n_steps, 0.3, 0.4, seed=seed)
    data = prepare_data(graph, series, events, cfg)
    model = JointModel(cfg, vocab_size=len(data.vocab), n_nodes=4,
                       physical_adjacency=graph.adjacency, seed=seed)
    return graph, series, events, data, model


# --- losses ------------------------------------------------------------------

def test_mse_loss_hand_value_and_gradient():
    y_hat = np.array([[1.0, 3.0]])
    y = np.array([[0.0, 1.0]])
    loss, dy = mse_loss(y_hat, y)
    assert loss == pytest.approx((1 + 4) / 2)
    np.testing.assert_allclose(dy, [[1.0, 2.0]])


def test_cross_entropy_hand_value():
    # uniform logits over 4 classes -> loss = log(4)
    logits = np.zeros((1, 3, 4))
    targets = np.array([[1, 2, 3]])
    loss, dlogits = cross_entropy_loss(logits, targets)
    assert loss == pytest.approx(np.log(4.0))
    # gradient: (p - onehot)/n_tok
    want = np.full((1, 3, 4), 0.25)
    for i, t in enumerate([1, 2, 3]):
        want[0, i, t] -= 1.0
    np.testing.assert_allclose(dlogits, want / 3.0, atol=1e-12)


def test_cross_entropy_excludes_pad():
    logits = RngState(0).normal((1, 4, 5))
    targets = np.array([[2, 3, PAD, PAD]])
    loss, dlogits = cross_entropy_loss(logits, targets)
    l2, _ = cross_entropy_loss(logits[:, :2], targets[:, :2])
    assert loss == pytest.approx(l2)
    np.testing.assert_array_equal(dlogits[0, 2:], np.zeros((2, 5)))


def test_cross_entropy_all_pad_is_zero():
    loss, dlogits = cross_entropy_loss(np.ones((1, 2, 3)), np.array([[PAD, PAD]]))
    assert loss == 0.0
    np.testing.assert_array_equal(dlogits, np.zeros((1, 2, 3)))


def test_cross_entropy_gradient_fd():
    logits = RngState(1).normal((2, 3, 5))
    targets = np.array([[2, 3, PAD], [4, 2, 3]])
    _, dlogits = cross_entropy_loss(logits, targets)
    h = 1e-6
    flat, gflat = logits.reshape(-1), dlogits.reshape(-1)
    for i in range(logits.size):
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = cross_entropy_loss(logits, targets)
        flat[i] = orig - h
        lm, _ = cross_entropy_loss(logits, targets)
        flat[i] = orig
        assert abs((lp - lm) / (2 * h) - gflat[i]) < 1e-6


def test_joint_loss_combines_with_lambda():
    rng = RngState(2)
    forecast, y = rng.normal((1, 2)), rng.normal((1, 2))
    logits = rng.normal((1, 2, 4))
    targets = np.array([[2, 3]])
    l_pred, _ = mse_loss(forecast, y)
    l_text, dl = cross_entropy_loss(logits, targets)
    total, dy, dlogits = joint_loss(forecast, y, logits, targets, 0.5)
    assert total == pytest.approx(l_pred + 0.5 * l_text)
    np.testing.assert_allclose(dlogits, 0.5 * dl, atol=1e-15)


# --- optimizer and schedule --------------------------------------------------

def test_adam_single_step_hand_calc():
    p = np.array([1.0])
    opt = Adam({"p": p})
    g = np.array([0.5])
    opt.step({"p": g}, lr=0.1)
    # first step: m_hat = g, v_hat = g^2 -> update = lr * g/(|g| + eps) ~ lr
    want = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert p[0] == pytest.approx(want, abs=1e-9)


def test_adam_skips_frozen():
    p, q = np.array([1.0]), np.array([1.0])
    opt = Adam({"p": p, "q": q}, frozen=["q"])
    opt.step({"p": np.array([1.0]), "q": np.array([1.0])}, lr=0.1)
    assert p[0] != 1.0 and q[0] == 1.0


def test_lr_schedule_shape():
    base = 0.01
    assert lr_schedule(0, 100, 10, base) == 0.0
    assert lr_schedule(5, 100, 10, base) == pytest.approx(base / 2)
    assert lr_schedule(10, 100, 10, base) == pytest.approx(base)
    assert lr_schedule(55, 100, 10, base) == pytest.approx(
        0.5 * base * (1 + np.cos(np.pi * 0.5)))
    assert lr_schedule(100, 100, 10, base) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ParameterError):
        lr_schedule(0, 10, 10, base)


# --- gradient harness --------------------------------------------------------

def test_grad_check_passes_on_quadratic():
    p = {"w": np.array([1.0, -2.0])}
    g = {"w": np.zeros(2)}

    def loss_fn():
        g["w"][...] = 2.0 * p["w"]
        return float((p["w"] ** 2).sum())

    report = grad_check(loss_fn, p, g)
    assert report.passed and report.n_checked == 2


def test_grad_check_flags_wrong_gradient():
    p = {"w": np.array([1.0])}
    g = {"w": np.zeros(1)}

    def loss_fn():
        g["w"][...] = 3.0 * p["w"]  # wrong: true grad is 2w
        return float((p["w"] ** 2).sum())

    report = grad_check(loss_fn, p, g)
    assert not report.passed
    assert "w[0]" in report.failures[0]


def test_grad_check_respects_skip():
    p = {"w": np.array([1.0]), "frozen": np.array([1.0])}
    g = {"w": np.zeros(1), "frozen": np.zeros(1)}

    def loss_fn():
        g["w"][...] = 2.0 * p["w"]
        return float(p["w"][0] ** 2 + p["frozen"][0] ** 2)

    report = grad_check(loss_fn, p, g, skip=["frozen"])
    assert report.passed and report.n_checked == 1


# --- data preparation --------------------------------------------------------

def test_prepare_data_boundary_and_stats(tiny_cfg):
    graph, series, events, data, _ = tiny_setup(tiny_cfg)
    n_samples = series.speeds.shape[0] - 2 * tiny_cfg.window + 1
    boundary = int(np.floor(0.8 * n_samples))
    assert data.test[0].anchor_time == boundary
    # stats fitted on pre-boundary rows only
    np.testing.assert_allclose(
        data.stats.mean, series.speeds[:boundary].mean(axis=(0,))[None, :, 0].T.reshape(
            data.stats.mean.shape), atol=1e-6)


def test_batchify_shapes(tiny_cfg):
    _, _, _, data, _ = tiny_setup(tiny_cfg)
    batch = batchify(data.train[:3])
    assert batch["x_hist"].shape == (3, 8, 4, 1)
    assert batch["y_future"].shape == (3, 8, 4, 1)
    assert batch["text_hist"].shape == (3, 8)
    assert batch["text_future"].shape == (3, 10)


def test_model_config_resolved_top_k():
    assert ModelConfig(top_k=7).resolved_top_k() == 7
    assert ModelConfig(top_k=None, hist_text_len=16).resolved_top_k() == 4
    assert ModelConfig(top_k=None, hist_text_len=5).resolved_top_k() == 2
    cfg = ModelConfig.from_dict({"d_model": 16, "unknown_key": 1})
    assert cfg.d_model == 16


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(batch=0)
    cfg = TrainConfig.from_dict({"lr": 0.01, "extra": 5})
    assert cfg.lr == 0.01


# --- training determinism ----------------------------------------------------

def test_train_is_deterministic_and_evaluate_consistent(tiny_cfg):
    tc = TrainConfig(lr=0.005, batch=4, epochs=2, warmup_epochs=1, seed=0)
    runs = []
    for _ in range(2):
        graph, series, events, data, model = tiny_setup(tiny_cfg)
        trace = train(model, data.train, tc)
        report, artifacts = evaluate(model, data.test, data.stats, data.vocab)
        runs.append((trace, dict(model.named_params()), artifacts["forecasts"],
                     artifacts["gen_texts"]))
    assert runs[0][0] == runs[1][0]
    for name, p in runs[0][1].items():
        np.testing.assert_array_equal(p, runs[1][1][name], err_msg=name)
    np.testing.assert_array_equal(runs[0][2], runs[1][2])
    assert runs[0][3] == runs[1][3]


def test_train_empty_split_rejected(tiny_cfg):
    _, _, _, _, model = tiny_setup(tiny_cfg)
    with pytest.raises(ParameterError):
        train(model, [], TrainConfig())


def test_train_max_steps_stops_early(tiny_cfg):
    graph, series, events, data, model = tiny_setup(tiny_cfg)
    tc = TrainConfig(lr=0.005, batch=4, epochs=50, warmup_epochs=1, seed=0)
    trace = train(model, data.train, tc, max_steps=3)
    assert len(trace) == 1  # stopped inside the first epoch


# --- eval mode keeps no backward caches --------------------------------------

# What a module holds between calls that is not a backward cache: parameters,
# children, the LoRA rng, the masks the gradient harness freezes, and the ids
# Embedding's own forward indexes with.
MODULE_STATE = {"_params", "_grads", "_frozen", "_children", "_rng", "_mask_cache", "_ids"}


def held_caches(module, prefix=""):
    """Dotted names of the private attributes of ``module`` and its children
    that hold anything beyond MODULE_STATE."""
    held = [prefix + name for name, value in vars(module).items()
            if name.startswith("_") and name not in MODULE_STATE and value is not None]
    for cname, child in module._children.items():
        held += held_caches(child, f"{prefix}{cname}.")
    return held


@pytest.mark.parametrize("train_first,decode", [(False, False), (True, False), (True, True)],
                         ids=["forecast", "train-then-forecast", "train-then-decode"])
def test_eval_forwards_keep_no_backward_cache(tiny_cfg, train_first, decode):
    _, _, _, data, model = tiny_setup(tiny_cfg)
    if train_first:
        forward_backward(model, batchify(data.train[:8]), lambda_text=0.5)
        # training mode keeps a cache in one layer of every class that has one
        assert {"gcn.w._cache", "generator.block0.wq._cache", "predictor.norm._cache",
                "text_encoder.local._cache", "text_encoder.depthwise._cache",
                "predictor.block0.attn_node._cache", "align._cache", "film._cache",
                "gcn._cache", "generator.importance._cache", "generator.xattn._cache",
                "generator.memory._cache", "predictor._cache", "predictor.patch_embed._cache",
                "predictor.block0._cache", "text_encoder._cache"} <= set(held_caches(model))
    for _, y_hat in forecast_batches(model, data.test[:4]):
        if decode:
            model.decode_reports(y_hat, tiny_cfg.future_text_len)
    assert held_caches(model) == []


# --- checkpoint I/O ----------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tiny_cfg, tmp_path):
    graph, series, events, data, model = tiny_setup(tiny_cfg)
    tc = TrainConfig(lr=0.005, batch=4, epochs=1, warmup_epochs=0, seed=0)
    train(model, data.train, tc)
    save_checkpoint(tmp_path, model, data.vocab, data.stats, seed=0, train_cfg=tc)
    again, vocab2, stats2, manifest = load_checkpoint(tmp_path)
    before = dict(model.named_params())
    for name, p in again.named_params():
        np.testing.assert_array_equal(p, before[name], err_msg=name)
    np.testing.assert_array_equal(again.gcn.a_physical, model.gcn.a_physical)
    assert vocab2.id_to_word == data.vocab.id_to_word
    np.testing.assert_array_equal(stats2.mean, data.stats.mean)
    # forecasts from the reloaded model are bit-identical
    batch = batchify(data.test[:2])
    np.testing.assert_array_equal(
        again.forward_predict(batch["x_hist"], batch["text_hist"]),
        model.forward_predict(batch["x_hist"], batch["text_hist"]))


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(ParseError, match="manifest.json"):
        load_checkpoint(tmp_path)


def test_checkpoint_shape_mismatch_detected(tiny_cfg, tmp_path):
    import json
    graph, series, events, data, model = tiny_setup(tiny_cfg)
    save_checkpoint(tmp_path, model, data.vocab, data.stats, seed=0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][0]["shape"] = [1, 1]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="shape"):
        load_checkpoint(tmp_path)


# --- ablation grid -----------------------------------------------------------

def test_table_grid_progressive_order():
    grid = table_grid()
    assert [label for label, _ in grid] == ["none", "+gcn", "+importance",
                                            "+xattn", "+memory"]
    # last row is the full component set
    assert all(grid[-1][1].values())
    assert not any(grid[0][1].values())


def test_ablation_flags_change_model_behavior(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, use_text=False)
    graph, series, events, data, model = tiny_setup(cfg)
    batch = batchify(data.train[:2])
    y1 = model.forward_predict(batch["x_hist"], batch["text_hist"])
    blank = np.zeros_like(batch["text_hist"])
    y2 = model.forward_predict(batch["x_hist"], blank)
    np.testing.assert_array_equal(y1, y2)  # text path fully bypassed
