"""Self-verification suite behind `roadcast verify`: oracle-equivalence
checks for the attention paths and metrics, plus a finite-difference
gradient check of the full joint loss on a small probe model.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from .fusion import SparseAlign
from .metrics import bleu4, lcs_length, meteor, rouge_l
from .model import JointModel, ModelConfig
from .nn import MultiHeadAttention
from .numerics import RngState, softmax_rows
from .tokenizer import BOS, EOS, PAD
from .training import forward_backward, grad_check


def _naive_attention(q, k, v, mask=None):
    """O(L^2) loop reference for single-head scaled-dot attention."""
    lq, d = q.shape
    lk = k.shape[0]
    out = np.zeros((lq, d))
    for i in range(lq):
        scores = np.array([q[i] @ k[j] / math.sqrt(d) for j in range(lk)])
        if mask is not None:
            scores = scores + mask[i]
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[i] = sum(w[j] * v[j] for j in range(lk))
    return out


def _naive_mhsa(x, kv, wq, wk, wv, wo, heads, mask=None):
    length, d = x.shape
    dh = d // heads
    q_all, k_all, v_all = x @ wq, kv @ wk, kv @ wv
    pieces = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        pieces.append(_naive_attention(q_all[:, sl], k_all[:, sl], v_all[:, sl], mask))
    return np.concatenate(pieces, axis=-1) @ wo


def check_mhsa_oracle(seed: int = 0, tol: float = 1e-12) -> List[str]:
    rng = RngState(seed)
    d, h, length = 8, 2, 5
    attn = MultiHeadAttention(d, h, rng)
    x = rng.normal((1, length, d))
    got = attn.forward(x, x)[0]
    want = _naive_mhsa(x[0], x[0], attn.wq.w, attn.wk.w, attn.wv.w, attn.wo.w, h)
    diff = float(np.max(np.abs(got - want)))
    return [] if diff < tol else [f"mhsa vs naive loop oracle: max abs diff {diff:.3g}"]


def check_sparse_align_dense(seed: int = 0, tol: float = 1e-12) -> List[str]:
    rng = RngState(seed)
    b, s, length, d = 2, 4, 6, 8
    h_traffic = rng.normal((b, s, d))
    h_text = rng.normal((b, length, d))
    align = SparseAlign(top_k=length)
    c_text, _ = align.forward(h_traffic, h_text)
    dense = softmax_rows(h_traffic @ h_text.transpose(0, 2, 1) / np.sqrt(d)) @ h_text
    diff = float(np.max(np.abs(c_text - dense)))
    return [] if diff < tol else [f"sparse_align(top_k=L) vs dense attention: diff {diff:.3g}"]


def check_road_xattn_masked_dense(seed: int = 0, tol: float = 1e-12) -> List[str]:
    from .generator import RoadCrossAttention, RoadImportance

    rng = RngState(seed)
    b, length, n, f, d, heads = 1, 4, 6, 5, 8, 2
    imp = RoadImportance(f, 4, rng)
    xatt = RoadCrossAttention(f, d, heads, rng)
    x_traffic = rng.normal((b, n, f))
    h_text = rng.normal((b, length, d))
    scores, sel = imp.forward(x_traffic)
    got = xatt.forward(h_text, x_traffic, scores, sel)[0]

    # dense oracle: full attention with -inf scores on unselected nodes
    k_src = (x_traffic * scores)[0] @ xatt.k_proj.w + xatt.k_proj.b
    mask_row = np.where(sel[0] > 0, 0.0, -np.inf)
    mask = np.tile(mask_row, (length, 1))
    h_mod = _naive_mhsa(h_text[0], k_src, xatt.attn.wq.w, xatt.attn.wk.w,
                        xatt.attn.wv.w, xatt.attn.wo.w, heads, mask)
    gate_in = np.concatenate([h_text[0], h_mod], axis=-1)
    g = 1.0 / (1.0 + np.exp(-(gate_in @ xatt.gate.w + xatt.gate.b)))
    want = h_text[0] + g * h_mod
    diff = float(np.max(np.abs(got - want)))
    return [] if diff < tol else [f"road_cross_attention vs masked-dense oracle: diff {diff:.3g}"]


def check_metric_examples(tol: float = 1e-3) -> List[str]:
    failures = []
    cases = [
        ("bleu4 worked example",
         bleu4("a b c d e".split(), ["a b c d f".split()]),
         100.0 * (0.8 * 0.75 * (2 / 3) * 0.5) ** 0.25),
        ("meteor worked example", meteor("a b c".split(), "a b d".split()), 0.625),
        ("rouge_l worked example", rouge_l("a c d".split(), "a b c d".split()), 6.0 / 7.0),
        ("lcs classic example", float(lcs_length(list("ABCBDAB"), list("BDCABA"))), 4.0),
    ]
    for name, got, want in cases:
        if abs(got - want) > tol:
            failures.append(f"{name}: got {got:.6g}, expected {want:.6g}")
    return failures


def probe_model(seed: int) -> tuple:
    """Tiny joint model plus a fixed probe batch for gradient checking."""
    cfg = ModelConfig(d_model=8, heads=2, n_blocks=1, patch=4, window=8,
                      channels=1, d_embed=4, hist_text_len=8, future_text_len=8,
                      top_k=3, memory_slots=4, decoder_blocks=1, detector_hidden=4,
                      lora_rank=4, lora_alpha=8.0, lora_dropout=0.0)
    n_nodes, vocab_size = 3, 12
    rng = RngState(seed + 1000)
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
    model = JointModel(cfg, vocab_size=vocab_size, n_nodes=n_nodes,
                       physical_adjacency=adj, seed=seed)
    x_hist = rng.normal((1, cfg.window, n_nodes, 1))
    y_future = rng.normal((1, cfg.window, n_nodes, 1))
    text_hist = np.array([[BOS, 5, 7, 9, 4, EOS, PAD, PAD]])
    text_future = np.array([[BOS, 6, 8, 10, 5, 4, EOS, PAD]])
    return model, cfg, {"x_hist": x_hist, "y_future": y_future,
                        "text_hist": text_hist, "text_future": text_future}


def joint_loss_fn(model: JointModel, batch: dict, lambda_text: float = 0.5,
                  corrupt: Optional[Callable] = None) -> Callable[[], float]:
    def loss_fn() -> float:
        loss = forward_backward(model, batch, lambda_text)
        if corrupt is not None:
            corrupt(model)
        return loss

    return loss_fn


def check_joint_gradients(seeds=(0,), tol: float = 1e-4,
                          max_coords: int = 12, corrupt: bool = False) -> List[str]:
    failures = []
    for seed in seeds:
        model, _, batch = probe_model(seed)
        model.set_training(True)
        model.set_freeze_masks(True)
        hook = None
        if corrupt:
            def hook(m):  # noqa: ANN001 - test hook scales one gradient
                m.generator.lm_head._grads["w"] *= 1.01
        fn = joint_loss_fn(model, batch, corrupt=hook)
        report = grad_check(fn, model.param_dict(), model.grad_dict(),
                            skip=list(model.frozen_names()), tol=tol,
                            max_coords_per_tensor=max_coords, seed=seed)
        failures.extend(f"seed {seed}: {f}" for f in report.failures[:10])
    return failures


def run_verify(corrupt_gradients: bool = False) -> List[str]:
    """Full oracle + gradient suite; returns the list of failure messages."""
    failures = []
    failures += check_mhsa_oracle()
    failures += check_sparse_align_dense()
    failures += check_road_xattn_masked_dense()
    failures += check_metric_examples()
    failures += check_joint_gradients(seeds=(0,), corrupt=corrupt_gradients)
    return failures
