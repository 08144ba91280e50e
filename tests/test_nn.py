"""Layer framework tests: forward oracles plus finite-difference gradients."""

import numpy as np
import pytest

from roadcast.errors import ConfigError
from roadcast.nn import (Conv1dSame, DepthwiseConv1d, Embedding, LayerNorm,
                         Linear, LoraLinear, Module, MultiHeadAttention,
                         causal_mask, merge_heads, sinusoidal_positions,
                         softmax_backward, split_heads)
from roadcast.numerics import RngState, softmax_rows


def fd_check(module, x, loss_weights=None, tol=1e-6, h=1e-6, check_input=True):
    """Central finite differences for every parameter (and optionally the input).

    Loss is a fixed random linear functional of the output so gradients are
    nontrivial but the objective stays smooth.
    """
    if loss_weights is None:
        loss_weights = np.random.default_rng(99).normal(size=module.forward(x).shape)

    def loss():
        return float((module.forward(x) * loss_weights).sum())

    module.zero_grad()
    base = module.forward(x)
    dx = module.backward(loss_weights)
    grads = {k: g.copy() for k, g in module.named_grads()}
    frozen = set(module.frozen_names())
    for name, p in module.named_params():
        if name in frozen:
            continue
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        idx = np.random.default_rng(7).choice(p.size, size=min(p.size, 12), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < tol * max(1.0, abs(fd)), \
                f"{name}[{i}]: analytic {gflat[i]} vs fd {fd}"
    if check_input and dx is not None:
        xflat = x.reshape(-1)
        dxflat = dx.reshape(-1)
        idx = np.random.default_rng(8).choice(x.size, size=min(x.size, 12), replace=False)
        for i in idx:
            orig = xflat[i]
            xflat[i] = orig + h
            lp = loss()
            xflat[i] = orig - h
            lm = loss()
            xflat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - dxflat[i]) < tol * max(1.0, abs(fd)), \
                f"d_input[{i}]: analytic {dxflat[i]} vs fd {fd}"
    return base


def conv_same_oracle(x, w):
    """Naive loop convolution with zero padding, weight [k, d_in, d_out]."""
    k, d_in, d_out = w.shape
    b, length, _ = x.shape
    pad = k // 2
    out = np.zeros((b, length, d_out))
    for bi in range(b):
        for pos in range(length):
            for j in range(k):
                src = pos + j - pad
                if 0 <= src < length:
                    out[bi, pos] += x[bi, src] @ w[j]
    return out


# --- Module bookkeeping ------------------------------------------------------

def test_named_params_use_dotted_paths():
    rng = RngState(0)
    outer = Module()
    outer.add_child("inner", Linear(2, 3, rng))
    names = {n for n, _ in outer.named_params()}
    assert names == {"inner.w", "inner.b"}


def test_modules_walk_parents_first():
    rng = RngState(0)
    outer = Module()
    mid = outer.add_child("mid", Module())
    mid.add_child("lin", Linear(2, 2, rng))
    outer.add_child("emb", Embedding(3, 2, rng))
    assert [(prefix, type(m).__name__) for prefix, m in outer.modules()] == [
        ("", "Module"), ("mid.", "Module"), ("mid.lin.", "Linear"), ("emb.", "Embedding")]


def test_zero_grad_recurses():
    rng = RngState(0)
    lin = Linear(2, 2, rng)
    lin.forward(np.ones((1, 2)))
    lin.backward(np.ones((1, 2)))
    assert np.any(lin._grads["w"] != 0)
    lin.zero_grad()
    assert np.all(lin._grads["w"] == 0)


def test_frozen_names_propagate():
    rng = RngState(0)
    outer = Module()
    outer.add_child("ad", LoraLinear(4, 4, rank=2, alpha=4.0, dropout=0.0, rng=rng))
    frozen = set(outer.frozen_names())
    assert frozen == {"ad.w", "ad.b"}


# --- Linear ------------------------------------------------------------------

def test_linear_forward_matches_manual():
    rng = RngState(1)
    lin = Linear(3, 2, rng)
    x = rng.normal((2, 4, 3))
    np.testing.assert_allclose(lin.forward(x), x @ lin.w + lin.b, atol=1e-15)


def test_linear_gradients():
    rng = RngState(2)
    lin = Linear(3, 4, rng)
    fd_check(lin, rng.normal((2, 5, 3)))


# --- LoraLinear --------------------------------------------------------------

def test_lora_zero_init_equals_base_bitwise():
    rng = RngState(3)
    x = rng.normal((2, 5, 6))
    lora = LoraLinear(6, 6, rank=3, alpha=6.0, dropout=0.0, rng=RngState(4))
    base = x @ lora.w + lora.b
    assert np.array_equal(lora.forward(x), base)


def test_lora_adapter_contributes_after_update():
    rng = RngState(5)
    lora = LoraLinear(4, 4, rank=2, alpha=4.0, dropout=0.0, rng=rng)
    lora.bmat[...] = rng.normal((4, 2))
    x = rng.normal((1, 3, 4))
    want = x @ lora.w + lora.b + (4.0 / 2.0) * (x @ lora.a.T) @ lora.bmat.T
    np.testing.assert_allclose(lora.forward(x), want, atol=1e-12)


def test_lora_gradients_only_flow_to_adapter():
    rng = RngState(6)
    lora = LoraLinear(4, 4, rank=2, alpha=4.0, dropout=0.0, rng=rng)
    lora.bmat[...] = rng.normal((4, 2), scale=0.3)
    fd_check(lora, rng.normal((2, 3, 4)))
    lora.zero_grad()
    lora.forward(rng.normal((1, 2, 4)))
    lora.backward(np.ones((1, 2, 4)))
    assert np.all(lora._grads["w"] == 0)  # frozen base never accumulates


def test_lora_dropout_is_deterministic_given_state():
    x = RngState(7).normal((1, 4, 4))
    outs = []
    for _ in range(2):
        lora = LoraLinear(4, 4, rank=2, alpha=4.0, dropout=0.5, rng=RngState(8))
        lora.bmat[...] = 1.0
        lora.set_training(True)
        outs.append(lora.forward(x))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_lora_rank_too_large_rejected():
    with pytest.raises(ConfigError):
        LoraLinear(4, 4, rank=5, alpha=1.0, dropout=0.0, rng=RngState(0))


# --- Embedding ---------------------------------------------------------------

def test_embedding_lookup_and_scatter_grad():
    rng = RngState(9)
    emb = Embedding(10, 4, rng)
    ids = np.array([[1, 3, 1]])
    out = emb.forward(ids)
    np.testing.assert_array_equal(out[0, 0], emb.w[1])
    dy = np.ones((1, 3, 4))
    emb.zero_grad()
    emb.backward(dy)
    np.testing.assert_allclose(emb._grads["w"][1], 2.0 * np.ones(4))  # id 1 twice
    np.testing.assert_allclose(emb._grads["w"][3], np.ones(4))
    np.testing.assert_allclose(emb._grads["w"][0], np.zeros(4))


# --- LayerNorm ---------------------------------------------------------------

def test_layer_norm_gradients():
    rng = RngState(10)
    ln = LayerNorm(6)
    fd_check(ln, rng.normal((3, 4, 6), scale=2.0))


def test_layer_norm_matches_numerics_function():
    from test_text_encoder import layer_norm as ln_fn

    rng = RngState(11)
    ln = LayerNorm(5)
    x = rng.normal((2, 3, 5))
    np.testing.assert_allclose(ln.forward(x), ln_fn(x, ln.g, ln.b), atol=1e-12)


# --- convolutions ------------------------------------------------------------

def test_conv1d_same_matches_naive_oracle():
    rng = RngState(12)
    conv = Conv1dSame(3, 4, kernel=3, rng=rng)
    x = rng.normal((2, 6, 3))
    np.testing.assert_allclose(conv.forward(x), conv_same_oracle(x, conv.w), atol=1e-12)


def test_conv1d_same_preserves_length():
    rng = RngState(13)
    conv = Conv1dSame(2, 2, kernel=5, rng=rng)
    assert conv.forward(rng.normal((1, 9, 2))).shape == (1, 9, 2)


def test_conv1d_gradients():
    rng = RngState(14)
    conv = Conv1dSame(3, 2, kernel=3, rng=rng)
    fd_check(conv, rng.normal((2, 5, 3)))


def test_depthwise_matches_per_channel_oracle():
    rng = RngState(15)
    conv = DepthwiseConv1d(3, kernel=5, rng=rng)
    x = rng.normal((2, 7, 3))
    got = conv.forward(x)
    # depthwise = Conv1dSame with a diagonal weight per tap
    w_full = np.zeros((5, 3, 3))
    for j in range(5):
        np.fill_diagonal(w_full[j], conv.w[j])
    np.testing.assert_allclose(got, conv_same_oracle(x, w_full), atol=1e-12)


def test_depthwise_gradients():
    rng = RngState(16)
    conv = DepthwiseConv1d(4, kernel=3, rng=rng)
    fd_check(conv, rng.normal((2, 6, 4)))


# --- attention helpers -------------------------------------------------------

def test_split_merge_heads_roundtrip():
    rng = RngState(17)
    x = rng.normal((2, 5, 8))
    np.testing.assert_array_equal(merge_heads(split_heads(x, 4)), x)


def test_softmax_backward_matches_fd():
    rng = RngState(18)
    x = rng.normal((3, 5))
    w = rng.normal((3, 5))
    p = softmax_rows(x)
    dx = softmax_backward(p, w)
    h = 1e-6
    for i in range(3):
        for j in range(5):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd = ((softmax_rows(xp) * w).sum() - (softmax_rows(xm) * w).sum()) / (2 * h)
            assert abs(fd - dx[i, j]) < 1e-6


def test_causal_mask_shape_and_pattern():
    m = causal_mask(4)
    assert m[0, 0] == 0.0 and m[3, 0] == 0.0
    assert np.all(np.isinf(m[np.triu_indices(4, k=1)]))


def test_sinusoidal_positions_values():
    table = sinusoidal_positions(8, 6)
    assert table.shape == (8, 6)
    np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-12)
    assert abs(table[3, 0] - np.sin(3.0)) < 1e-12
    assert abs(table[3, 1] - np.cos(3.0)) < 1e-12


# --- multi-head attention ----------------------------------------------------

def test_mhsa_single_token_passthrough_value():
    rng = RngState(19)
    attn = MultiHeadAttention(4, 2, rng)
    x = rng.normal((1, 1, 4))
    want = (x @ attn.wv.w) @ attn.wo.w  # attention over one key is identity
    np.testing.assert_allclose(attn.forward(x, x), want, atol=1e-12)


def test_mhsa_causal_mask_blocks_future():
    rng = RngState(20)
    attn = MultiHeadAttention(4, 2, rng)
    x = rng.normal((1, 5, 4))
    mask = causal_mask(5)
    base = attn.forward(x, x, mask=mask)
    x2 = x.copy()
    x2[0, 4] += 10.0  # future token must not affect position 0..3
    pert = attn.forward(x2, x2, mask=mask)
    np.testing.assert_allclose(base[0, :4], pert[0, :4], atol=1e-12)
    assert not np.allclose(base[0, 4], pert[0, 4])


def test_mhsa_self_attention_gradients():
    rng = RngState(21)
    attn = MultiHeadAttention(6, 2, rng)
    x = rng.normal((2, 4, 6))
    w = rng.normal((2, 4, 6))

    def loss(inp):
        return float((attn.forward(inp, inp) * w).sum())

    attn.zero_grad()
    attn.forward(x, x)
    dq, dkv = attn.backward(w)
    dx = dq + dkv
    h = 1e-6
    flat = x.reshape(-1)
    dflat = dx.reshape(-1)
    idx = np.random.default_rng(5).choice(x.size, size=15, replace=False)
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        lp = loss(x)
        flat[i] = orig - h
        lm = loss(x)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - dflat[i]) < 1e-6 * max(1.0, abs(fd))


def test_mhsa_cross_attention_separates_query_and_kv_grads():
    rng = RngState(22)
    attn = MultiHeadAttention(4, 2, rng)
    q_in = rng.normal((1, 3, 4))
    kv_in = rng.normal((1, 6, 4))
    w = rng.normal((1, 3, 4))
    attn.zero_grad()
    attn.forward(q_in, kv_in)
    dq, dkv = attn.backward(w)
    assert dq.shape == q_in.shape and dkv.shape == kv_in.shape
    h = 1e-6
    flat = kv_in.reshape(-1)
    dflat = dkv.reshape(-1)
    for i in np.random.default_rng(6).choice(kv_in.size, size=10, replace=False):
        orig = flat[i]
        flat[i] = orig + h
        lp = float((attn.forward(q_in, kv_in) * w).sum())
        flat[i] = orig - h
        lm = float((attn.forward(q_in, kv_in) * w).sum())
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - dflat[i]) < 1e-6 * max(1.0, abs(fd))


def test_mhsa_rejects_bad_head_count():
    with pytest.raises(ConfigError):
        MultiHeadAttention(5, 2, RngState(0))
