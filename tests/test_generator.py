"""Report generator: importance selection, road cross-attention oracle,
memory slots, LoRA decoder, causality, and greedy decoding."""

import itertools

import numpy as np
import pytest

from roadcast.generator import (MemoryRead, ReportGenerator, RoadCrossAttention,
                                RoadImportance, selection_size)
from roadcast.numerics import RngState, sigmoid, softmax_rows
from roadcast.tokenizer import BOS, EOS


# --- selection ---------------------------------------------------------------

def test_selection_size_exact_ceil():
    import math
    for n in range(1, 51):
        assert selection_size(n) == max(1, math.ceil(0.3 * n))


def test_importance_selects_exactly_k_with_ties_to_lower_index():
    imp = RoadImportance(4, 3, RngState(0))
    imp.fc2.w[...] = 0.0  # every road scores sigmoid(bias): all tied
    _, sel = imp.forward(RngState(1).normal((1, 1, 5, 4)))
    assert sel.sum() == selection_size(5)
    np.testing.assert_array_equal(sel[0, 0], [1, 1, 0, 0, 0])


def test_importance_selected_indices_descending():
    imp = RoadImportance(4, 3, RngState(1))
    scores = np.array([0.1, 0.9, 0.4, 0.9, 0.2]).reshape(1, 1, 5, 1)
    idx = imp.selected_indices(scores)
    assert idx == [[1, 3]]  # tie between nodes 1 and 3 -> lower first


def test_importance_scores_in_unit_interval():
    imp = RoadImportance(4, 3, RngState(2))
    scores, sel = imp.forward(RngState(3).normal((2, 1, 7, 4)))
    assert scores.shape == (2, 1, 7, 1)
    assert np.all((scores > 0) & (scores < 1))
    assert np.all(sel.sum(axis=-1) == selection_size(7))


def test_importance_mask_cache_under_freeze():
    imp = RoadImportance(4, 3, RngState(4))
    x = RngState(5).normal((1, 1, 6, 4))
    imp.set_freeze_masks(True)
    _, sel1 = imp.forward(x)
    # perturbing input must not change the frozen mask
    _, sel2 = imp.forward(x + 0.5)
    np.testing.assert_array_equal(sel1, sel2)
    imp.set_freeze_masks(False)


def test_importance_gradients():
    imp = RoadImportance(3, 4, RngState(6))
    x = RngState(7).normal((1, 1, 5, 3))
    w = RngState(8).normal((1, 1, 5, 1))

    def loss():
        scores, _ = imp.forward(x)
        return float((scores * w).sum())

    imp.zero_grad()
    imp.forward(x)
    dx = imp.backward(w)
    grads = {k: g.copy() for k, g in imp.named_grads()}
    h = 1e-6
    for name, p in imp.named_params():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(0).choice(p.size, size=min(6, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), name
    flat, gflat = x.reshape(-1), dx.reshape(-1)
    for i in range(x.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss()
        flat[i] = orig - h
        lm = loss()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


# --- road cross attention ----------------------------------------------------

def masked_dense_xattn_oracle(xa, h_text, x_traffic, scores, sel):
    """Dense reimplementation: project importance-weighted roads, run full
    attention with -inf on unselected roads, gate, residual."""
    b, t, length, d = h_text.shape
    n = x_traffic.shape[2]
    hq = h_text.reshape(b * t, length, d)
    k_src = (x_traffic * scores).reshape(b * t, n, -1) @ xa.k_proj.w + xa.k_proj.b
    attn = xa.attn
    heads, dh = attn.h, attn.dh
    out = np.zeros_like(hq)
    for bi in range(b * t):
        q = hq[bi] @ attn.wq.w
        k = k_src[bi] @ attn.wk.w
        v = k_src[bi] @ attn.wv.w
        ctx = np.zeros((length, d))
        for hd in range(heads):
            qs = q[:, hd * dh:(hd + 1) * dh]
            ks = k[:, hd * dh:(hd + 1) * dh]
            vs = v[:, hd * dh:(hd + 1) * dh]
            logits = qs @ ks.T / np.sqrt(dh)
            logits = logits + np.where(sel.reshape(b * t, n)[bi] > 0, 0.0, -np.inf)
            p = softmax_rows(logits)
            ctx[:, hd * dh:(hd + 1) * dh] = p @ vs
        h_mod = ctx @ attn.wo.w
        g = sigmoid(np.concatenate([hq[bi], h_mod], axis=-1) @ xa.gate.w + xa.gate.b)
        out[bi] = hq[bi] + g * h_mod
    return out.reshape(b, t, length, d)


def test_xattn_matches_masked_dense_oracle():
    rng = RngState(10)
    xa = RoadCrossAttention(3, 8, 2, rng)
    h_text = rng.normal((2, 1, 5, 8))
    x_traffic = rng.normal((2, 1, 6, 3))
    imp = RoadImportance(3, 4, RngState(11))
    scores, sel = imp.forward(x_traffic)
    got = xa.forward(h_text, x_traffic, scores, sel)
    want = masked_dense_xattn_oracle(xa, h_text, x_traffic, scores, sel)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_xattn_unselected_roads_do_not_influence_output():
    rng = RngState(12)
    xa = RoadCrossAttention(3, 8, 2, rng)
    h_text = rng.normal((1, 1, 4, 8))
    x_traffic = rng.normal((1, 1, 6, 3))
    scores = np.full((1, 1, 6, 1), 0.5)
    sel = np.zeros((1, 1, 6))
    sel[0, 0, :2] = 1.0
    base = xa.forward(h_text, x_traffic, scores, sel)
    perturbed = x_traffic.copy()
    perturbed[0, 0, 3:] += 100.0  # unselected roads
    again = xa.forward(h_text, perturbed, scores, sel)
    np.testing.assert_allclose(again, base, atol=1e-12)


def test_xattn_gradients():
    rng = RngState(13)
    xa = RoadCrossAttention(2, 4, 2, rng)
    h_text = rng.normal((1, 1, 3, 4))
    x_traffic = rng.normal((1, 1, 4, 2))
    scores = np.abs(rng.normal((1, 1, 4, 1))) + 0.1
    sel = np.ones((1, 1, 4))
    w = rng.normal((1, 1, 3, 4))

    def loss():
        return float((xa.forward(h_text, x_traffic, scores, sel) * w).sum())

    xa.zero_grad()
    xa.forward(h_text, x_traffic, scores, sel)
    dh_text, dscores = xa.backward(w)
    grads = {k: g.copy() for k, g in xa.named_grads()}
    h = 1e-6
    for name, p in xa.named_params():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(1).choice(p.size, size=min(6, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), name
    for arr, grad in ((h_text, dh_text), (scores, dscores)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(arr.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


# --- memory ------------------------------------------------------------------

def test_memory_read_residual_and_shape():
    mem = MemoryRead(8, 4, 2, RngState(14))
    x = RngState(15).normal((2, 5, 8))
    out = mem.forward(x)
    assert out.shape == x.shape
    # residual: zeroed value slots give identity
    mem.mem_v[...] = 0.0
    mem.wo.w[...] = RngState(16).normal((8, 8))
    np.testing.assert_allclose(mem.forward(x), x, atol=1e-12)


def test_memory_read_gradients():
    mem = MemoryRead(4, 3, 2, RngState(17))
    x = RngState(18).normal((1, 3, 4))
    w = RngState(19).normal((1, 3, 4))

    def loss():
        return float((mem.forward(x) * w).sum())

    mem.zero_grad()
    mem.forward(x)
    dx = mem.backward(w)
    grads = {k: g.copy() for k, g in mem.named_grads()}
    h = 1e-6
    for name, p in mem.named_params():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(2).choice(p.size, size=min(6, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), name
    flat, gflat = x.reshape(-1), dx.reshape(-1)
    for i in range(x.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss()
        flat[i] = orig - h
        lm = loss()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


# --- full generator ----------------------------------------------------------

def make_generator(seed=20, **kwargs):
    defaults = dict(vocab_size=12, d_feat=3, d_model=8, heads=2, n_blocks=1,
                    n_slots=4, detector_hidden=4, lora_rank=2, lora_alpha=4.0,
                    lora_dropout=0.0, rng=RngState(seed))
    defaults.update(kwargs)
    return ReportGenerator(**defaults)


def test_lora_apply_formula():
    """The decoder's Q projection is x W + (alpha / rank) * (x A^T) B^T, with
    alpha and rank as configured (here 4.0 / 2)."""
    proj = make_generator().blocks[0].wq
    rng = RngState(9)
    proj.bmat[...] = rng.normal(proj.bmat.shape)
    x = rng.normal((3, proj.w.shape[0]))
    want = x @ proj.w + 2.0 * (x @ proj.a.T @ proj.bmat.T)
    np.testing.assert_allclose(proj.forward(x), want, atol=1e-12)


def test_generator_logits_shape():
    gen = make_generator()
    tokens = np.array([[BOS, 4, 5, 6]])
    traffic = RngState(21).normal((1, 1, 5, 3))
    assert gen.forward(tokens, traffic).shape == (1, 4, 12)


def test_generator_decoder_causality():
    gen = make_generator(seed=22)
    traffic = RngState(23).normal((1, 1, 5, 3))
    rng = np.random.default_rng(5)
    for _ in range(3):
        tokens = rng.integers(3, 12, size=(1, 6))
        base = gen.forward(tokens, traffic)
        pos = int(rng.integers(1, 6))
        mutated = tokens.copy()
        mutated[0, pos] = (mutated[0, pos] - 3 + 1) % 9 + 3
        out = gen.forward(mutated, traffic)
        np.testing.assert_allclose(out[0, :pos], base[0, :pos], atol=1e-12)


def test_generator_traffic_conditions_output():
    gen = make_generator(seed=24)
    tokens = np.array([[BOS, 4, 5]])
    out1 = gen.forward(tokens, RngState(25).normal((1, 1, 5, 3)))
    out2 = gen.forward(tokens, RngState(26).normal((1, 1, 5, 3)))
    assert not np.allclose(out1, out2)


def test_generator_no_xattn_ignores_traffic():
    gen = make_generator(seed=27, use_xattn=False)
    tokens = np.array([[BOS, 4, 5]])
    out1 = gen.forward(tokens, RngState(28).normal((1, 1, 5, 3)))
    out2 = gen.forward(tokens, RngState(29).normal((1, 1, 5, 3)))
    np.testing.assert_array_equal(out1, out2)


def test_generator_lora_zero_init_bitwise_inert():
    gen = make_generator(seed=30)
    # adapters start at zero (B matrices zero-init), so every LoRA-wrapped
    # projection equals its frozen base path bitwise
    x = RngState(31).normal((2, 8))
    for proj in (gen.blocks[0].wq, gen.blocks[0].wv):
        np.testing.assert_array_equal(proj.bmat, np.zeros_like(proj.bmat))
        np.testing.assert_array_equal(proj.forward(x), x @ proj.w)


def test_generator_frozen_base_accumulates_no_grads():
    gen = make_generator(seed=32)
    tokens = np.array([[BOS, 4, 5]])
    traffic = RngState(33).normal((1, 1, 5, 3))
    gen.zero_grad()
    logits = gen.forward(tokens, traffic)
    gen.backward(np.ones_like(logits))
    frozen = set(gen.frozen_names())
    assert frozen, "LoRA-wrapped projections should freeze their base weights"
    grads = dict(gen.named_grads())
    for name in frozen:
        assert not np.any(grads[name]), name
    # adapter B matrices do receive gradient (A grads are zero while B is zero)
    b_grads = [g for k, g in grads.items() if k.endswith(".bmat")]
    assert any(np.any(g) for g in b_grads)


def test_generator_gradients_full_stack():
    gen = make_generator(seed=34)
    tokens = np.array([[BOS, 4, 5, 6]])
    traffic = RngState(35).normal((1, 1, 4, 3))
    w = RngState(36).normal((1, 4, 12))
    gen.set_freeze_masks(True)

    def loss():
        return float((gen.forward(tokens, traffic) * w).sum())

    gen.zero_grad()
    loss()
    gen.backward(w)
    grads = {k: g.copy() for k, g in gen.named_grads()}
    frozen = set(gen.frozen_names())
    h = 1e-6
    for name, p in gen.named_params():
        if name in frozen:
            continue
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(3).choice(p.size, size=min(4, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-5 * max(1.0, abs(fd)), name
    gen.set_freeze_masks(False)


def test_greedy_decode_starts_bos_stops_eos_or_maxlen():
    gen = make_generator(seed=37)
    traffic = RngState(38).normal((2, 1, 5, 3))
    seqs = gen.greedy_decode(traffic, max_len=10)
    assert len(seqs) == 2
    for s in seqs:
        assert s[0] == BOS
        assert len(s) <= 10
        if EOS in s:
            assert s.index(EOS) == len(s) - 1  # nothing after EOS


def test_greedy_decode_deterministic():
    gen = make_generator(seed=39)
    traffic = RngState(40).normal((1, 1, 5, 3))
    assert gen.greedy_decode(traffic, 8) == gen.greedy_decode(traffic, 8)


# --- cached decoding against the full-prefix recompute ----------------------

def full_recompute_decode(gen, x_traffic, max_len):
    """Greedy decoding that runs the whole prefix through `forward` at every
    step, stopped rows padded with EOS; returns the sequences and each step's
    last-position probabilities."""
    b = x_traffic.shape[0]
    seqs, done, steps = [[BOS] for _ in range(b)], [False] * b, []
    while not all(done) and max(len(s) for s in seqs) < max_len:
        width = max(len(s) for s in seqs)
        batch = np.array([s + [EOS] * (width - len(s)) for s in seqs])
        steps.append(softmax_rows(gen.forward(batch, x_traffic)[:, -1, :]))
        for i in range(b):
            if not done[i]:
                seqs[i].append(int(np.argmax(steps[-1][i])))
                done[i] = seqs[i][-1] == EOS
    return seqs, steps


def cached_decode(gen, x_traffic, max_len):
    """`greedy_decode`, recording the probabilities of each `step_probs` call."""
    steps, step_probs = [], gen.step_probs

    def recording(tokens, state):
        assert tokens.shape == (x_traffic.shape[0], 1)
        steps.append(step_probs(tokens, state))
        return steps[-1]

    gen.step_probs = recording
    return gen.greedy_decode(x_traffic, max_len), steps


@pytest.mark.parametrize("use_importance,use_xattn,use_memory",
                         list(itertools.product((True, False), repeat=3)))
def test_cached_decode_matches_full_recompute_oracle(use_importance, use_xattn, use_memory):
    max_len = 9
    traffic = 3.0 * RngState(43).normal((6, 1, 5, 3))
    ended = {"early": False, "at_max_len": False, "both_in_one_batch": False}
    # raising EOS's logit makes rows stop before max_len
    for eos_shift in (0.0, 1.5):
        gen = make_generator(seed=41, n_blocks=2, use_importance=use_importance,
                             use_xattn=use_xattn, use_memory=use_memory)
        for blk in gen.blocks:
            for proj in (blk.wq, blk.wv):
                proj.bmat[...] = RngState(42).normal(proj.bmat.shape)
        gen.lm_head.b[EOS] += eos_shift
        want_seqs, want_steps = full_recompute_decode(gen, traffic, max_len)
        seqs, steps = cached_decode(gen, traffic, max_len)
        assert seqs == want_seqs
        assert len(steps) == len(want_steps)
        for got, want in zip(steps, want_steps):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        early = [s[-1] == EOS and len(s) < max_len for s in seqs]
        ended["early"] |= any(early)
        ended["at_max_len"] |= any(len(s) == max_len for s in seqs)
        ended["both_in_one_batch"] |= any(early) and not all(early)
    assert ended["early"] and ended["at_max_len"]
    # without cross-attention the traffic is unused, so every row decodes alike
    assert ended["both_in_one_batch"] == use_xattn
