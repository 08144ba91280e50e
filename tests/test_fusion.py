"""Alignment, FiLM, adaptive adjacency, and GCN block tests."""

import numpy as np
import pytest

from roadcast.errors import ParameterError
from roadcast.fusion import (ETA, FilmModulation, GcnBlock, SparseAlign,
                             adaptive_adjacency)
from roadcast.nn import softmax_backward
from roadcast.numerics import RngState, sigmoid, softmax_rows, tanh


# --- adaptive adjacency ------------------------------------------------------

def test_adaptive_adjacency_rows_sum_to_one():
    rng = RngState(0)
    for n in (1, 3, 10, 50):
        a = adaptive_adjacency(rng.normal((n, 4)))
        np.testing.assert_allclose(a.sum(axis=1), np.ones(n), atol=1e-9)
        assert np.all(a >= 0)


def test_adaptive_adjacency_identity_embedding():
    a = adaptive_adjacency(np.eye(2))
    e = np.e
    np.testing.assert_allclose(a, [[e / (e + 1), 1 / (e + 1)],
                                   [1 / (e + 1), e / (e + 1)]], atol=1e-12)


def test_adaptive_adjacency_zero_embedding_uniform():
    a = adaptive_adjacency(np.zeros((4, 3)))
    np.testing.assert_allclose(a, np.full((4, 4), 0.25), atol=1e-15)


# --- sparse alignment --------------------------------------------------------

def test_sparse_align_topk_equals_dense():
    rng = RngState(1)
    h_traffic = rng.normal((2, 5, 8))
    h_text = rng.normal((2, 7, 8))
    align = SparseAlign(top_k=7)
    c, attn = align.forward(h_traffic, h_text)
    dense = softmax_rows(h_traffic @ h_text.transpose(0, 2, 1) / np.sqrt(8))
    np.testing.assert_allclose(attn, dense, atol=1e-12)
    np.testing.assert_allclose(c, dense @ h_text, atol=1e-12)


def test_sparse_align_single_token():
    rng = RngState(2)
    h_text = rng.normal((1, 1, 4))
    c, attn = SparseAlign(top_k=1).forward(rng.normal((1, 3, 4)), h_text)
    np.testing.assert_allclose(attn, np.ones((1, 3, 1)), atol=1e-15)
    for s in range(3):
        np.testing.assert_allclose(c[0, s], h_text[0, 0], atol=1e-15)


def test_sparse_align_rows_stochastic_with_topk_support():
    rng = RngState(3)
    align = SparseAlign(top_k=3)
    _, attn = align.forward(rng.normal((2, 4, 8)), rng.normal((2, 9, 8)))
    np.testing.assert_allclose(attn.sum(axis=-1), np.ones((2, 4)), atol=1e-12)
    assert np.all((attn > 0).sum(axis=-1) <= 3)


def test_sparse_align_bad_topk():
    with pytest.raises(ParameterError):
        SparseAlign(top_k=0)
    align = SparseAlign(top_k=9)
    with pytest.raises(ParameterError):
        align.forward(np.zeros((1, 2, 4)), np.zeros((1, 3, 4)))


def test_sparse_align_gradients_with_frozen_mask():
    rng = RngState(4)
    h_traffic = rng.normal((1, 3, 6))
    h_text = rng.normal((1, 5, 6))
    w = rng.normal((1, 3, 6))
    align = SparseAlign(top_k=2)
    align.set_freeze_masks(True)

    def loss():
        c, _ = align.forward(h_traffic, h_text)
        return float((c * w).sum())

    loss()
    dc = w
    dtr, dtx = align.backward(dc)
    h = 1e-6
    for arr, grad in ((h_traffic, dtr), (h_text, dtx)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in np.random.default_rng(1).choice(arr.size, size=10, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


# --- FiLM --------------------------------------------------------------------

def test_film_zero_context_exactly_halves():
    rng = RngState(5)
    film = FilmModulation(6, rng)
    feats = rng.normal((2, 4, 3, 6))
    out = film.forward(feats, np.zeros((2, 4, 6)))
    np.testing.assert_array_equal(out, 0.5 * feats)


def test_film_matches_formula():
    rng = RngState(6)
    film = FilmModulation(5, rng)
    feats = rng.normal((1, 3, 5))
    c = rng.normal((1, 3, 5))
    alpha = sigmoid(c @ film.w_alpha.w)
    beta = tanh(c @ film.w_beta.w)
    np.testing.assert_allclose(film.forward(feats, c), alpha * feats + ETA * beta,
                               atol=1e-12)


def test_film_scalar_worked_example():
    film = FilmModulation(1, RngState(7))
    film.w_alpha.w[...] = 1.0
    film.w_beta.w[...] = 1.0
    out = film.forward(np.array([[[2.0]]]), np.array([[[1.0]]]))
    want = sigmoid(np.array(1.0)) * 2.0 + 0.1 * np.tanh(1.0)
    assert abs(out[0, 0, 0] - want) < 1e-12
    assert abs(out[0, 0, 0] - 1.5383) < 1e-3


def test_film_bound():
    rng = RngState(8)
    film = FilmModulation(4, rng)
    feats = rng.normal((2, 3, 5, 4), scale=3.0)
    c = rng.normal((2, 3, 4), scale=3.0)
    out = film.forward(feats, c)
    assert np.all(np.abs(out) <= np.abs(feats) + 0.1 + 1e-12)


def test_film_text_changes_output():
    rng = RngState(9)
    film = FilmModulation(4, rng)
    feats = rng.normal((1, 2, 3, 4))
    out1 = film.forward(feats, rng.normal((1, 2, 4)))
    out2 = film.forward(feats, rng.normal((1, 2, 4)))
    assert not np.allclose(out1, out2)


def test_film_monotone_alpha_through_identity():
    film = FilmModulation(3, RngState(10))
    film.w_alpha.w[...] = np.eye(3)
    c_lo = np.zeros((1, 1, 3))
    c_hi = np.zeros((1, 1, 3))
    c_hi[0, 0, 1] = 1.0
    feats = np.ones((1, 1, 3))
    lo = film.forward(feats, c_lo)
    hi = film.forward(feats, c_hi)
    assert hi[0, 0, 1] > lo[0, 0, 1]


def test_film_gradients_broadcast_case():
    rng = RngState(11)
    film = FilmModulation(4, rng)
    feats = rng.normal((2, 3, 2, 4))
    c = rng.normal((2, 3, 4))
    w = rng.normal((2, 3, 2, 4))

    def loss():
        return float((film.forward(feats, c) * w).sum())

    film.zero_grad()
    film.forward(feats, c)
    dfeats, dc = film.backward(w)
    grads = {k: g.copy() for k, g in film.named_grads()}
    h = 1e-6
    for name, p in film.named_params():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(2).choice(p.size, size=8, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), name
    for arr, grad in ((feats, dfeats), (c, dc)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in np.random.default_rng(3).choice(arr.size, size=8, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


# --- GCN block ---------------------------------------------------------------

def test_gcn_identity_adjacency_doubles_nonnegative_input():
    n = 3
    gcn = GcnBlock(n, 4, 2, RngState(12))
    # force A_mix = I: huge diagonal embedding affinity and identity physical
    gcn.e[...] = 10.0 * np.eye(n)[:, :2]
    gcn.a_physical = np.eye(n)
    gcn.w.w[...] = np.eye(4)
    gcn.w.b[...] = 0.0
    x = np.abs(RngState(13).normal((1, 2, n, 4)))
    out = gcn.forward(x)
    a_adp = adaptive_adjacency(gcn.e)
    a_mix = 0.5 * (a_adp + np.eye(n))
    agg = np.einsum("nm,bsmd->bsnd", a_mix, x)
    np.testing.assert_allclose(out, np.maximum(agg, 0) + x, atol=1e-12)


def test_gcn_two_node_uniform_hand_aggregation():
    gcn = GcnBlock(2, 1, 2, RngState(14), physical_adjacency=np.array([[0.0, 1.0],
                                                                       [1.0, 0.0]]))
    gcn.e[...] = 0.0  # adaptive adjacency becomes uniform 1/2
    gcn.w.w[...] = 1.0
    gcn.w.b[...] = 0.0
    a, b = 3.0, 5.0
    x = np.array([[[[a], [b]]]])
    out = gcn.forward(x)
    # both rows aggregate 0.5*uniform + 0.5*normalized(A+I) = (a+b)/2 each
    np.testing.assert_allclose(out[0, 0, :, 0], [(a + b) / 2 + a, (a + b) / 2 + b],
                               atol=1e-12)


def test_gcn_shape_preserved():
    gcn = GcnBlock(5, 6, 3, RngState(15))
    x = RngState(16).normal((2, 4, 5, 6))
    assert gcn.forward(x).shape == x.shape


def test_gcn_physical_adjacency_row_normalized():
    adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    gcn = GcnBlock(3, 4, 2, RngState(17), physical_adjacency=adj)
    np.testing.assert_allclose(gcn.a_physical.sum(axis=1), np.ones(3), atol=1e-12)
    assert np.all(np.diag(gcn.a_physical) > 0)  # self-loops added


def gcn_einsum_oracle(gcn, x, dout):
    """GcnBlock's output, dx and e gradient with every node-axis contraction
    written as an einsum over named indices."""
    s_mat = gcn.e @ gcn.e.T
    a_adp = softmax_rows(np.maximum(s_mat, 0.0))
    a_mix = 0.5 * (a_adp + gcn.a_physical)
    agg = np.einsum("nm,bsmd->bsnd", a_mix, x)
    z = agg @ gcn.w.w + gcn.w.b
    out = np.maximum(z, 0.0) + x
    dagg = (dout * (z > 0)) @ gcn.w.w.T
    dx = dout + np.einsum("nm,bsnd->bsmd", a_mix, dagg)
    da_mix = np.einsum("bsnd,bsmd->nm", dagg, x)
    ds = softmax_backward(a_adp, 0.5 * da_mix) * (s_mat > 0)
    return out, dx, (ds + ds.T) @ gcn.e


def test_gcn_matches_einsum_oracle():
    # B, S > 1 and N = 7 with distinct rows; a path graph's row-normalized
    # adjacency is not symmetric, so a missing transpose of A_mix shows
    n, d = 7, 5
    rng = RngState(19)
    path = np.eye(n, k=1) + np.eye(n, k=-1)
    gcn = GcnBlock(n, d, 3, rng, physical_adjacency=path)
    x = rng.normal((2, 3, n, d))
    dout = rng.normal((2, 3, n, d))
    gcn.zero_grad()
    out = gcn.forward(x)
    dx = gcn.backward(dout)
    want_out, want_dx, want_de = gcn_einsum_oracle(gcn, x, dout)
    de = dict(gcn.named_grads())["e"]
    for got, want in ((out, want_out), (dx, want_dx), (de, want_de)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gcn_gradients():
    rng = RngState(18)
    gcn = GcnBlock(3, 4, 2, rng, physical_adjacency=np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    x = rng.normal((2, 3, 3, 4))
    w = rng.normal((2, 3, 3, 4))

    def loss():
        return float((gcn.forward(x) * w).sum())

    gcn.zero_grad()
    gcn.forward(x)
    dx = gcn.backward(w)
    grads = {k: g.copy() for k, g in gcn.named_grads()}
    h = 1e-6
    for name, p in gcn.named_params():
        flat, gflat = p.reshape(-1), grads[name].reshape(-1)
        for i in np.random.default_rng(4).choice(p.size, size=min(8, p.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), name
    flat, gflat = x.reshape(-1), dx.reshape(-1)
    for i in np.random.default_rng(5).choice(x.size, size=10, replace=False):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss()
        flat[i] = orig - h
        lm = loss()
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))
