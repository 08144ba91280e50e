"""Kernel tests against independent brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcast.errors import DimensionError, ParameterError
from roadcast.nn import LayerNorm, Linear
from roadcast.numerics import (RngState, relu, sigmoid, softmax_rows, tanh,
                               topk_indices, topk_mask)


# --- oracles (written first, deliberately naive) ----------------------------

def matmul_oracle(a, b):
    """Triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def softmax_oracle(row):
    """Direct exp/normalize without max subtraction (safe for small inputs)."""
    e = [np.exp(v) for v in row]
    s = sum(e)
    return np.array([v / s for v in e])


def softmax_three_temporaries(x):
    """Max-shifted softmax with a fresh array for each of its three steps."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def topk_oracle(row, k):
    """Pick the k largest by scanning; lower index wins ties."""
    row = list(row)
    chosen = []
    for _ in range(k):
        best = None
        for idx, v in enumerate(row):
            if idx in chosen:
                continue
            if best is None or v > row[best]:
                best = idx
        chosen.append(best)
    mask = np.zeros(len(row))
    mask[chosen] = 1.0
    return mask


# --- matmul: the products every layer computes with `@`, through Linear ------

def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for seed in range(10):
        lin = Linear(6, 3, RngState(seed), bias=False)
        a = rng.normal(size=(4, 6))
        np.testing.assert_allclose(lin.forward(a), matmul_oracle(a, lin.w), atol=1e-12)


def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    lin = Linear(4, 4, RngState(0), bias=False)
    lin.w[...] = np.eye(4)
    np.testing.assert_array_equal(lin.forward(a), a)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(1)
    lin = Linear(4, 2, RngState(1), bias=False)
    a = rng.normal(size=(5, 3, 4))
    got = lin.forward(a)
    for i in range(5):
        np.testing.assert_allclose(got[i], matmul_oracle(a[i], lin.w), atol=1e-12)


# --- softmax ----------------------------------------------------------------

def test_softmax_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 5))
    got = softmax_rows(x)
    for i in range(8):
        np.testing.assert_allclose(got[i], softmax_oracle(x[i]), atol=1e-12)


def test_softmax_bit_equal_to_three_temporaries_and_input_kept():
    rng = np.random.default_rng(3)
    x = 30.0 * rng.normal(size=(4, 2, 9, 13))
    x[rng.random(x.shape) < 0.3] = -np.inf
    x[..., 0] = rng.normal(size=x.shape[:-1])  # every row keeps a finite entry
    before = x.copy()
    got = softmax_rows(x)
    assert got.tobytes() == softmax_three_temporaries(before).tobytes()
    assert x.tobytes() == before.tobytes()


def test_softmax_large_inputs_stable():
    out = softmax_rows(np.array([[1000.0, 1000.0, -1000.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_softmax_neg_inf_entries_get_zero_mass():
    out = softmax_rows(np.array([[0.0, -np.inf, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.0, 0.5]], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
def test_softmax_rows_sum_to_one(row):
    out = softmax_rows(np.array(row))
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out >= 0)


def test_softmax_empty_axis_rejected():
    with pytest.raises(DimensionError):
        softmax_rows(np.zeros((2, 0)))


# --- topk_mask and topk_indices --------------------------------------------------------------

def test_topk_matches_scan_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        row = rng.normal(size=7)
        for k in (1, 3, 7):
            np.testing.assert_array_equal(topk_mask(row, k), topk_oracle(row, k))


def test_topk_tie_breaks_to_lower_index():
    mask = topk_mask(np.array([1.0, 5.0, 5.0, 5.0]), 2)
    np.testing.assert_array_equal(mask, [0.0, 1.0, 1.0, 0.0])


def test_topk_k_equals_n_is_all_ones():
    np.testing.assert_array_equal(topk_mask(np.array([3.0, -1.0]), 2), [1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_topk_cardinality(k, seed):
    row = np.random.default_rng(seed).normal(size=8)
    assert topk_mask(row, k).sum() == k


def test_topk_k_out_of_range():
    with pytest.raises(ParameterError):
        topk_mask(np.zeros(3), 0)
    with pytest.raises(ParameterError):
        topk_mask(np.zeros(3), 4)


def test_topk_indices_largest_first_ties_to_lower_index():
    row = np.array([0.1, 0.9, 0.4, 0.9, 0.2])
    np.testing.assert_array_equal(topk_indices(row, 3), [1, 3, 2])
    rows = np.random.default_rng(3).normal(size=(4, 6))
    for k in range(1, 7):
        mask = np.zeros_like(rows)
        np.put_along_axis(mask, topk_indices(rows, k), 1.0, axis=-1)
        np.testing.assert_array_equal(mask, topk_mask(rows, k))


# --- activations -----------------------------------------------------------

def test_relu_values():
    np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


def test_sigmoid_matches_definition_and_is_stable():
    x = np.array([-800.0, -2.0, 0.0, 2.0, 800.0])
    got = sigmoid(x)
    np.testing.assert_allclose(got[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), atol=1e-15)
    assert got[0] == 0.0 and got[4] == 1.0
    assert got[2] == 0.5


def test_tanh_matches_numpy():
    x = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(tanh(x), np.tanh(x))


# --- layer normalization (LayerNorm) ---------------------------------------

def test_layer_norm_zero_mean_unit_var():
    x = np.random.default_rng(4).normal(size=(3, 6), loc=5.0, scale=2.0)
    out = LayerNorm(6).forward(x)
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_affine_applied():
    x = np.array([[1.0, 2.0, 3.0]])
    ln = LayerNorm(3)
    base = ln.forward(x)
    ln.g[...] = 2.0
    ln.b[...] = 7.0
    np.testing.assert_allclose(ln.forward(x), 2.0 * base + 7.0, atol=1e-12)


def test_layer_norm_bad_eps():
    with pytest.raises(ParameterError):
        LayerNorm(2, eps=0.0)


# --- RngState ---------------------------------------------------------------

def test_rng_state_deterministic_per_counter():
    a = RngState(7).normal((4,))
    b = RngState(7).normal((4,))
    np.testing.assert_array_equal(a, b)


def test_rng_state_counter_advances():
    rng = RngState(7)
    first = rng.normal((4,))
    second = rng.normal((4,))
    assert not np.array_equal(first, second)
    assert rng.counter == 2


def test_rng_state_replay_from_counter():
    rng = RngState(11)
    rng.normal((3,))
    draw = rng.normal((3,))
    np.testing.assert_array_equal(draw, RngState(11, counter=1).normal((3,)))

