"""Text encoder: branch oracle, PAD masking, and gradient checks."""

import numpy as np
import pytest

from roadcast.errors import ParameterError
from roadcast.numerics import RngState
from roadcast.text_encoder import TextEncoder
from roadcast.tokenizer import PAD


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to mean 0 / var 1, then apply (gain, bias)."""
    mean = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def straight_line_oracle(enc, tokens):
    """Re-derive the forward pass with explicit loops and no layer classes."""
    tokens = np.asarray(tokens)
    b, length = tokens.shape
    d = enc.embed.w.shape[1]
    mask = (tokens != PAD).astype(float)
    emb = enc.embed.w[tokens] * mask[..., None]

    def conv_same(x, w):  # w [k, d_in, d_out]
        k = w.shape[0]
        pad = k // 2
        out = np.zeros((b, length, w.shape[2]))
        for bi in range(b):
            for pos in range(length):
                for j in range(k):
                    src = pos + j - pad
                    if 0 <= src < length:
                        out[bi, pos] += x[bi, src] @ w[j]
        return out

    local = conv_same(emb, enc.local.w)
    depth = np.zeros_like(emb)
    for bi in range(b):
        for pos in range(length):
            for j in range(5):
                src = pos + j - 2
                if 0 <= src < length:
                    depth[bi, pos] += emb[bi, src] * enc.depthwise.w[j]
    glob = depth @ enc.pointwise.w
    fused = np.concatenate([local, glob], axis=-1) @ enc.fuse.w + enc.fuse.b
    out = layer_norm(fused, enc.norm.g, enc.norm.b) * mask[..., None]
    return out


@pytest.fixture
def encoder():
    return TextEncoder(vocab_size=12, d_model=8, rng=RngState(0))


def test_output_shape(encoder):
    out = encoder.forward(np.array([[1, 5, 7, 2, 0, 0]]))
    assert out.shape == (1, 6, 8)


def test_matches_straight_line_oracle(encoder):
    tokens = np.array([[1, 5, 7, 9, 2, 0], [1, 4, 2, 0, 0, 0]])
    got = encoder.forward(tokens)
    want = straight_line_oracle(encoder, tokens)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_all_pad_rows_are_zero(encoder):
    out = encoder.forward(np.zeros((2, 5), dtype=np.int64))
    np.testing.assert_array_equal(out, np.zeros((2, 5, 8)))


def test_pad_positions_zero_even_in_mixed_sequences(encoder):
    out = encoder.forward(np.array([[1, 5, 2, 0, 0]]))
    np.testing.assert_array_equal(out[0, 3:], np.zeros((2, 8)))
    assert np.any(out[0, :3] != 0)


def test_pad_gradients_are_zero(encoder):
    tokens = np.array([[1, 5, 7, 2, 0, 0]])
    encoder.zero_grad()
    encoder.forward(tokens)
    encoder.backward(np.ones((1, 6, 8)))
    # PAD embedding row receives no gradient
    np.testing.assert_array_equal(encoder.embed._grads["w"][PAD], np.zeros(8))


def test_out_of_range_ids_rejected(encoder):
    with pytest.raises(ParameterError):
        encoder.forward(np.array([[0, 99]]))
    with pytest.raises(ParameterError):
        encoder.forward(np.array([[-1, 0]]))


def test_parameter_gradients_match_fd(encoder):
    tokens = np.array([[1, 5, 7, 9, 2, 0]])
    rng = RngState(42)
    w = rng.normal((1, 6, 8))

    def loss():
        return float((encoder.forward(tokens) * w).sum())

    encoder.zero_grad()
    encoder.forward(tokens)
    encoder.backward(w)
    grads = {k: g.copy() for k, g in encoder.named_grads()}
    h = 1e-6
    for name, p in encoder.named_params():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        idx = np.random.default_rng(3).choice(p.size, size=min(p.size, 10), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd)), f"{name}[{i}]"
