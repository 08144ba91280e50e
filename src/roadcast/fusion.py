"""Text-guided adaptive graph convolution: sparse cross-modal alignment,
feature-wise (FiLM) modulation, adaptive adjacency, and a residual GCN block.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import ParameterError
from .nn import Linear, Module, softmax_backward
from .numerics import RngState, relu, sigmoid, softmax_rows, tanh, topk_mask

ETA = 0.1  # FiLM shift scale


def adaptive_adjacency(e: np.ndarray) -> np.ndarray:
    """Row-stochastic learned affinity: softmax(relu(E E^T)) per row."""
    return softmax_rows(relu(e @ e.T))


class SparseAlign(Module):
    """Scaled-dot attention from traffic steps to text tokens, restricted to
    the Top-K scoring tokens per step (non-top-k scores masked to -inf)."""

    def __init__(self, top_k: int) -> None:
        super().__init__()
        if top_k < 1:
            raise ParameterError(f"top_k {top_k} < 1")
        self.top_k = top_k
        self._mask_cache: Optional[np.ndarray] = None

    def _clear_mask_cache(self) -> None:
        self._mask_cache = None

    def forward(self, h_traffic: np.ndarray, h_text: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """([B,S,D], [B,L,D]) -> (c_text [B,S,D], attn [B,S,L])."""
        n_tokens = h_text.shape[1]
        if self.top_k > n_tokens:
            raise ParameterError(f"top_k {self.top_k} > number of text tokens {n_tokens}")
        d = h_traffic.shape[-1]
        scale = 1.0 / np.sqrt(d)
        scores = (h_traffic @ h_text.transpose(0, 2, 1)) * scale
        if self.freeze_masks and self._mask_cache is not None:
            mask = self._mask_cache
        else:
            mask = topk_mask(scores, self.top_k)
            if self.freeze_masks:
                self._mask_cache = mask
        attn = softmax_rows(np.where(mask > 0, scores, -np.inf))
        c_text = attn @ h_text
        self._cache = (h_traffic, h_text, attn, scale) if self.training else None
        return c_text, attn

    def backward(self, dc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        h_traffic, h_text, attn, scale = self._cache
        dattn = dc @ h_text.transpose(0, 2, 1)
        dh_text = attn.transpose(0, 2, 1) @ dc
        # masked entries have attn = 0, so softmax_backward already zeroes them;
        # the selection mask itself is treated as constant
        dscores = softmax_backward(attn, dattn) * scale
        dh_traffic = dscores @ h_text
        dh_text += dscores.transpose(0, 2, 1) @ h_traffic
        return dh_traffic, dh_text


class FilmModulation(Module):
    """x_guided = sigmoid(W_a c) * h_traffic + eta * tanh(W_b c).

    alpha/beta are computed per (batch, step) from the aligned text context
    and broadcast over the node axis.
    """

    def __init__(self, d_model: int, rng: RngState, eta: float = ETA) -> None:
        super().__init__()
        self.eta = eta
        self.w_alpha = self.add_child("w_alpha", Linear(d_model, d_model, rng, bias=False))
        self.w_beta = self.add_child("w_beta", Linear(d_model, d_model, rng, bias=False))

    def forward(self, feats: np.ndarray, c_text: np.ndarray) -> np.ndarray:
        """(feats [B, S, N, D], c_text [B, S, D]) -> [B, S, N, D]."""
        alpha = sigmoid(self.w_alpha.forward(c_text))
        beta = tanh(self.w_beta.forward(c_text))
        self._cache = (feats, alpha, beta) if self.training else None
        return alpha[:, :, None, :] * feats + self.eta * beta[:, :, None, :]

    def backward(self, dout: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (d_feats, d_c_text)."""
        feats, alpha, beta = self._cache
        dalpha = (dout * feats).sum(axis=2)
        dbeta = self.eta * dout.sum(axis=2)
        dfeats = dout * alpha[:, :, None, :]
        dz_a = dalpha * alpha * (1.0 - alpha)
        dz_b = dbeta * (1.0 - beta ** 2)
        dc = self.w_alpha.backward(dz_a) + self.w_beta.backward(dz_b)
        return dfeats, dc


class GcnBlock(Module):
    """Residual graph convolution over the node axis.

    Aggregation matrix is the mean of the learned adaptive adjacency
    softmax(relu(E E^T)) and the row-normalized physical adjacency with
    self-loops.
    """

    def __init__(self, n_nodes: int, d_model: int, d_embed: int, rng: RngState,
                 physical_adjacency: np.ndarray) -> None:
        super().__init__()
        self.e = self.add_param("e", rng.normal((n_nodes, d_embed), scale=1.0 / np.sqrt(d_embed)))
        self.w = self.add_child("w", Linear(d_model, d_model, rng, bias=True))
        with_loops = physical_adjacency + np.eye(n_nodes)
        self.a_physical = with_loops / with_loops.sum(axis=1, keepdims=True)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x [B, S, N, D] -> same shape."""
        a_adp = adaptive_adjacency(self.e)
        a_mix = 0.5 * (a_adp + self.a_physical)
        agg = a_mix @ x
        z = self.w.forward(agg)
        out = relu(z) + x
        self._cache = (x, a_adp, a_mix, z) if self.training else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, a_adp, a_mix, z = self._cache
        n = a_mix.shape[0]
        dz = dout * (z > 0)
        dagg = self.w.backward(dz)
        dx = dout + a_mix.T @ dagg
        # sum over batch, step and feature as one [N, B*S*D] @ [B*S*D, N] product
        da_mix = np.moveaxis(dagg, 2, 0).reshape(n, -1) @ np.moveaxis(x, 2, 0).reshape(n, -1).T
        dr = softmax_backward(a_adp, 0.5 * da_mix)
        ds = dr * (self.e @ self.e.T > 0)
        self._grads["e"] += (ds + ds.T) @ self.e
        return dx
