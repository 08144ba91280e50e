"""Miniature two-stage-attention forecaster: temporal patch embedding,
hierarchical encoder blocks (patch-axis attention per node, then node-axis
attention per patch), a learned-query cross-attention decoder, and a
flatten head emitting all future steps at once.

No node positional encoding: spatial identity comes entirely from the
graph stage upstream, which keeps the encoder node-permutation equivariant.
"""

from __future__ import annotations

import numpy as np

from .nn import LayerNorm, Linear, Module, MultiHeadAttention, sinusoidal_positions
from .numerics import RngState


class PatchEmbed(Module):
    """Split the time axis into length-p patches (zero-padded tail) and embed
    each node's patch with a shared linear map."""

    def __init__(self, patch: int, d_in: int, d_model: int, rng: RngState) -> None:
        super().__init__()
        self.p, self.d_in = patch, d_in
        self.proj = self.add_child("proj", Linear(patch * d_in, d_model, rng, bias=True))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """[B, t, N, d_in] -> [B, ceil(t/p), N, d_model]."""
        b, t, n, _ = x.shape
        pad = (-t) % self.p
        if pad:
            x = np.pad(x, ((0, 0), (0, pad), (0, 0), (0, 0)))
        n_patches = (t + pad) // self.p
        # [B, P, p, N, d_in] -> [B, P, N, p*d_in]
        xp = x.reshape(b, n_patches, self.p, n, self.d_in).transpose(0, 1, 3, 2, 4)
        flat = xp.reshape(b, n_patches, n, self.p * self.d_in)
        self._cache = (b, t, n, pad, n_patches)
        return self.proj.forward(flat)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        b, t, n, pad, n_patches = self._cache
        dflat = self.proj.backward(dy)
        dxp = dflat.reshape(b, n_patches, n, self.p, self.d_in).transpose(0, 1, 3, 2, 4)
        dx = dxp.reshape(b, n_patches * self.p, n, self.d_in)
        return dx[:, :t]


class TwoStageBlock(Module):
    """Patch-axis self-attention per node, then node-axis self-attention per
    patch; each stage is residual + LayerNorm (post-norm)."""

    def __init__(self, d_model: int, heads: int, rng: RngState) -> None:
        super().__init__()
        self.attn_time = self.add_child("attn_time", MultiHeadAttention(d_model, heads, rng))
        self.norm_time = self.add_child("norm_time", LayerNorm(d_model))
        self.attn_node = self.add_child("attn_node", MultiHeadAttention(d_model, heads, rng))
        self.norm_node = self.add_child("norm_node", LayerNorm(d_model))
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """[B, P, N, D] -> same shape."""
        b, p, n, d = x.shape
        self._shape = (b, p, n, d)
        xt = x.transpose(0, 2, 1, 3).reshape(b * n, p, d)
        xt = self.norm_time.forward(xt + self.attn_time.forward(xt, xt))
        x2 = xt.reshape(b, n, p, d).transpose(0, 2, 1, 3)
        xn = x2.reshape(b * p, n, d)
        xn = self.norm_node.forward(xn + self.attn_node.forward(xn, xn))
        return xn.reshape(b, p, n, d)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, p, n, d = self._shape
        dxn = self.norm_node.backward(dout.reshape(b * p, n, d))
        dq, dkv = self.attn_node.backward(dxn)
        dx2 = (dxn + dq + dkv).reshape(b, p, n, d)
        dxt = self.norm_time.backward(dx2.transpose(0, 2, 1, 3).reshape(b * n, p, d))
        dq, dkv = self.attn_time.backward(dxt)
        dx = (dxt + dq + dkv).reshape(b, n, p, d).transpose(0, 2, 1, 3)
        return dx


class Predictor(Module):
    """Fused spatiotemporal features in, full future window out."""

    def __init__(self, d_in: int, d_model: int, heads: int, n_blocks: int,
                 patch: int, window: int, channels: int, rng: RngState) -> None:
        super().__init__()
        self.patch = patch
        self.window = window
        self.channels = channels
        self.n_out_patches = -(-window // patch)
        self.patch_embed = self.add_child("patch_embed", PatchEmbed(patch, d_in, d_model, rng))
        self.blocks = [self.add_child(f"block{i}", TwoStageBlock(d_model, heads, rng))
                       for i in range(n_blocks)]
        self.queries = self.add_param(
            "queries", rng.normal((self.n_out_patches, d_model), scale=1.0 / np.sqrt(d_model)))
        self.cross = self.add_child("cross", MultiHeadAttention(d_model, heads, rng))
        self.norm = self.add_child("norm", LayerNorm(d_model))
        self.head = self.add_child("head", Linear(d_model, patch * channels, rng, bias=True))
        self._cache = None

    def forward(self, h: np.ndarray) -> np.ndarray:
        """[B, t, N, d_in] -> y_hat [B, window, N, C] (normalized scale)."""
        b, _, n, _ = h.shape
        x = self.patch_embed.forward(h)
        n_patches, d = x.shape[1], x.shape[3]
        x = x + sinusoidal_positions(n_patches, d)[None, :, None, :]
        for block in self.blocks:
            x = block.forward(x)
        mem = x.transpose(0, 2, 1, 3).reshape(b * n, n_patches, d)
        q = np.broadcast_to(self.queries, (b * n,) + self.queries.shape).copy()
        ctx = self.cross.forward(q, mem)
        dec = self.norm.forward(q + ctx)
        out = self.head.forward(dec)  # [B*N, P_out, p*C]
        out = out.reshape(b, n, self.n_out_patches, self.patch, self.channels)
        out = out.transpose(0, 2, 3, 1, 4).reshape(b, self.n_out_patches * self.patch,
                                                   n, self.channels)
        self._cache = (b, n, n_patches, d)
        return out[:, :self.window]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        b, n, n_patches, d = self._cache
        t_pad = self.n_out_patches * self.patch
        if dy.shape[1] < t_pad:
            dy = np.pad(dy, ((0, 0), (0, t_pad - dy.shape[1]), (0, 0), (0, 0)))
        dout = dy.reshape(b, self.n_out_patches, self.patch, n, self.channels)
        dout = dout.transpose(0, 3, 1, 2, 4).reshape(b * n, self.n_out_patches,
                                                     self.patch * self.channels)
        ddec = self.head.backward(dout)
        dsum = self.norm.backward(ddec)
        dq_attn, dmem = self.cross.backward(dsum)
        dq = dsum + dq_attn
        self._grads["queries"] += dq.sum(axis=0)
        dx = dmem.reshape(b, n, n_patches, d).transpose(0, 2, 1, 3)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        return self.patch_embed.backward(dx)
