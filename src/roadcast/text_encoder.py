"""Location-aware text encoder: embedding plus parallel local-phrase (kernel 3)
and global-context (depthwise kernel 5 + pointwise) convolution branches,
concatenated, linearly fused and layer-normalized. PAD positions are masked
to exactly zero on both the embedding and the fused output, so neither the
outputs nor the gradients at PAD positions carry signal.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .nn import Conv1dSame, DepthwiseConv1d, Embedding, LayerNorm, Linear, Module
from .numerics import RngState
from .tokenizer import PAD


class TextEncoder(Module):
    def __init__(self, vocab_size: int, d_model: int, rng: RngState) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.embed = self.add_child("embed", Embedding(vocab_size, d_model, rng))
        self.local = self.add_child("local", Conv1dSame(d_model, d_model, 3, rng))
        self.depthwise = self.add_child("depthwise", DepthwiseConv1d(d_model, 5, rng))
        self.pointwise = self.add_child("pointwise", Linear(d_model, d_model, rng, bias=False))
        self.fuse = self.add_child("fuse", Linear(2 * d_model, d_model, rng, bias=True))
        self.norm = self.add_child("norm", LayerNorm(d_model))

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """tokens [B, L] int -> H_text [B, L, D]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.vocab_size:
            raise ParameterError("token id out of vocabulary range")
        mask = (tokens != PAD).astype(np.float64)[..., None]
        emb = self.embed.forward(tokens) * mask
        local = self.local.forward(emb)
        glob = self.pointwise.forward(self.depthwise.forward(emb))
        fused = self.fuse.forward(np.concatenate([local, glob], axis=-1))
        out = self.norm.forward(fused) * mask
        self._cache = mask if self.training else None
        return out

    def backward(self, dout: np.ndarray) -> None:
        mask = self._cache
        dfused = self.norm.backward(dout * mask)
        dcat = self.fuse.backward(dfused)
        d = dcat.shape[-1] // 2
        dlocal, dglob = dcat[..., :d], dcat[..., d:]
        demb = self.local.backward(dlocal)
        demb += self.depthwise.backward(self.pointwise.backward(dglob))
        self.embed.backward(demb * mask)
