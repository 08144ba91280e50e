"""Traffic-conditioned report generator: road importance detection with hard
top-30% selection, gated road-aware cross-attention, a learned road-text
memory, and a small causal decoder with low-rank adapters on its Q/V
projections, finished by a language-model head and greedy decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .nn import (Embedding, LayerNorm, Linear, Module, MultiHeadAttention,
                 causal_mask, merge_heads, sinusoidal_positions, softmax_backward,
                 split_heads)
from .numerics import (RngState, relu, sigmoid, softmax_rows, topk_indices,
                       topk_mask)
from .tokenizer import BOS, EOS


SELECTED_FRACTION = 0.3  # share of roads the importance filter keeps


def selection_size(n_nodes: int) -> int:
    """Roads kept by the importance filter: ceil(SELECTED_FRACTION * N), at least 1."""
    return max(1, math.ceil(SELECTED_FRACTION * n_nodes))


class RoadImportance(Module):
    """Per-node two-layer perceptron producing sigmoid importance scores and a
    hard top-30% node selection (ties toward the lower index)."""

    def __init__(self, d_feat: int, hidden: int, rng: RngState) -> None:
        super().__init__()
        self.fc1 = self.add_child("fc1", Linear(d_feat, hidden, rng, bias=True))
        self.fc2 = self.add_child("fc2", Linear(hidden, 1, rng, bias=True))
        self._mask_cache: Optional[np.ndarray] = None

    def _clear_mask_cache(self) -> None:
        self._mask_cache = None

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """x [B, N, F] -> (scores [B, N, 1], selected mask [B, N])."""
        h = self.fc1.forward(x)
        z = self.fc2.forward(relu(h))
        scores = sigmoid(z)
        if self.freeze_masks and self._mask_cache is not None:
            sel = self._mask_cache
        else:
            sel = topk_mask(scores[..., 0], selection_size(scores.shape[1]))
            if self.freeze_masks:
                self._mask_cache = sel
        self._cache = (h, z, scores) if self.training else None
        return scores, sel

    def selected_indices(self, scores: np.ndarray) -> List[List[int]]:
        """Per-sample node indices in descending-score order."""
        return topk_indices(scores[..., 0], selection_size(scores.shape[1])).tolist()

    def backward(self, dscores: np.ndarray) -> np.ndarray:
        h, z, scores = self._cache
        dz = dscores * scores * (1.0 - scores)
        dh = self.fc2.backward(dz) * (h > 0)
        return self.fc1.backward(dh)


class RoadCrossAttention(Module):
    """Decoder states attend over importance-weighted features of the selected
    roads; the result is injected through a learned sigmoid gate:
    h_fusion = h_text + G * h_modulated."""

    def __init__(self, d_feat: int, d_model: int, heads: int, rng: RngState) -> None:
        super().__init__()
        self.d = d_model
        self.k_proj = self.add_child("k_proj", Linear(d_feat, d_model, rng, bias=True))
        self.attn = self.add_child("attn", MultiHeadAttention(d_model, heads, rng))
        self.gate = self.add_child("gate", Linear(2 * d_model, d_model, rng, bias=True))

    def forward(self, h_text: np.ndarray, x_traffic: np.ndarray,
                scores: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """([B,L,D], [B,N,F], [B,N,1], [B,N]) -> h_fusion [B,L,D]."""
        k_src, mask = self._road_inputs(x_traffic, scores, sel)
        h_mod = self.attn.forward(h_text, k_src, mask)
        out, g = self._gated(h_text, h_mod)
        self._cache = (x_traffic, h_mod, g) if self.training else None
        return out

    def _road_inputs(self, x_traffic: np.ndarray, scores: np.ndarray,
                     sel: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Importance-weighted roads through ``k_proj`` [B, N, D], and the
        additive mask [B, 1, 1, N] that hides unselected roads."""
        k_src = self.k_proj.forward(x_traffic * scores)
        return k_src, np.where(sel[:, None, None, :] > 0, 0.0, -np.inf)

    def _gated(self, hq: np.ndarray, h_mod: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        g = sigmoid(self.gate.forward(np.concatenate([hq, h_mod], axis=-1)))
        return hq + g * h_mod, g

    def road_keys_values(self, x_traffic: np.ndarray, scores: np.ndarray,
                         sel: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The traffic side of `forward`: split-head road keys and
        values [B, h, N, dh] and the selection mask, for `step`."""
        k_src, mask = self._road_inputs(x_traffic, scores, sel)
        return self.attn.keys_values(k_src) + (mask,)

    def step(self, h: np.ndarray, road: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """`forward` of decoder states h [B, 1, D] against `road_keys_values`."""
        k, v, mask = road
        h_mod, _ = self.attn.attend(self.attn.queries(h), k, v, mask)
        return self._gated(h, h_mod)[0]

    def backward(self, dout: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (d_h_text, d_scores); traffic features are treated as data."""
        x_traffic, h_mod, g = self._cache
        dcat = self.gate.backward(dout * h_mod * g * (1.0 - g))
        dq, dk_src = self.attn.backward(dout * g + dcat[..., self.d:])
        dscores = (self.k_proj.backward(dk_src) * x_traffic).sum(axis=-1, keepdims=True)
        return dout + dcat[..., :self.d] + dq, dscores


class MemoryRead(Module):
    """Multi-head attention over learned key/value slots, residual-added."""

    def __init__(self, d_model: int, n_slots: int, heads: int, rng: RngState) -> None:
        super().__init__()
        self.d, self.h = d_model, heads
        self.dh = d_model // heads
        self.n_slots = n_slots
        self.mem_k = self.add_param("mem_k", rng.normal((n_slots, d_model), scale=1.0 / np.sqrt(d_model)))
        self.mem_v = self.add_param("mem_v", rng.normal((n_slots, d_model), scale=1.0 / np.sqrt(d_model)))
        self.wq = self.add_child("wq", Linear(d_model, d_model, rng, bias=False))
        self.wo = self.add_child("wo", Linear(d_model, d_model, rng, bias=False))

    def _slots(self, m: np.ndarray) -> np.ndarray:
        return m.reshape(self.n_slots, self.h, self.dh).transpose(1, 0, 2)  # [h, M, dh]

    def forward(self, x: np.ndarray) -> np.ndarray:
        q = split_heads(self.wq.forward(x), self.h)          # [B, h, L, dh]
        k = self._slots(self.mem_k)
        v = self._slots(self.mem_v)
        scores = q @ k.transpose(0, 2, 1)[None] / np.sqrt(self.dh)
        p = softmax_rows(scores)                              # [B, h, L, M]
        ctx = p @ v[None]
        out = self.wo.forward(merge_heads(ctx))
        self._cache = (q, k, v, p) if self.training else None
        return x + out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        q, k, v, p = self._cache
        dctx = split_heads(self.wo.backward(dout), self.h)
        dp = dctx @ np.swapaxes(v, -1, -2)[None]
        dv = (np.swapaxes(p, -1, -2) @ dctx).sum(axis=0)      # [h, M, dh]
        dscores = softmax_backward(p, dp) / np.sqrt(self.dh)
        dq = dscores @ k[None]
        dk = (np.swapaxes(dscores, -1, -2) @ q).sum(axis=0)   # [h, M, dh]
        self._grads["mem_v"] += dv.transpose(1, 0, 2).reshape(self.n_slots, self.d)
        self._grads["mem_k"] += dk.transpose(1, 0, 2).reshape(self.n_slots, self.d)
        return dout + self.wq.backward(merge_heads(dq))


@dataclass
class DecodeState:
    """What greedy decoding keeps between steps of one batch: each causal
    block's keys and values [B, h, max_len - 1, dh] for the positions run so
    far, the position table, and the cross-attention's road keys, values and
    mask (None without cross-attention)."""

    keys: List[np.ndarray]
    values: List[np.ndarray]
    positions: np.ndarray
    road: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    length: int = 0


class ReportGenerator(Module):
    """Causal token decoder conditioned on traffic through the components
    above; ablation flags bypass individual components."""

    def __init__(self, vocab_size: int, d_feat: int, d_model: int, heads: int,
                 n_blocks: int, n_slots: int, detector_hidden: int,
                 lora_rank: int, lora_alpha: float, lora_dropout: float,
                 rng: RngState, use_importance: bool = True, use_xattn: bool = True,
                 use_memory: bool = True) -> None:
        super().__init__()
        self.vocab_size = vocab_size
        self.use_importance = use_importance
        self.use_xattn = use_xattn
        self.use_memory = use_memory
        self.embed = self.add_child("embed", Embedding(vocab_size, d_model, rng))
        lora = {"rank": lora_rank, "alpha": lora_alpha, "dropout": lora_dropout}
        self.blocks = []
        self.block_norms = []
        for i in range(n_blocks):
            self.blocks.append(self.add_child(
                f"block{i}", MultiHeadAttention(d_model, heads, rng, lora=lora)))
            self.block_norms.append(self.add_child(f"block_norm{i}", LayerNorm(d_model)))
        self.importance = self.add_child("importance",
                                         RoadImportance(d_feat, detector_hidden, rng))
        self.xattn = self.add_child("xattn",
                                    RoadCrossAttention(d_feat, d_model, heads, rng))
        self.xattn_norm = self.add_child("xattn_norm", LayerNorm(d_model))
        self.memory = self.add_child("memory", MemoryRead(d_model, n_slots, heads, rng))
        self.memory_norm = self.add_child("memory_norm", LayerNorm(d_model))
        self.lm_head = self.add_child("lm_head", Linear(d_model, vocab_size, rng, bias=True))

    def forward(self, tokens: np.ndarray, x_traffic: np.ndarray) -> np.ndarray:
        """(tokens [B, Ld], traffic [B, N, F]) -> logits [B, Ld, V]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        b, length = tokens.shape
        h = self.embed.forward(tokens) + sinusoidal_positions(length, self.embed.w.shape[1])
        mask = causal_mask(length)
        for blk, norm in zip(self.blocks, self.block_norms):
            h = norm.forward(h + blk.forward(h, h, mask))
        if self.use_xattn:
            scores, sel = self._road_selection(x_traffic)
            h = self.xattn_norm.forward(self.xattn.forward(h, x_traffic, scores, sel))
        return self._head(h)

    def _road_selection(self, x_traffic: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Importance scores [B, N, 1] and selection [B, N]; all roads at
        weight 1 when the importance filter is off."""
        if self.use_importance:
            return self.importance.forward(x_traffic)
        return np.ones(x_traffic.shape[:2] + (1,)), np.ones(x_traffic.shape[:2])

    def _head(self, h: np.ndarray) -> np.ndarray:
        """Memory read (if on) and the language-model head: [B, L, D] -> logits [B, L, V]."""
        if self.use_memory:
            h = self.memory_norm.forward(self.memory.forward(h))
        return self.lm_head.forward(h)

    def backward(self, dlogits: np.ndarray) -> None:
        dh = self.lm_head.backward(dlogits)
        if self.use_memory:
            dh = self.memory.backward(self.memory_norm.backward(dh))
        if self.use_xattn:
            dh, dscores = self.xattn.backward(self.xattn_norm.backward(dh))
            if self.use_importance:
                self.importance.backward(dscores)
        for blk, norm in zip(reversed(self.blocks), reversed(self.block_norms)):
            dsum = norm.backward(dh)
            dq, dkv = blk.backward(dsum)
            dh = dsum + dq + dkv
        self.embed.backward(dh)

    def step_probs(self, tokens: np.ndarray, state: DecodeState) -> np.ndarray:
        """Run tokens [B, 1] at the next position of ``state``; returns the
        next-token probabilities [B, V].

        Every layer after the causal blocks acts on each position on its own,
        and the blocks look only backwards, so this equals, to rounding, the
        softmax of the last position of `forward` over the whole prefix.
        """
        pos = state.length
        h = self.embed.forward(tokens) + state.positions[pos]
        for blk, norm, keys, values in zip(self.blocks, self.block_norms,
                                           state.keys, state.values):
            h = norm.forward(h + blk.step(h, keys, values, pos))
        if state.road is not None:
            h = self.xattn_norm.forward(self.xattn.step(h, state.road))
        state.length += 1
        return softmax_rows(self._head(h)[:, -1, :])

    def greedy_decode(self, x_traffic: np.ndarray, max_len: int) -> List[List[int]]:
        """Start from BOS, append argmax tokens, stop at EOS or max_len.

        Rows that have stopped are fed EOS until the whole batch stops.
        """
        b = x_traffic.shape[0]
        steps = max(max_len - 1, 0)
        road = None
        if self.use_xattn:
            road = self.xattn.road_keys_values(x_traffic, *self._road_selection(x_traffic))
        shapes = [(b, blk.h, steps, blk.dh) for blk in self.blocks]
        state = DecodeState(keys=[np.empty(shape) for shape in shapes],
                            values=[np.empty(shape) for shape in shapes],
                            positions=sinusoidal_positions(steps, self.embed.w.shape[1]),
                            road=road)
        seqs = [[BOS] for _ in range(b)]
        done = [False] * b
        for _ in range(steps):
            if all(done):
                break
            probs = self.step_probs(np.array([[s[-1]] for s in seqs]), state)
            for i, nxt in enumerate(np.argmax(probs, axis=1).tolist()):
                if not done[i]:
                    seqs[i].append(nxt)
                    done[i] = nxt == EOS
        return seqs
