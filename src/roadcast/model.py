"""Joint model: text-guided graph-convolutional forecaster plus the
traffic-conditioned report generator, with ablation switches.

Traffic conditioning for generation uses the ground-truth future window
during training (teacher forcing) and the model's own forecast at
evaluation time; both paths share the same wiring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .fusion import FilmModulation, GcnBlock, SparseAlign
from .generator import ReportGenerator
from .nn import Module
from .numerics import RngState
from .predictor import Predictor
from .text_encoder import TextEncoder


# Switchable components, in the order the progressive ablation table adds
# them. Each name has a ``use_<name>`` field below and a ``no-<name>`` flag
# for ``roadcast train --ablate``.
COMPONENTS = ("text", "gcn", "importance", "xattn", "memory")


# Smallest value of each size field; a text length holds at least BOS, one
# token and EOS (`tokenizer.encode`), and the block counts may be zero.
_LOWEST = {"d_model": 1, "heads": 1, "n_blocks": 0, "patch": 1, "window": 1,
           "channels": 1, "d_embed": 1, "hist_text_len": 3, "future_text_len": 3,
           "memory_slots": 1, "decoder_blocks": 0, "detector_hidden": 1, "lora_rank": 1}


@dataclass
class ModelConfig:
    d_model: int = 32
    heads: int = 2
    n_blocks: int = 2
    patch: int = 4
    window: int = 12
    channels: int = 1
    d_embed: int = 8           # node-embedding width for the adaptive adjacency
    hist_text_len: int = 16
    future_text_len: int = 24
    top_k: Optional[int] = None  # default max(2, ceil(L/4))
    memory_slots: int = 16
    decoder_blocks: int = 2
    detector_hidden: int = 16
    lora_rank: int = 12
    lora_alpha: float = 24.0
    lora_dropout: float = 0.1
    use_text: bool = True
    use_gcn: bool = True
    use_importance: bool = True
    use_xattn: bool = True
    use_memory: bool = True

    def __post_init__(self) -> None:
        """ConfigError naming the first key whose value the model cannot be
        built or run with."""
        for key, low in _LOWEST.items():
            if getattr(self, key) < low:
                raise ConfigError(f"key {key!r} must be >= {low}, got {getattr(self, key)!r}")
        if self.d_model % self.heads:
            raise ConfigError(f"key 'd_model' {self.d_model} is not divisible by "
                              f"key 'heads' {self.heads}")
        if self.top_k is not None and not 1 <= self.top_k <= self.hist_text_len:
            raise ConfigError(f"key 'top_k' must be in [1, hist_text_len "
                              f"{self.hist_text_len}], got {self.top_k!r}")
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ConfigError(f"key 'lora_dropout' must be in [0, 1), got {self.lora_dropout!r}")

    def resolved_top_k(self) -> int:
        if self.top_k is not None:
            return self.top_k
        return max(2, math.ceil(self.hist_text_len / 4))


class JointModel(Module):
    def __init__(self, config: ModelConfig, vocab_size: int, n_nodes: int,
                 physical_adjacency: np.ndarray, seed: int) -> None:
        super().__init__()
        self.config = config
        self.n_nodes = n_nodes
        rng = RngState(seed)
        c = config
        self.input_embed = self.add_child(
            "input_embed", _InputEmbed(c.channels, c.d_model, rng))
        self.text_encoder = self.add_child(
            "text_encoder", TextEncoder(vocab_size, c.d_model, rng))
        self.align = self.add_child("align", SparseAlign(c.resolved_top_k()))
        self.film = self.add_child("film", FilmModulation(c.d_model, rng))
        self.gcn = self.add_child(
            "gcn", GcnBlock(n_nodes, c.d_model, c.d_embed, rng, physical_adjacency))
        self.predictor = self.add_child(
            "predictor", Predictor(c.d_model, c.d_model, c.heads, c.n_blocks,
                                   c.patch, c.window, c.channels, rng))
        self.generator = self.add_child(
            "generator", ReportGenerator(
                vocab_size=vocab_size, d_feat=c.window * c.channels,
                d_model=c.d_model, heads=c.heads, n_blocks=c.decoder_blocks,
                n_slots=c.memory_slots, detector_hidden=c.detector_hidden,
                lora_rank=min(c.lora_rank, c.d_model), lora_alpha=c.lora_alpha,
                lora_dropout=c.lora_dropout, rng=rng,
                use_importance=c.use_importance, use_xattn=c.use_xattn,
                use_memory=c.use_memory))

    # --- forecasting path ---------------------------------------------------

    def forward_predict(self, x_hist: np.ndarray, text_hist: np.ndarray) -> np.ndarray:
        """([B,t,N,C], [B,L]) -> y_hat [B,t,N,C] in normalized units."""
        feats = self.input_embed.forward(x_hist)
        if self.config.use_text:
            h_text = self.text_encoder.forward(text_hist)
            h_traffic = feats.mean(axis=2)
            c_text, _ = self.align.forward(h_traffic, h_text)
            x_guided = self.film.forward(feats, c_text)
        else:
            x_guided = feats
        h = self.gcn.forward(x_guided) if self.config.use_gcn else x_guided
        return self.predictor.forward(h)

    def backward_predict(self, dy: np.ndarray) -> None:
        dh = self.predictor.backward(dy)
        if self.config.use_gcn:
            dh = self.gcn.backward(dh)
        if self.config.use_text:
            dfeats, dc = self.film.backward(dh)
            dh_traffic, dh_text = self.align.backward(dc)
            dfeats = dfeats + dh_traffic[:, :, None, :] / self.n_nodes
            self.text_encoder.backward(dh_text)
        else:
            dfeats = dh
        self.input_embed.backward(dfeats)

    # --- generation path ----------------------------------------------------

    @staticmethod
    def conditioning(traffic_window: np.ndarray) -> np.ndarray:
        """[B, t, N, C] future window -> [B, N, t*C] per-node features."""
        b, t, n, c = traffic_window.shape
        return traffic_window.transpose(0, 2, 1, 3).reshape(b, n, t * c)

    def forward_generate(self, tokens: np.ndarray, traffic_window: np.ndarray) -> np.ndarray:
        return self.generator.forward(tokens, self.conditioning(traffic_window))

    def backward_generate(self, dlogits: np.ndarray) -> None:
        self.generator.backward(dlogits)

    def decode_reports(self, traffic_window: np.ndarray, max_len: int):
        return self.generator.greedy_decode(self.conditioning(traffic_window), max_len)


class _InputEmbed(Module):
    """Per-node linear lift of raw channels into model width."""

    def __init__(self, channels: int, d_model: int, rng: RngState) -> None:
        super().__init__()
        from .nn import Linear

        self.proj = self.add_child("proj", Linear(channels, d_model, rng, bias=True))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.proj.forward(x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.proj.backward(dy)
