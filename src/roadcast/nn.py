"""Minimal layer framework with hand-written backward passes.

No autodiff tape: in training mode every layer's forward keeps what its
backward needs in ``_cache``, and ``backward(d_out)`` returns ``d_in`` while
accumulating parameter gradients in place. One forward followed by one
backward per step.

In eval mode (``set_training(False)``) forwards keep nothing for backward:
the switch drops every cache and each eval forward sets its own to None, so
inference holds no activations past the call that made them. Modules start in
training mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ParameterError
from .numerics import RngState, softmax_rows


class Module:
    """Base class: owns named parameters/gradients and child modules."""

    def __init__(self) -> None:
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self._frozen: set = set()
        self._children: Dict[str, "Module"] = {}
        self.training = True
        self.freeze_masks = False
        self._cache = None  # what backward reads, kept by forward in training mode only

    def add_param(self, name: str, value: np.ndarray, frozen: bool = False) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        self._params[name] = arr
        self._grads[name] = np.zeros_like(arr)
        if frozen:
            self._frozen.add(name)
        return arr

    def add_child(self, name: str, child: "Module") -> "Module":
        self._children[name] = child
        return child

    def modules(self, prefix: str = "") -> List[Tuple[str, "Module"]]:
        """(dotted prefix, module) for this module and every descendant,
        parents first. A list, not a generator: the per-step walks are cheaper."""
        found = [(prefix, self)]
        for cname, child in self._children.items():
            found += child.modules(prefix + cname + ".")
        return found

    def named_params(self) -> List[Tuple[str, np.ndarray]]:
        return [(prefix + name, arr) for prefix, m in self.modules()
                for name, arr in m._params.items()]

    def named_grads(self) -> List[Tuple[str, np.ndarray]]:
        return [(prefix + name, arr) for prefix, m in self.modules()
                for name, arr in m._grads.items()]

    def frozen_names(self) -> List[str]:
        return [prefix + name for prefix, m in self.modules() for name in m._frozen]

    def zero_grad(self) -> None:
        for _, m in self.modules():
            for g in m._grads.values():
                g[...] = 0.0

    def set_training(self, flag: bool) -> None:
        """Training mode: each forward keeps what backward needs. Eval mode:
        forwards keep nothing, and the caches of earlier forwards are dropped."""
        for _, m in self.modules():
            m.training = flag
            if not flag:
                m._cache = None

    def set_freeze_masks(self, flag: bool) -> None:
        """Freeze discrete selections (Top-K, top-30%) at their next computed value.

        Used by the finite-difference harness so perturbations cannot flip masks.
        """
        for _, m in self.modules():
            m.freeze_masks = flag
            if not flag:
                m._clear_mask_cache()

    def _clear_mask_cache(self) -> None:  # overridden by mask-carrying modules
        pass

    def param_dict(self) -> Dict[str, np.ndarray]:
        return dict(self.named_params())

    def grad_dict(self) -> Dict[str, np.ndarray]:
        return dict(self.named_grads())


class Linear(Module):
    """y = x @ W + b over the last axis."""

    def __init__(self, d_in: int, d_out: int, rng: RngState, bias: bool = True) -> None:
        super().__init__()
        self.d_in, self.d_out = d_in, d_out
        self.w = self.add_param("w", rng.normal((d_in, d_out), scale=1.0 / np.sqrt(d_in)))
        self.b = self.add_param("b", np.zeros(d_out)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x if self.training else None
        y = x @ self.w
        if self.b is not None:
            y = y + self.b
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xf = self._cache.reshape(-1, self.d_in)
        dyf = dy.reshape(-1, self.d_out)
        self._grads["w"] += xf.T @ dyf
        if self.b is not None:
            self._grads["b"] += dyf.sum(axis=0)
        return dy @ self.w.T


class LoraLinear(Module):
    """Linear with a low-rank adapter: y = x W + b + (alpha/r) * drop(x A^T) B^T.

    The base weight is frozen; only the adapter factors train. B starts at
    zero so the adapted map initially equals the base map exactly.
    """

    def __init__(self, d_in: int, d_out: int, rank: int, alpha: float,
                 dropout: float, rng: RngState, bias: bool = True) -> None:
        super().__init__()
        if rank > min(d_in, d_out):
            raise ConfigError(f"LoRA rank {rank} exceeds min dim {min(d_in, d_out)}")
        self.d_in, self.d_out, self.rank = d_in, d_out, rank
        self.scale = alpha / rank
        self.p_drop = dropout
        self.w = self.add_param("w", rng.normal((d_in, d_out), scale=1.0 / np.sqrt(d_in)), frozen=True)
        self.b = self.add_param("b", np.zeros(d_out), frozen=True) if bias else None
        self.a = self.add_param("a", rng.normal((rank, d_in), scale=1.0 / np.sqrt(d_in)))
        self.bmat = self.add_param("bmat", np.zeros((d_out, rank)))
        self._rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = x @ self.a.T
        if self.training and self.p_drop > 0.0:
            keep = (self._rng.uniform(z.shape) >= self.p_drop).astype(np.float64)
            z_used = z * keep / (1.0 - self.p_drop)
        else:
            keep = None
            z_used = z
        y = x @ self.w + self.scale * (z_used @ self.bmat.T)
        if self.b is not None:
            y = y + self.b
        self._cache = (x, z_used, keep) if self.training else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, z_used, keep = self._cache
        xf = x.reshape(-1, self.d_in)
        dyf = dy.reshape(-1, self.d_out)
        zf = z_used.reshape(-1, self.rank)
        self._grads["bmat"] += self.scale * (dyf.T @ zf)
        dz_used = self.scale * (dy @ self.bmat)
        if keep is not None:
            dz = dz_used * keep / (1.0 - self.p_drop)
        else:
            dz = dz_used
        self._grads["a"] += dz.reshape(-1, self.rank).T @ xf
        return dy @ self.w.T + dz @ self.a


class Embedding(Module):
    """Token-id lookup table."""

    def __init__(self, n_tokens: int, d_model: int, rng: RngState) -> None:
        super().__init__()
        self.w = self.add_param("w", rng.normal((n_tokens, d_model), scale=0.1))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        self._cache = ids if self.training else None
        return self.w[ids]

    def backward(self, dy: np.ndarray) -> None:
        np.add.at(self._grads["w"], self._cache.reshape(-1), dy.reshape(-1, dy.shape[-1]))
        return None


class LayerNorm(Module):
    """Last-axis layer normalization with learned gain/bias."""

    def __init__(self, d: int, eps: float = 1e-5) -> None:
        super().__init__()
        if eps <= 0:
            raise ParameterError(f"LayerNorm eps must be positive, got {eps}")
        self.eps = eps
        self.g = self.add_param("g", np.ones(d))
        self.b = self.add_param("b", np.zeros(d))

    def forward(self, x: np.ndarray) -> np.ndarray:
        normed = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.mean(normed * normed, axis=-1, keepdims=True) + self.eps)
        normed *= inv
        self._cache = (normed, inv) if self.training else None
        return normed * self.g + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        normed, inv = self._cache
        d = normed.shape[-1]
        df = dy.reshape(-1, d)
        nf = normed.reshape(-1, d)
        self._grads["g"] += (df * nf).sum(axis=0)
        self._grads["b"] += df.sum(axis=0)
        dn = dy * self.g
        dx = inv * (dn - dn.mean(axis=-1, keepdims=True)
                    - normed * (dn * normed).mean(axis=-1, keepdims=True))
        return dx


class Conv1dSame(Module):
    """Same-padded 1D convolution over [..., L, d_in]; weight [k, d_in, d_out]."""

    def __init__(self, d_in: int, d_out: int, kernel: int, rng: RngState) -> None:
        super().__init__()
        assert kernel % 2 == 1, "same padding assumes odd kernel"
        self.d_in, self.d_out, self.k = d_in, d_out, kernel
        self.w = self.add_param("w", rng.normal((kernel, d_in, d_out),
                                                scale=1.0 / np.sqrt(kernel * d_in)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        pad = self.k // 2
        b, length, _ = x.shape
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        out = np.zeros((b, length, self.d_out))
        for j in range(self.k):
            out += xp[:, j:j + length, :] @ self.w[j]
        self._cache = (xp, length) if self.training else None
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp, length = self._cache
        pad = self.k // 2
        dxp = np.zeros_like(xp)
        dyf = dy.reshape(-1, self.d_out)
        for j in range(self.k):
            seg = xp[:, j:j + length, :].reshape(-1, self.d_in)
            self._grads["w"][j] += seg.T @ dyf
            dxp[:, j:j + length, :] += dy @ self.w[j].T
        return dxp[:, pad:pad + length, :]


class DepthwiseConv1d(Module):
    """Per-channel same-padded 1D convolution; weight [k, d]."""

    def __init__(self, d: int, kernel: int, rng: RngState) -> None:
        super().__init__()
        assert kernel % 2 == 1
        self.d, self.k = d, kernel
        self.w = self.add_param("w", rng.normal((kernel, d), scale=1.0 / np.sqrt(kernel)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        pad = self.k // 2
        b, length, _ = x.shape
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        out = np.zeros_like(x)
        for j in range(self.k):
            out += xp[:, j:j + length, :] * self.w[j]
        self._cache = (xp, length) if self.training else None
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp, length = self._cache
        pad = self.k // 2
        dxp = np.zeros_like(xp)
        for j in range(self.k):
            self._grads["w"][j] += (xp[:, j:j + length, :] * dy).sum(axis=(0, 1))
            dxp[:, j:j + length, :] += dy * self.w[j]
        return dxp[:, pad:pad + length, :]


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """[B, L, D] -> [B, h, L, D/h]."""
    b, length, d = x.shape
    return x.reshape(b, length, heads, d // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, h, L, dh] -> [B, L, h*dh]."""
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax with output p."""
    return p * (dp - np.sum(dp * p, axis=-1, keepdims=True))


class MultiHeadAttention(Module):
    """Scaled dot-product multi-head attention with optional additive mask.

    Q/V projections can carry LoRA adapters (used by the report decoder).
    """

    def __init__(self, d_model: int, heads: int, rng: RngState,
                 lora: Optional[dict] = None) -> None:
        super().__init__()
        if d_model % heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by heads {heads}")
        self.d, self.h = d_model, heads
        self.dh = d_model // heads
        if lora is None:
            self.wq = self.add_child("wq", Linear(d_model, d_model, rng, bias=False))
            self.wv = self.add_child("wv", Linear(d_model, d_model, rng, bias=False))
        else:
            self.wq = self.add_child("wq", LoraLinear(d_model, d_model, bias=False, rng=rng, **lora))
            self.wv = self.add_child("wv", LoraLinear(d_model, d_model, bias=False, rng=rng, **lora))
        self.wk = self.add_child("wk", Linear(d_model, d_model, rng, bias=False))
        self.wo = self.add_child("wo", Linear(d_model, d_model, rng, bias=False))

    def forward(self, q_in: np.ndarray, kv_in: np.ndarray,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        q = self.queries(q_in)
        k, v = self.keys_values(kv_in)
        out, p = self.attend(q, k, v, mask)
        self._cache = (q, k, v, p) if self.training else None
        return out

    def queries(self, q_in: np.ndarray) -> np.ndarray:
        """[B, Lq, D] -> split-head queries [B, h, Lq, dh]."""
        return split_heads(self.wq.forward(q_in), self.h)

    def keys_values(self, kv_in: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """[B, Lk, D] -> split-head keys and values, each [B, h, Lk, dh]."""
        k = split_heads(self.wk.forward(kv_in), self.h)
        return k, split_heads(self.wv.forward(kv_in), self.h)

    def attend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
               mask: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Split-head q [B, h, Lq, dh] over k, v [B, h, Lk, dh] -> (output [B, Lq, D],
        attention weights [B, h, Lq, Lk])."""
        scores = q @ k.transpose(0, 1, 3, 2)
        scores /= np.sqrt(self.dh)
        if mask is not None:
            scores += mask
        p = softmax_rows(scores)
        return self.wo.forward(merge_heads(p @ v)), p

    def step(self, x: np.ndarray, keys: np.ndarray, values: np.ndarray, pos: int) -> np.ndarray:
        """Causal self-attention of one new position per row, x [B, 1, D] at ``pos``.

        Its keys and values are written into ``keys``/``values`` [B, h, >pos, dh]
        at ``pos``, which already hold positions 0..pos-1; it attends over 0..pos.
        """
        q = self.queries(x)
        keys[:, :, pos:pos + 1], values[:, :, pos:pos + 1] = self.keys_values(x)
        return self.attend(q, keys[:, :, :pos + 1], values[:, :, :pos + 1])[0]

    def backward(self, dout: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (d_q_in, d_kv_in)."""
        q, k, v, p = self._cache
        dctx_m = self.wo.backward(dout)
        b, lq = dctx_m.shape[0], dctx_m.shape[1]
        dctx = split_heads(dctx_m, self.h)
        dp = dctx @ v.transpose(0, 1, 3, 2)
        dv = p.transpose(0, 1, 3, 2) @ dctx
        dscores = softmax_backward(p, dp) / np.sqrt(self.dh)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        d_q_in = self.wq.backward(merge_heads(dq))
        d_kv_in = self.wk.backward(merge_heads(dk)) + self.wv.backward(merge_heads(dv))
        return d_q_in, d_kv_in


def causal_mask(length: int) -> np.ndarray:
    """Additive [L, L] mask: -inf strictly above the diagonal."""
    m = np.zeros((length, length))
    m[np.triu_indices(length, k=1)] = -np.inf
    return m


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """Fixed sine/cosine positional table [L, D]."""
    pos = np.arange(length)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table
