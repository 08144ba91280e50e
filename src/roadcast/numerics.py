"""Dense-tensor kernels: softmax, activations, Top-K selection, and the
counter-based RNG.

Everything is float64 and pure; the rest of the package is built on these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max-subtraction for stability."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError("softmax_rows requires a non-empty last axis")
    # one fresh array, reused in place: same operations in the same order as
    # exp(x - max) / sum, without the two extra N-sized temporaries
    e = x - np.max(x, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def topk_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of each last-axis row, largest first.

    Ties are broken toward the lower index, so the selection is deterministic.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if k < 1 or k > n:
        raise ParameterError(f"top-k k={k} outside [1, {n}]")
    # stable argsort on -x keeps lower indices first among ties
    return np.argsort(-x, axis=-1, kind="stable")[..., :k]


def topk_mask(x: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask marking the `topk_indices` of each last-axis row."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.zeros_like(x)
    np.put_along_axis(mask, topk_indices(x, k), 1.0, axis=-1)
    return mask


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64))


@dataclass
class RngState:
    """Counter-based deterministic RNG: identical (seed, counter) -> identical draws."""

    seed: int
    counter: int = 0

    def _next(self) -> np.random.Generator:
        gen = np.random.default_rng([self.seed, self.counter])
        self.counter += 1
        return gen

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._next().normal(0.0, scale, size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._next().uniform(low, high, size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._next().integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._next().permutation(n)
