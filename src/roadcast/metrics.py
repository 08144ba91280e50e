"""Forecast and text-generation metrics: MAE, RMSE, BLEU-4, METEOR, ROUGE-L.

Text metrics operate on token lists (strings or ids) and are sentence-level;
evaluate_run averages them arithmetically across samples.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from .errors import DimensionError

# Exact-match METEOR parameters (no stemming or synonymy resources).
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5


def mae(y: np.ndarray, y_hat: np.ndarray) -> float:
    y, y_hat = np.asarray(y, dtype=np.float64), np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError(f"mae shapes differ: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise DimensionError("mae on empty arrays")
    return float(np.mean(np.abs(y - y_hat)))


def rmse(y: np.ndarray, y_hat: np.ndarray) -> float:
    y, y_hat = np.asarray(y, dtype=np.float64), np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError(f"rmse shapes differ: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise DimensionError("rmse on empty arrays")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(hyp: Sequence, refs: List[Sequence]) -> float:
    """Sentence BLEU-4 on a 0-100 scale, uniform weights, no smoothing.

    Any zero n-gram precision zeroes the whole score.
    """
    if len(hyp) == 0:
        return 0.0
    log_p_sum = 0.0
    for n in range(1, 5):
        hyp_counts = _ngrams(hyp, n)
        total = sum(hyp_counts.values())
        if total == 0:
            return 0.0
        clipped = 0
        for gram, count in hyp_counts.items():
            max_ref = max((_ngrams(r, n)[gram] for r in refs), default=0)
            clipped += min(count, max_ref)
        if clipped == 0:
            return 0.0
        log_p_sum += 0.25 * math.log(clipped / total)
    c = len(hyp)
    r = min((len(ref) for ref in refs), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(log_p_sum)


def _meteor_matches(hyp: Sequence, ref: Sequence):
    """Greedy left-to-right exact alignment: (n_matches, n_chunks)."""
    used = [False] * len(ref)
    align = []  # hyp position -> ref position
    for i, tok in enumerate(hyp):
        for j, rtok in enumerate(ref):
            if not used[j] and rtok == tok:
                used[j] = True
                align.append((i, j))
                break
    if not align:
        return 0, 0
    chunks = 1
    for (i0, j0), (i1, j1) in zip(align, align[1:]):
        if not (i1 == i0 + 1 and j1 == j0 + 1):
            chunks += 1
    return len(align), chunks


def meteor(hyp: Sequence, ref: Sequence) -> float:
    """Exact-unigram METEOR with (alpha, beta, gamma) = (0.9, 3, 0.5)."""
    if len(hyp) == 0 or len(ref) == 0:
        return 0.0
    m, chunks = _meteor_matches(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    frag = chunks / m
    return (1.0 - METEOR_GAMMA * frag ** METEOR_BETA) * f


def lcs_length(x: Sequence, y: Sequence) -> int:
    """Longest common subsequence via the standard O(|x||y|) dynamic program."""
    prev = [0] * (len(y) + 1)
    for xi in x:
        cur = [0]
        for j, yj in enumerate(y, start=1):
            cur.append(prev[j - 1] + 1 if xi == yj else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(y)]


def rouge_l(hyp: Sequence, ref: Sequence) -> float:
    """LCS-based F1: the harmonic mean of LCS precision and recall."""
    if len(hyp) == 0 or len(ref) == 0:
        return 0.0
    lcs = lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


@dataclass
class MetricReport:
    pred: Dict[str, Dict[str, float]] = field(default_factory=dict)  # "T5" -> {mae, rmse}
    bleu4: float = 0.0
    meteor: float = 0.0
    rouge_l: float = 0.0
    n_samples: int = 0

    def to_dict(self) -> dict:
        return {
            "pred": self.pred,
            "text": {"bleu4": self.bleu4, "meteor": self.meteor, "rouge_l": self.rouge_l},
            "n_samples": self.n_samples,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


REPORT_SCHEMA = {
    "type": "object",
    "required": ["pred", "text", "n_samples"],
    "properties": {
        "pred": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["mae", "rmse"],
                "properties": {"mae": {"type": "number", "minimum": 0},
                               "rmse": {"type": "number", "minimum": 0}},
            },
        },
        "text": {
            "type": "object",
            "required": ["bleu4", "meteor", "rouge_l"],
            "properties": {
                "bleu4": {"type": "number", "minimum": 0, "maximum": 100},
                "meteor": {"type": "number", "minimum": 0, "maximum": 1},
                "rouge_l": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "n_samples": {"type": "integer", "minimum": 0},
    },
}


def evaluate_run(forecasts: np.ndarray, targets: np.ndarray,
                 gen_texts: List[Sequence], ref_texts: List[Sequence],
                 horizons: Sequence[int] = (5, 10, 15)) -> MetricReport:
    """Per-horizon-prefix MAE/RMSE on denormalized forecasts plus averaged text scores.

    forecasts/targets: [n_samples, t, N, C]. Horizons beyond t are clipped.
    """
    forecasts = np.asarray(forecasts, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if forecasts.shape != targets.shape:
        raise DimensionError(f"forecast/target shapes differ: {forecasts.shape} vs {targets.shape}")
    if len(gen_texts) != len(ref_texts):
        raise DimensionError(f"{len(gen_texts)} generated texts vs {len(ref_texts)} references")

    t = forecasts.shape[1]
    report = MetricReport(n_samples=forecasts.shape[0])
    for h in horizons:
        h_eff = h
        if h > t:
            warnings.warn(f"horizon {h} exceeds window {t}; clipped")
            h_eff = t
        report.pred[f"T{h}"] = {
            "mae": mae(targets[:, :h_eff], forecasts[:, :h_eff]),
            "rmse": rmse(targets[:, :h_eff], forecasts[:, :h_eff]),
        }
    if gen_texts:
        report.bleu4 = float(np.mean([bleu4(g, [r]) for g, r in zip(gen_texts, ref_texts)]))
        report.meteor = float(np.mean([meteor(g, r) for g, r in zip(gen_texts, ref_texts)]))
        report.rouge_l = float(np.mean([rouge_l(g, r) for g, r in zip(gen_texts, ref_texts)]))
    return report


def validate_report(report_dict: dict) -> None:
    import jsonschema

    jsonschema.validate(report_dict, REPORT_SCHEMA)
