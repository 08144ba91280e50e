"""Metric tests against independent brute-force oracles.

The oracles below recompute each metric from its definition with naive
algorithms (recursion, exhaustive n-gram scans) so that agreement with the
package implementations is meaningful.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcast.errors import DimensionError
from roadcast.metrics import (MetricReport, bleu4, evaluate_run, lcs_length, mae,
                              meteor, rmse, rouge_l, validate_report)

# --- independent oracles ----------------------------------------------------

def ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def bleu4_oracle(hyp, refs):
    """Literal transcription of the BLEU-4 definition with explicit scans."""
    if not hyp:
        return 0.0
    precisions = []
    for n in range(1, 5):
        hgrams = ngram_list(hyp, n)
        if not hgrams:
            return 0.0
        clipped = 0
        for gram in set(hgrams):
            count = hgrams.count(gram)
            best_ref = max(ngram_list(r, n).count(gram) for r in refs)
            clipped += min(count, best_ref)
        if clipped == 0:
            return 0.0
        precisions.append(clipped / len(hgrams))
    c = len(hyp)
    # closest reference length; shorter wins ties
    r = sorted((abs(len(ref) - c), len(ref)) for ref in refs)[0][1]
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    geo = math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return 100.0 * bp * geo


def lcs_oracle(x, y):
    """Memoized recursion straight from the LCS definition."""
    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if x[i - 1] == y[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(x), len(y))


def rouge_oracle(hyp, ref):
    if not hyp or not ref:
        return 0.0
    lcs = lcs_oracle(tuple(hyp), tuple(ref))
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hyp), lcs / len(ref)
    return 2.0 * p * r / (p + r)


def meteor_oracle(hyp, ref):
    """Greedy exact alignment recomputed independently."""
    if not hyp or not ref:
        return 0.0
    taken = set()
    pairs = []
    for i, tok in enumerate(hyp):
        for j, rtok in enumerate(ref):
            if j not in taken and rtok == tok:
                taken.add(j)
                pairs.append((i, j))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    chunks = 0
    prev = None
    for pair in pairs:
        if prev is None or pair != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = pair
    p, r = m / len(hyp), m / len(ref)
    f = p * r / (0.9 * p + 0.1 * r)
    return (1.0 - 0.5 * (chunks / m) ** 3) * f


WORDS = ["a", "b", "c", "d", "e", "on", "elm", "street"]


def random_pair(rng):
    n1 = int(rng.integers(1, 21))
    n2 = int(rng.integers(1, 21))
    hyp = [WORDS[i] for i in rng.integers(0, len(WORDS), size=n1)]
    ref = [WORDS[i] for i in rng.integers(0, len(WORDS), size=n2)]
    return hyp, ref


# --- oracle agreement on random pairs ---------------------------------------

def test_bleu4_agrees_with_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        hyp, ref = random_pair(rng)
        assert abs(bleu4(hyp, [ref]) - bleu4_oracle(hyp, [ref])) < 1e-9


def test_meteor_agrees_with_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        hyp, ref = random_pair(rng)
        assert abs(meteor(hyp, ref) - meteor_oracle(hyp, ref)) < 1e-9


def test_rouge_l_agrees_with_oracle_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        hyp, ref = random_pair(rng)
        assert abs(rouge_l(hyp, ref) - rouge_oracle(hyp, ref)) < 1e-9


def test_lcs_agrees_with_recursive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        hyp, ref = random_pair(rng)
        assert lcs_length(hyp, ref) == lcs_oracle(tuple(hyp), tuple(ref))


# --- worked examples --------------------------------------------------------

def test_bleu4_worked_example():
    got = bleu4("a b c d e".split(), ["a b c d f".split()])
    want = 100.0 * (0.8 * 0.75 * (2.0 / 3.0) * 0.5) ** 0.25
    assert abs(got - want) < 1e-9
    assert abs(got - 66.87) < 0.01


def test_bleu4_perfect_match_is_100():
    toks = "accident on elm street".split()
    assert abs(bleu4(toks, [toks]) - 100.0) < 1e-9


def test_bleu4_zero_when_any_precision_zero():
    assert bleu4("a b c d".split(), ["b a d c".split()]) == 0.0  # no common bigram


def test_bleu4_brevity_penalty():
    hyp, ref = "a b c d".split(), "a b c d e f g h".split()
    got = bleu4(hyp, [ref])
    assert abs(got - 100.0 * math.exp(1.0 - 2.0)) < 1e-9


def test_meteor_worked_example():
    assert abs(meteor("a b c".split(), "a b d".split()) - 0.625) < 1e-9


def test_meteor_perfect_match():
    toks = "a b c".split()
    # one chunk: 0.5*(1/3)^3 fragmentation penalty on F=1
    assert abs(meteor(toks, toks) - (1.0 - 0.5 / 27.0)) < 1e-9


def test_rouge_l_worked_example():
    assert abs(rouge_l("a c d".split(), "a b c d".split()) - 6.0 / 7.0) < 1e-9


def test_lcs_classic_example():
    assert lcs_length(list("ABCBDAB"), list("BDCABA")) == 4


def test_empty_inputs_score_zero():
    assert bleu4([], [["a"]]) == 0.0
    assert meteor([], ["a"]) == 0.0
    assert meteor(["a"], []) == 0.0
    assert rouge_l([], ["a"]) == 0.0
    assert lcs_length([], []) == 0


# --- mae / rmse -------------------------------------------------------------

def test_mae_rmse_hand_values():
    y = np.array([1.0, 2.0, 3.0])
    y_hat = np.array([2.0, 2.0, 5.0])
    assert abs(mae(y, y_hat) - 1.0) < 1e-12
    assert abs(rmse(y, y_hat) - math.sqrt(5.0 / 3.0)) < 1e-12


def test_mae_rmse_shape_and_empty_errors():
    with pytest.raises(DimensionError):
        mae(np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionError):
        rmse(np.zeros(0), np.zeros(0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
       st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_rmse_at_least_mae(a, b):
    n = min(len(a), len(b))
    y, y_hat = np.array(a[:n]), np.array(b[:n])
    assert rmse(y, y_hat) >= mae(y, y_hat) - 1e-12


# --- evaluate_run and report ------------------------------------------------

def test_evaluate_run_horizon_prefixes_and_clipping():
    rng = np.random.default_rng(4)
    fc = rng.normal(size=(6, 12, 3, 1))
    tg = rng.normal(size=(6, 12, 3, 1))
    with pytest.warns(UserWarning, match="horizon 15"):
        rep = evaluate_run(fc, tg, [], [], horizons=(5, 10, 15))
    assert set(rep.pred) == {"T5", "T10", "T15"}
    assert abs(rep.pred["T5"]["mae"] - mae(tg[:, :5], fc[:, :5])) < 1e-12
    assert rep.pred["T15"] == rep.pred["T10"] or \
        abs(rep.pred["T15"]["mae"] - mae(tg, fc)) < 1e-12
    for key in rep.pred:
        assert rep.pred[key]["rmse"] >= rep.pred[key]["mae"]


def test_evaluate_run_text_means():
    fc = np.zeros((2, 5, 2, 1))
    rep = evaluate_run(fc, fc, [["a", "b"], ["c"]], [["a", "b"], ["d"]], horizons=(5,))
    assert abs(rep.meteor - np.mean([meteor(["a", "b"], ["a", "b"]),
                                     meteor(["c"], ["d"])])) < 1e-12


def test_evaluate_run_mismatch_errors():
    with pytest.raises(DimensionError):
        evaluate_run(np.zeros((2, 3, 1, 1)), np.zeros((2, 4, 1, 1)), [], [])
    with pytest.raises(DimensionError):
        evaluate_run(np.zeros((2, 3, 1, 1)), np.zeros((2, 3, 1, 1)), [["a"]], [])


def test_report_roundtrip_and_schema(tmp_path):
    rep = MetricReport(pred={"T5": {"mae": 1.0, "rmse": 2.0}}, bleu4=50.0,
                       meteor=0.5, rouge_l=0.5, n_samples=3)
    validate_report(rep.to_dict())
    path = tmp_path / "report.json"
    rep.save(path)
    assert json.loads(path.read_text()) == rep.to_dict()


def test_schema_rejects_bad_report():
    import jsonschema

    with pytest.raises(jsonschema.ValidationError):
        validate_report({"pred": {}, "text": {"bleu4": -1.0, "meteor": 0, "rouge_l": 0},
                         "n_samples": 0})
    with pytest.raises(jsonschema.ValidationError):
        validate_report({"pred": {}, "n_samples": 0})
