"""Synthetic dataset generation, windowing, normalization, and file I/O."""

import json

import numpy as np
import pytest

from roadcast.dataset import (EVENT_KINDS, Event, EventLog, NormStats, RoadGraph,
                              Sample, TrafficSeries, default_node_names,
                              denormalize, fit_norm_stats, generate_synthetic,
                              load_dataset, require, save_dataset, split_sizes,
                              windowize, z_normalize)
from roadcast.errors import ConfigError, ParameterError, ParseError
from roadcast.tokenizer import BOS, EOS, PAD, build_vocab, decode, encode


@pytest.fixture
def small():
    return generate_synthetic(n_nodes=5, n_steps=80, anomaly_rate=0.5,
                              anomaly_depth=0.4, seed=3)


def test_generate_shapes_and_graph(small):
    graph, series, events = small
    assert series.speeds.shape == (80, 5, 1)
    assert graph.adjacency.shape == (5, 5)
    np.testing.assert_array_equal(graph.adjacency, graph.adjacency.T)
    assert np.all(np.diag(graph.adjacency) == 0)
    # ring guarantees connectivity: every node has degree >= 2
    assert np.all(graph.adjacency.sum(axis=0) >= 2)


def test_generate_speeds_non_negative(small):
    _, series, _ = small
    assert np.all(series.speeds >= 0)


def test_anomaly_count_formula():
    for rate, steps in ((0.5, 80), (0.3, 600), (1.0, 100)):
        _, _, events = generate_synthetic(5, steps, rate, 0.4, seed=0)
        assert len(events) == int(round(rate * steps / 10.0))


def test_zero_anomaly_rate_keeps_baseline():
    _, series, events = generate_synthetic(4, 40, 0.0, 0.5, seed=1)
    assert len(events) == 0
    np.testing.assert_array_equal(series.speeds, np.maximum(series.baseline, 0.0))


def test_each_anomaly_depresses_its_node(small):
    graph, series, events = small
    for e in events.events:
        # depression vs clean baseline at onset is at least depth/2
        clean = series.baseline[e.t, e.node, 0]
        dirty = series.speeds[e.t, e.node, 0]
        assert clean - dirty >= 0.4 / 2.0 * clean - 1e-9


def test_neighbor_spill_lags_one_step():
    graph, series, events = generate_synthetic(6, 200, 0.1, 0.5, seed=5)
    e = events.events[0]
    nb = graph.neighbors(e.node)
    # at onset, neighbors are untouched (no other anomaly overlapping them)
    overlapping = [o for o in events.events if o is not e]
    if not overlapping:
        np.testing.assert_allclose(series.speeds[e.t, nb, 0],
                                   np.maximum(series.baseline[e.t, nb, 0], 0.0))


def test_event_text_is_kind_on_node(small):
    graph, _, events = small
    for e in events.events:
        assert e.kind in EVENT_KINDS
        assert e.text == f"{e.kind} on {graph.node_names[e.node]}"


def test_kind_is_characteristic_of_node(small):
    _, _, events = small
    by_node = {}
    for e in events.events:
        by_node.setdefault(e.node, set()).add(e.kind)
    assert all(len(kinds) == 1 for kinds in by_node.values())


def test_node_names_are_at_least_two_words():
    names = default_node_names(20)
    assert len(set(names)) == 20
    assert all(len(n.split()) >= 2 for n in names)


def test_announce_lead_delays_effect_onset():
    graph, series, events = generate_synthetic(6, 200, 0.2, 0.5, seed=7,
                                               announce_lead=12)
    for e in events.events:
        # at announcement time the node is still at its clean baseline
        np.testing.assert_allclose(
            series.speeds[e.t, e.node, 0],
            max(series.baseline[e.t, e.node, 0], 0.0))
        # by onset (t + lead) the depression is in force
        onset = e.t + 12
        clean = series.baseline[onset, e.node, 0]
        assert clean - series.speeds[onset, e.node, 0] >= 0.5 / 2.0 * clean - 1e-9


def test_announce_lead_validation():
    with pytest.raises(ParameterError):
        generate_synthetic(4, 80, 0.1, 0.5, seed=0, announce_lead=-1)
    with pytest.raises(ParameterError):
        generate_synthetic(4, 80, 0.1, 0.5, seed=0, announce_lead=80)


def test_generate_validation_errors():
    with pytest.raises(ParameterError):
        generate_synthetic(1, 80, 0.1, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(4, 10, 0.1, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(4, 80, 1.5, 0.5, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(4, 80, 0.1, 1.0, seed=0)


# --- windowing ---------------------------------------------------------------

def test_windowize_count_and_shapes(small):
    graph, series, events = small
    vocab = build_vocab([e.text for e in events.events] or ["x"])
    t = 12
    samples = windowize(series, events, vocab, t)
    assert len(samples) == 80 - 2 * t + 1
    s = samples[0]
    assert s.x_hist.shape == (t, 5, 1) and s.y_future.shape == (t, 5, 1)
    assert len(s.text_hist) == 16 and len(s.text_future) == 24
    np.testing.assert_array_equal(s.x_hist, series.speeds[:t])
    np.testing.assert_array_equal(s.y_future, series.speeds[t:2 * t])


def test_windowize_text_windows_cover_event_onsets(small):
    graph, series, events = small
    vocab = build_vocab([e.text for e in events.events])
    samples = windowize(series, events, vocab, 12)
    e = events.events[0]
    for s in samples:
        hist_text = decode(s.text_hist, vocab)
        if s.anchor_time <= e.t < s.anchor_time + 12:
            assert all(w in hist_text for w in e.text.split())
    # events never leak into windows that end before their onset
    early = [s for s in samples if s.anchor_time + 24 <= e.t]
    for s in early:
        assert e.text not in decode(s.text_future, vocab)


def windowize_oracle(series, events, vocab, t, hist_text_len, future_text_len):
    """Each window's events filtered from the whole log, then sorted."""
    def text(start, stop):
        hits = sorted(events.in_window(start, stop), key=lambda e: (e.t, e.node))
        return ". ".join(e.text for e in hits)

    return [Sample(x_hist=series.speeds[a:a + t].copy(),
                   text_hist=encode(text(a, a + t), vocab, hist_text_len),
                   y_future=series.speeds[a + t:a + 2 * t].copy(),
                   text_future=encode(text(a + t, a + 2 * t), vocab, future_text_len),
                   anchor_time=a)
            for a in range(series.speeds.shape[0] - 2 * t + 1)]


def test_windowize_matches_filter_and_sort_oracle():
    t, a = 4, 3
    series = TrafficSeries(speeds=np.random.default_rng(0).normal(size=(20, 3, 1)))
    # out of time order; two events share (t, node); onsets at a, a+t-1, a+t
    # and a+2t-1, the first and last steps of anchor a's two windows
    log = [(a + 2 * t - 1, 2, "closure on oak"), (a + t, 1, "congestion on pine"),
           (a, 0, "accident on elm"), (a + t - 1, 2, "construction on birch"),
           (a + t, 1, "accident on cedar"), (a + t, 0, "closure on maple"),
           (0, 1, "congestion on hazel"), (19, 2, "accident on rowan")]
    events = EventLog([Event(t=ti, node=n, kind=txt.split()[0], text=txt)
                       for ti, n, txt in log])
    vocab = build_vocab([txt for _, _, txt in log])
    got = windowize(series, events, vocab, t, hist_text_len=20, future_text_len=24)
    want = windowize_oracle(series, events, vocab, t, 20, 24)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.anchor_time == w.anchor_time
        assert g.text_hist == w.text_hist and g.text_future == w.text_future
        np.testing.assert_array_equal(g.x_hist, w.x_hist)
        np.testing.assert_array_equal(g.y_future, w.y_future)
    # the tied pair keeps its log order: pine before cedar
    fut = decode(got[a].text_future, vocab)
    assert fut.index("pine") < fut.index("cedar") < fut.index("oak")


def test_windowize_too_short_series():
    series = TrafficSeries(speeds=np.zeros((10, 2, 1)))
    vocab = build_vocab(["x"])
    with pytest.raises(ParameterError):
        windowize(series, EventLog(), vocab, 12)


# --- normalization -----------------------------------------------------------

def test_fit_norm_stats_uses_prefix_rows_only():
    speeds = np.concatenate([np.full((10, 2, 1), 5.0), np.full((10, 2, 1), 100.0)])
    stats = fit_norm_stats(speeds[:10])
    np.testing.assert_allclose(stats.mean, 5.0)
    # zero variance clamps to eps
    assert np.all(stats.std == 1e-8)


def test_z_normalize_roundtrip():
    rng = np.random.default_rng(0)
    series = TrafficSeries(speeds=rng.uniform(20, 60, size=(30, 3, 1)))
    stats = fit_norm_stats(series.speeds)
    normed = z_normalize(series, stats)
    np.testing.assert_allclose(normed.speeds.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(denormalize(normed.speeds, stats), series.speeds, atol=1e-9)


def test_norm_stats_dict_roundtrip():
    stats = NormStats(mean=np.array([[1.0]]), std=np.array([[2.0]]))
    written = json.loads(json.dumps(stats.to_dict()))
    assert written == stats.to_dict() == {"mean": [[1.0]], "std": [[2.0]]}


# --- temporal split ----------------------------------------------------------

def test_split_sizes_80_20_and_leakage_guard(small):
    graph, series, events = small
    samples = windowize(series, events, build_vocab(["x"]), 12)
    n_train, first_test = split_sizes(80, 12)
    assert first_test == int(np.floor(0.8 * len(samples)))
    train, test = samples[:n_train], samples[first_test:]
    assert all(s.anchor_time + 24 <= first_test for s in train)
    assert [s.anchor_time for s in test] == list(range(first_test, len(samples)))
    # the dropped windows are exactly the boundary-crossing train candidates
    assert all(s.anchor_time + 24 > first_test for s in samples[n_train:first_test])


def test_split_sizes_needs_two_windows():
    for n_steps, t in [(16, 8), (15, 8), (1, 1), (0, 4)]:
        with pytest.raises(ConfigError, match=f"key 'window' is {t}, .* {n_steps} steps"):
            split_sizes(n_steps, t)
    assert split_sizes(17, 8) == (0, 1)


@pytest.mark.parametrize("n_steps,t", [(48, 12), (48, 8), (31, 8), (60, 12), (14, 4),
                                       (9, 4), (5, 2), (3, 1)])
def test_n_train_samples_matches_split(n_steps, t):
    """`split_sizes` against the windows `windowize` cuts: the first test
    anchor is the 80% boundary, and the training windows are exactly the
    earlier windows whose future ends by it."""
    series = TrafficSeries(speeds=np.zeros((n_steps, 1, 1)))
    samples = windowize(series, EventLog(), build_vocab(["x"]), t)
    n_train, first_test = split_sizes(n_steps, t)
    assert first_test == int(np.floor(0.8 * len(samples))) >= 1
    assert first_test < len(samples)
    kept = [s.anchor_time for s in samples[:first_test] if s.anchor_time + 2 * t <= first_test]
    assert kept == list(range(n_train))


# --- file I/O ----------------------------------------------------------------

@pytest.mark.parametrize("kind,value,fits", [
    (int, 3, True), (int, True, False), (int, 3.0, False), (bool, True, True),
    (bool, 1, False), (float, 2, True), (float, 2.5, True), (float, False, False),
    (str, "a", True), (str, None, False), ((int, None), None, True),
    ((int, None), 2, True), ((int, None), "2", False), ([str], ["a", "b"], True),
    ([str], [], True), ([str], ["a", 1], False), ([str], "ab", False),
    ([[int]], [[0, 1]], True), ([[int]], [[0, True]], False), (1, 1, True),
    (1, 0, False), (0, -1, False), (1, 1.0, False), (1, True, False), ([0], [0, 2], True),
    ([0], [0, -2], False), (list, {}, False), (dict, {}, True),
])
def test_require_kinds(kind, value, fits):
    obj = {"k": value}
    if fits:
        assert require(obj, {"k": kind}, "here") is obj
    else:
        with pytest.raises(ParseError, match=r"^here: key 'k' must be "):
            require(obj, {"k": kind}, "here")


def test_save_load_roundtrip_is_bit_exact(tmp_path, small):
    graph, series, events = small
    save_dataset(tmp_path, graph, series, events, seed=3)
    g2, s2, e2, manifest = load_dataset(tmp_path)
    np.testing.assert_array_equal(s2.speeds, series.speeds)
    np.testing.assert_array_equal(g2.adjacency, graph.adjacency)
    assert g2.node_names == graph.node_names
    assert len(e2) == len(events)
    assert all(a.t == b.t and a.node == b.node and a.kind == b.kind and a.text == b.text
               for a, b in zip(e2.events, events.events))
    assert manifest["seed"] == 3 and manifest["n_steps"] == 80


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ParseError, match="manifest.json"):
        load_dataset(tmp_path)


def _write_dataset(tmp_path, small):
    graph, series, events = small
    save_dataset(tmp_path, graph, series, events, seed=0)
    return graph


def test_load_rejects_bad_column_count(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "speeds.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + ",999"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"speeds.csv: row 3"):
        load_dataset(tmp_path)


def test_load_rejects_non_numeric_speed(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "speeds.csv"
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1] = "fast"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"speeds.csv: row 2"):
        load_dataset(tmp_path)


def test_load_rejects_self_loop_edge(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "adjacency.json"
    spec = json.loads(path.read_text())
    spec["edges"].append([2, 2])
    path.write_text(json.dumps(spec))
    with pytest.raises(ParseError, match="self-loop"):
        load_dataset(tmp_path)


def test_load_rejects_duplicate_edge(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "adjacency.json"
    spec = json.loads(path.read_text())
    i, j = spec["edges"][0]
    spec["edges"].append([j, i])
    path.write_text(json.dumps(spec))
    with pytest.raises(ParseError, match="duplicates"):
        load_dataset(tmp_path)


def test_load_rejects_out_of_range_edge(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "adjacency.json"
    spec = json.loads(path.read_text())
    spec["edges"].append([0, 99])
    path.write_text(json.dumps(spec))
    with pytest.raises(ParseError, match="out of range"):
        load_dataset(tmp_path)


def test_load_rejects_unknown_event_kind(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": 0, "node": 0, "kind": "alien", "text": "alien on elm"}\n')
    with pytest.raises(ParseError, match="unknown kind"):
        load_dataset(tmp_path)


def test_load_rejects_empty_event_text(tmp_path, small):
    _write_dataset(tmp_path, small)
    path = tmp_path / "events.jsonl"
    path.write_text('{"t": 0, "node": 0, "kind": "accident", "text": ""}\n')
    with pytest.raises(ParseError, match="empty text"):
        load_dataset(tmp_path)
