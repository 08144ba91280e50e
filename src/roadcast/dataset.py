"""Synthetic traffic/text dataset: generation, windowing, normalization, file I/O.

Schema mirrors a 4-minute-interval road-speed corpus with per-event text
annotations, so real files with the same layout can be dropped in unchanged.
"""

from __future__ import annotations

import json
import reprlib
import typing
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError, ParameterError, ParseError
from .numerics import RngState
from .tokenizer import Vocab, encode

EVENT_KINDS = ("accident", "closure", "construction", "congestion")

_NAME_FIRST = ["elm", "oak", "maple", "cedar", "birch", "willow", "aspen", "pine",
               "juniper", "laurel", "hazel", "rowan", "alder", "poplar", "linden", "walnut"]
_NAME_SECOND = ["street", "road", "avenue", "bridge", "lane", "crossing"]


def default_node_names(n: int) -> List[str]:
    names = []
    for i in range(n):
        a = _NAME_FIRST[i % len(_NAME_FIRST)]
        b = _NAME_SECOND[(i // len(_NAME_FIRST)) % len(_NAME_SECOND)]
        name = f"{a} {b}"
        if i >= len(_NAME_FIRST) * len(_NAME_SECOND):
            name = f"{name} {i}"
        names.append(name)
    return names


@dataclass
class RoadGraph:
    n_nodes: int
    node_names: List[str]
    adjacency: np.ndarray  # [N, N] of {0,1}, symmetric, zero diagonal

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.adjacency[i])[0]


@dataclass
class TrafficSeries:
    speeds: np.ndarray  # [T, N, C] km/h
    step_minutes: int = 4
    baseline: Optional[np.ndarray] = None  # pre-anomaly speeds, kept for tests


@dataclass
class Event:
    t: int
    node: int
    kind: str
    text: str


@dataclass
class EventLog:
    events: List[Event] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def in_window(self, start: int, stop: int) -> List[Event]:
        return [e for e in self.events if start <= e.t < stop]


@dataclass
class Sample:
    x_hist: np.ndarray       # [t, N, C]
    text_hist: List[int]
    y_future: np.ndarray     # [t, N, C]
    text_future: List[int]
    anchor_time: int


@dataclass
class NormStats:
    mean: np.ndarray  # [N, C]
    std: np.ndarray   # [N, C], >= STD_FLOOR

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def _random_graph(n_nodes: int, rng: RngState) -> RoadGraph:
    """Connected ring plus a few random chords."""
    adj = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        adj[i, j] = adj[j, i] = 1.0
    n_chords = n_nodes // 4
    for _ in range(n_chords):
        i = int(rng.integers(0, n_nodes))
        j = int(rng.integers(0, n_nodes))
        if i != j:
            adj[i, j] = adj[j, i] = 1.0
    return RoadGraph(n_nodes=n_nodes, node_names=default_node_names(n_nodes), adjacency=adj)


def generate_synthetic(n_nodes: int, n_steps: int, anomaly_rate: float,
                       anomaly_depth: float, seed: int, step_minutes: int = 4,
                       window: int = 12, announce_lead: int = 0
                       ) -> Tuple[RoadGraph, TrafficSeries, EventLog]:
    """Diurnal sinusoid + unit Gaussian noise per node, with multiplicative
    anomaly depressions.

    Each anomaly hits one node over one interval (speed scaled by
    ``1 - anomaly_depth``), spills a half-depth depression onto its graph
    neighbors with a one-step lag, and logs a templated event text.
    Each node has a characteristic event kind (accident-prone junctions stay
    accident-prone), so kind is predictable from the affected node.

    ``announce_lead`` models scheduled incidents (closures, construction):
    the event is announced at ``t`` but the traffic effect only begins at
    ``t + announce_lead``. With lead 0 the announcement coincides with onset.
    """
    if n_nodes < 2:
        raise ParameterError(f"n_nodes {n_nodes} < 2")
    if n_steps < 2 * window:
        raise ParameterError(f"n_steps {n_steps} < 2 * window ({2 * window})")
    if not 0.0 <= anomaly_rate <= 1.0:
        raise ParameterError(f"anomaly_rate {anomaly_rate} outside [0, 1]")
    if not 0.0 < anomaly_depth < 1.0:
        raise ParameterError(f"anomaly_depth {anomaly_depth} outside (0, 1)")
    if announce_lead < 0 or announce_lead >= n_steps:
        raise ParameterError(f"announce_lead {announce_lead} outside [0, {n_steps})")
    if seed < 0:
        raise ParameterError(f"seed {seed} < 0")

    rng = RngState(seed)
    graph = _random_graph(n_nodes, rng)

    period = 24 * 60 / step_minutes
    t_axis = np.arange(n_steps)[:, None]
    base = rng.uniform((n_nodes,), 40.0, 60.0)
    amp = rng.uniform((n_nodes,), 5.0, 15.0)
    phase = rng.uniform((n_nodes,), 0.0, 2 * np.pi)
    clean = base + amp * np.sin(2 * np.pi * t_axis / period + phase)
    clean = clean + rng.normal((n_steps, n_nodes))
    baseline = clean[..., None].copy()  # [T, N, 1]

    speeds = baseline.copy()
    events = EventLog()
    n_anomalies = int(round(anomaly_rate * n_steps / 10.0))
    for _ in range(n_anomalies):
        node = int(rng.integers(0, n_nodes))
        duration = int(rng.integers(8, 21))
        announce = int(rng.integers(0, max(1, n_steps - duration - announce_lead)))
        kind = EVENT_KINDS[node % len(EVENT_KINDS)]
        onset = announce + announce_lead
        stop = min(onset + duration, n_steps)
        speeds[onset:stop, node, :] *= (1.0 - anomaly_depth)
        for nb in graph.neighbors(node):
            speeds[onset + 1:stop, nb, :] *= (1.0 - anomaly_depth / 2.0)
        events.events.append(Event(t=announce, node=node, kind=kind,
                                   text=f"{kind} on {graph.node_names[node]}"))
    speeds = np.maximum(speeds, 0.0)

    series = TrafficSeries(speeds=speeds, step_minutes=step_minutes, baseline=baseline)
    return graph, series, events


def windowize(series: TrafficSeries, events: EventLog, vocab: Vocab, t: int,
              hist_text_len: int = 16, future_text_len: int = 24,
              anchors: slice = slice(None)) -> List[Sample]:
    """One sample per anchor in [0, T - 2t], stride 1, cut only for the
    anchors that ``anchors`` selects: the result equals the full list
    sliced by ``anchors``.

    Text windows concatenate all event texts whose onset falls inside the
    respective window, in time order.
    """
    total = series.speeds.shape[0]
    if total < 2 * t:
        raise ParameterError(f"series length {total} < 2 * window ({2 * t}); dataset empty")
    # stable, so events with equal (t, node) keep their log order, as when
    # each window is filtered from the log and then sorted
    ordered = sorted(events.events, key=lambda e: (e.t, e.node))
    onsets = [e.t for e in ordered]

    def texts(start: int, stop: int) -> str:
        lo, hi = bisect_left(onsets, start), bisect_left(onsets, stop)
        return ". ".join(e.text for e in ordered[lo:hi])

    samples = []
    for a in range(total - 2 * t + 1)[anchors]:
        samples.append(Sample(
            x_hist=series.speeds[a:a + t].copy(),
            text_hist=encode(texts(a, a + t), vocab, hist_text_len),
            y_future=series.speeds[a + t:a + 2 * t].copy(),
            text_future=encode(texts(a + t, a + 2 * t), vocab, future_text_len),
            anchor_time=a,
        ))
    return samples


STD_FLOOR = 1e-8  # smallest std, so a constant road normalizes to 0, not NaN


def fit_norm_stats(speeds: np.ndarray) -> NormStats:
    """Per-node, per-channel moments over the time axis of ``speeds``."""
    return NormStats(mean=speeds.mean(axis=0), std=np.maximum(speeds.std(axis=0), STD_FLOOR))


def z_normalize(series: TrafficSeries, stats: NormStats) -> TrafficSeries:
    return TrafficSeries(speeds=(series.speeds - stats.mean) / stats.std,
                         step_minutes=series.step_minutes)


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Inverse of z_normalize on any [..., N, C] array."""
    return values * stats.std + stats.mean


def split_sizes(n_steps: int, t: int) -> Tuple[int, int]:
    """(n_train, first_test) of the windows `windowize` cuts at window ``t``
    from ``n_steps`` steps: test windows start at the 80% anchor
    ``first_test``; training windows are the first ``n_train`` (maybe 0), the
    ones whose future ends by it. ConfigError below 2 windows."""
    n_windows = n_steps - 2 * t + 1
    if n_windows < 2:
        raise ConfigError(f"key 'window' is {t}, but the dataset's series of {n_steps} "
                          f"steps holds fewer than 2 windows of {2 * t} steps")
    first_test = int(0.8 * n_windows)
    return max(0, first_test - 2 * t + 1), first_test


# --- file formats -----------------------------------------------------------

def save_dataset(out_dir, graph: RoadGraph, series: TrafficSeries,
                 events: EventLog, seed: int) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["timestamp," + ",".join(graph.node_names)]
    for i, row in enumerate(series.speeds[:, :, 0]):
        lines.append(f"{i * series.step_minutes}," + ",".join(repr(float(v)) for v in row))
    (out / "speeds.csv").write_text("\n".join(lines) + "\n")

    edges = [[i, j] for i in range(graph.n_nodes) for j in range(i + 1, graph.n_nodes)
             if graph.adjacency[i, j] > 0]
    (out / "adjacency.json").write_text(
        json.dumps({"nodes": graph.node_names, "edges": edges}) + "\n")

    with open(out / "events.jsonl", "w") as fh:
        for e in events.events:
            fh.write(json.dumps({"t": e.t, "node": e.node, "kind": e.kind, "text": e.text}) + "\n")

    manifest = {
        "speeds": "speeds.csv",
        "adjacency": "adjacency.json",
        "events": "events.jsonl",
        "step_minutes": series.step_minutes,
        "seed": seed,
        "n_nodes": graph.n_nodes,
        "n_steps": int(series.speeds.shape[0]),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def require(obj, spec: dict, where: str) -> dict:
    """``obj``, once it is a JSON object holding each key of ``spec`` with a
    value of the kind named for it; ParseError at ``where`` otherwise.

    A kind is a type or a tuple of types (a bool is only a bool, an int also
    fits a float, ``None`` means null), ``[kind]`` for a list of that kind, or
    an int ``low`` for an integer >= ``low``. The message shows a misfit value
    abridged, so a long list stays one short line.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in spec.items():
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}")
        if not _fits(obj[key], kind):
            raise ParseError(f"{where}: key {key!r} must be {_kind_name(kind)}, "
                             f"got {reprlib.repr(obj[key])}")
    return obj


def _types(kind) -> tuple:
    return tuple(type(None) if t is None else t
                 for t in (kind if isinstance(kind, tuple) else (kind,)))


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if type(kind) is int:
        return _fits(value, int) and value >= kind
    types = _types(kind)
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types + ((int,) if float in types else ()))


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return f"a list of {_kind_name(kind[0])}"
    if type(kind) is int:
        return f"an integer >= {kind}"
    return " or ".join("null" if t is type(None) else t.__name__ for t in _types(kind))


def require_config(obj, cls, where: str):
    """``cls(**obj)`` for a config dataclass ``cls``, once every key of ``obj``
    names a field of ``cls`` and holds a value of the field's type (see
    `require`); ParseError at ``where`` otherwise, also for a value ``cls``
    refuses."""
    hints = typing.get_type_hints(cls)
    for key in require(obj, {}, where):
        if key not in hints:
            raise ParseError(f"{where}: unknown key {key!r}")
    require(obj, {key: typing.get_args(hints[key]) or hints[key] for key in obj}, where)
    try:
        return cls(**obj)
    except (ConfigError, ParameterError) as err:
        raise ParseError(f"{where}: {err}") from None


def load_dataset(in_dir) -> Tuple[RoadGraph, TrafficSeries, EventLog, dict]:
    src = Path(in_dir)
    try:
        manifest = json.loads((src / "manifest.json").read_text())
    except FileNotFoundError:
        raise ParseError(f"missing manifest.json under {src}")
    except json.JSONDecodeError as err:
        raise ParseError(f"manifest.json: {err}")
    require(manifest, {"adjacency": str, "speeds": str, "step_minutes": 1, "events": str},
            "manifest.json")
    graph = _load_adjacency(src / manifest["adjacency"])
    series = _load_speeds(src / manifest["speeds"], graph, manifest["step_minutes"])
    events = _load_events(src / manifest["events"], series.speeds.shape[0], graph.n_nodes)
    return graph, series, events, manifest


def _load_speeds(path: Path, graph: RoadGraph, step_minutes: int) -> TrafficSeries:
    lines = path.read_text().splitlines()
    if not lines:
        raise ParseError(f"{path.name}: empty file")
    header = lines[0].split(",")
    n_cols = len(header)
    if header[0] != "timestamp" or n_cols != graph.n_nodes + 1:
        raise ParseError(f"{path.name}: header has {n_cols} columns, expected {graph.n_nodes + 1}")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{path.name}: row {ln} has {len(parts)} columns, expected {n_cols}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as err:
            raise ParseError(f"{path.name}: row {ln}: {err}")
    speeds = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(speeds))
    if len(bad):
        r, c = bad[0]
        raise ParseError(f"{path.name}: row {r + 2}, column {header[c + 1]!r}: "
                         f"non-finite speed {speeds[r, c]}")
    return TrafficSeries(speeds=speeds[..., None], step_minutes=step_minutes)


def _load_adjacency(path: Path) -> RoadGraph:
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path.name}: {err}")
    names = require(spec, {"nodes": [str], "edges": [[int]]}, path.name)["nodes"]
    n = len(names)
    adj = np.zeros((n, n))
    seen = set()
    for edge in spec["edges"]:
        if len(edge) != 2:
            raise ParseError(f"{path.name}: key 'edges': {edge!r} is not a pair of integers")
        i, j = edge
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{path.name}: edge {edge} out of range for {n} nodes")
        if i == j:
            raise ParseError(f"{path.name}: self-loop {edge} not allowed")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(f"{path.name}: edge {edge} duplicates an existing undirected edge")
        seen.add(key)
        adj[i, j] = adj[j, i] = 1.0
    return RoadGraph(n_nodes=n, node_names=list(names), adjacency=adj)


def _load_events(path: Path, n_steps: int, n_nodes: int) -> EventLog:
    log = EventLog()
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"{path.name}: line {ln}: {err}")
        where = f"{path.name}: line {ln}"
        require(obj, {"t": int, "node": int, "kind": str, "text": str}, where)
        event = Event(obj["t"], obj["node"], obj["kind"], obj["text"])
        if event.kind not in EVENT_KINDS:
            raise ParseError(f"{where}: unknown kind {event.kind!r}")
        if not (0 <= event.t < n_steps) or not (0 <= event.node < n_nodes):
            raise ParseError(f"{where}: index out of range")
        if not event.text:
            raise ParseError(f"{where}: empty text")
        log.events.append(event)
    return log
