"""Span tracing of roadcast from outside the package.

`Tracer.install` replaces the layers' public functions and the ``forward`` /
``backward`` methods of every ``Module`` subclass with timing wrappers, in
the modules and classes of ``roadcast`` itself, and `Tracer.uninstall` puts
the originals back. Nothing under ``src/`` is edited: every layer is timed at
the calls into it.

Spans (name, start, end, parent) are kept in flat arrays in memory and are
written out once, by `Tracer.save`, when the run ends. A span's self time is
its duration minus the part of it that its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

# (module, function) pairs wrapped wherever a roadcast module holds them,
# with the span name each one records.
FUNCTION_SPANS = (
    ("roadcast.training", "train_step", "training.train_step"),
    ("roadcast.training", "joint_loss", "training.joint_loss"),
    ("roadcast.training", "batchify", "training.batchify"),
    ("roadcast.training", "prepare_data", "training.prepare_data"),
    ("roadcast.training", "save_checkpoint", "training.save_checkpoint"),
    ("roadcast.training", "load_checkpoint", "training.load_checkpoint"),
    ("roadcast.dataset", "load_dataset", "dataset.load_dataset"),
    ("roadcast.dataset", "save_dataset", "dataset.save_dataset"),
    ("roadcast.dataset", "windowize", "dataset.windowize"),
    ("roadcast.numerics", "softmax_rows", "numerics.softmax_rows"),
    ("roadcast.cli", "cmd_gen_data", "cli.gen-data"),
    ("roadcast.cli", "cmd_train", "cli.train"),
    ("roadcast.cli", "cmd_predict", "cli.predict"),
    ("roadcast.cli", "cmd_describe", "cli.describe"),
)

# Methods that are not forward/backward of a Module subclass.
METHOD_SPANS = (
    ("roadcast.training", "Adam", "step", "training.adam_step"),
    ("roadcast.nn", "Module", "zero_grad", "training.zero_grad"),
    ("roadcast.nn", "Module", "param_dict", "training.param_grad_dicts"),
    ("roadcast.nn", "Module", "grad_dict", "training.param_grad_dicts"),
    ("roadcast.generator", "ReportGenerator", "greedy_decode", "generator.greedy_decode"),
    ("roadcast.generator", "ReportGenerator", "step_probs", "generator.step_probs"),
)

JOINT_MODEL_METHODS = ("forward_predict", "backward_predict",
                       "forward_generate", "backward_generate")


def module_method_spans() -> List[Tuple[type, str, str]]:
    """(class, method, span name) for forward/backward of every Module subclass.

    ``JointModel`` has no ``forward``; its four forward/backward entry points
    are timed instead. A leading underscore is dropped from class names.
    """
    from roadcast import nn

    found = []
    for mod_name in sorted(m for m in sys.modules if m.startswith("roadcast.")):
        for _, cls in inspect.getmembers(sys.modules[mod_name], inspect.isclass):
            if (cls.__module__ != mod_name or not issubclass(cls, nn.Module)
                    or cls is nn.Module):
                continue
            methods = [m for m in ("forward", "backward") + JOINT_MODEL_METHODS
                       if m in cls.__dict__]
            for meth in methods:
                found.append((cls, meth, f"{cls.__name__.lstrip('_')}.{meth}"))
    return found


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.current_phase = 0
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span of phase 0; returns its index. Used to build
        spans by hand."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.phase.append(0)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, fn: Callable, name: str, after: Callable = None,
             outermost: bool = False) -> Callable:
        """Timing wrapper around ``fn``.

        ``after(args, result)`` runs once the call returns, to update
        counters. With ``outermost`` a call made while another call of the
        same name is open records no span (for recursive methods).
        """
        nid = self._intern(name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase.append(self.current_phase)
            self.end.append(0.0)
            stack.append(idx)
            depth[name] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # --- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function and method of the imported roadcast."""
        import roadcast.cli  # noqa: F401  (imports every traced module)
        from roadcast.dataset import EventLog

        modules = [sys.modules[m] for m in sorted(sys.modules)
                   if m == "roadcast" or m.startswith("roadcast.")]
        for mod_name, fn_name, span in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], fn_name)
            after = self._count_calls(span) if span == "numerics.softmax_rows" else None
            wrapped = self.wrap(original, span, after=after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

        hooks = {"generator.step_probs": self._after_step_probs,
                 "generator.greedy_decode": self._after_greedy_decode}
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self.wrap(cls.__dict__[meth], span,
                                             after=hooks.get(span), outermost=True))
        for cls, meth, span in module_method_spans():
            self._patch(cls, meth, self.wrap(cls.__dict__[meth], span))

        in_window = EventLog.__dict__["in_window"]

        def counted_in_window(log, start, stop):
            self.count("dataset.in_window.calls")
            self.count("dataset.events_scanned", len(log.events))
            return in_window(log, start, stop)

        self._patch(EventLog, "in_window", counted_in_window)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[self.current_phase][name] += n

    def _count_calls(self, name: str) -> Callable:
        def after(args, result):
            self.count(name + ".calls")
        return after

    def _after_step_probs(self, args, result) -> None:
        tokens = args[1]
        self.count("generator.step_probs.calls")
        self.count("generator.positions_computed", int(tokens.shape[0] * tokens.shape[1]))

    def _after_greedy_decode(self, args, result) -> None:
        self.count("generator.tokens_generated", sum(len(s) - 1 for s in result))

    def counter(self, name: str, phases: Sequence[int]) -> int:
        return sum(self.counters[p][name] for p in phases)

    # --- analysis -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its direct children's intervals."""
        children: Dict[int, List[int]] = defaultdict(list)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children[par].append(idx)
        out = [e - s for s, e in zip(self.start, self.end)]
        for par, kids in children.items():
            lo, hi = self.start[par], self.end[par]
            covered = 0.0
            run_start = run_end = None
            for kid in sorted(kids, key=self.start.__getitem__):
                s, e = max(self.start[kid], lo), min(self.end[kid], hi)
                if e <= s:
                    continue
                if run_end is None or s > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = s, e
                else:
                    run_end = max(run_end, e)
            if run_end is not None:
                covered += run_end - run_start
            out[par] -= covered
        return out

    def totals(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """Per phase, per span name: call count, total and self seconds."""
        selfs = self.self_times()
        acc: Dict[int, Dict[str, Dict[str, float]]] = defaultdict(dict)
        for idx, nid in enumerate(self.name_id):
            row = acc[self.phase[idx]].setdefault(
                self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.end[idx] - self.start[idx]
            row["self_s"] += selfs[idx]
        return acc

    def save(self, path: Path) -> None:
        """Write every span (name, start, end, parent, phase) and the counters
        to one compressed NumPy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.intc),
            start_s=np.frombuffer(self.start), end_s=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            phase=np.frombuffer(self.phase, dtype=np.int8),
            counters=np.array(json.dumps({p: dict(c) for p, c in self.counters.items()})))
