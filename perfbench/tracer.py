"""Span recorder for the traced benchmark pass.

The traced pass measures each layer from outside: every probed public
function is rebound to a timing wrapper in every ``deskbench`` module
that holds a reference to it, and restored afterwards. A span records
its name, start, end, parent span and the id of the pass it belongs to;
counts are added by each probe at the same call boundary. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a root span
        self.pass_ids: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.pass_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()  # spans also open on the master's reader threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.pass_ids.append(self.pass_id)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(name)) for name in names)

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "pass_id", "self_s"],
            "spans": [list(row) for row in zip(self.names, self.starts, self.ends,
                                               self.parents, self.pass_ids,
                                               self_times(self))],
            "counts": dict(self.counts),
        }


def self_times(rec: Recorder) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent can overlap when they run on other threads, so
    their intervals are merged and clipped to the parent before summing.
    """
    children = defaultdict(list)
    for index, parent in enumerate(rec.parents):
        if parent >= 0:
            children[parent].append((rec.starts[index], rec.ends[index]))
    out = []
    for index, (start, end) in enumerate(zip(rec.starts, rec.ends)):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_self_times(rec: Recorder) -> dict[str, float]:
    """Self time summed by layer, the first dotted part of a span name."""
    out = defaultdict(float)
    for name, value in zip(rec.names, self_times(rec)):
        out[name.split(".", 1)[0]] += value
    return dict(out)


@dataclass(frozen=True)
class Probe:
    """One public function (or method) to time, with optional hooks.

    ``count(rec, args, kwargs, result)`` adds counters after a call;
    ``rewrite(rec, args, kwargs)`` may replace arguments before it.
    """

    owner: object
    attr: str
    span: str
    count: Callable | None = None
    rewrite: Callable | None = None


def _timed(rec: Recorder, probe: Probe, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if probe.rewrite is not None:
            args, kwargs = probe.rewrite(rec, args, kwargs)
        index = rec.open(probe.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if probe.count is not None:
            probe.count(rec, args, kwargs, result)
        return result

    return timed


def _modules(package: str) -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def instrument(rec: Recorder, probes, package: str = "deskbench"):
    """Rebind every probe in every module of ``package`` that refers to it.

    A module-level function is replaced wherever a module holds it under
    any name, so ``from .worker import local_epoch`` copies are timed too;
    a method is replaced on its class. Everything is restored on exit.
    """
    saved = []
    try:
        for probe in probes:
            original = getattr(probe.owner, probe.attr)
            wrapper = _timed(rec, probe, original)
            if isinstance(probe.owner, type):
                saved.append((probe.owner, probe.attr, original))
                setattr(probe.owner, probe.attr, wrapper)
                continue
            for mod in _modules(package):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, name, original))
                        setattr(mod, name, wrapper)
        yield
    finally:
        for target, name, original in reversed(saved):
            setattr(target, name, original)


def median_duration(rec: Recorder, name: str) -> float:
    values = rec.durations(name)
    return statistics.median(values) if values else 0.0


def write_spans(rec: Recorder, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rec.to_json(), handle, separators=(",", ":"))
