"""Spans around the package's public functions, recorded from outside.

``instrumented`` replaces every public function of the traced layers, in
every ``roadqueue`` namespace that holds it (``tandem`` imports
``solve_triangular``, ``cli`` imports ``simulate`` and ``scan_roots``),
by a wrapper that records a span: name, parent span, start and end.
Spans stay in compact arrays in memory; ``self_times`` reduces them and
``save`` writes them out when the run ends.  A function that a later
change removes or renames is simply absent: its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("fundamental", "queueing", "tandem", "ctmc", "distributions", "config", "cli")
PACKAGE = "roadqueue"


class Tracer:
    """Span store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` sees each result."""
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # open() and close() inlined: this runs on every call of the
            # hottest per-state functions
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        return self_times(self.names, self.name_ids, self.parents, self.starts, self.ends)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def self_times(names, name_ids, parents, starts, ends) -> dict[str, tuple[int, float, float]]:
    """Per name: calls, total time, and self time.

    A span's self time is its duration minus the durations of its child
    spans; one thread's children never overlap, so that is the part of
    its interval they cover.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            covered[parent] += duration
    calls: defaultdict[str, int] = defaultdict(int)
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    for nid, duration, child in zip(name_ids, durations, covered):
        name = names[nid]
        calls[name] += 1
        total[name] += duration
        own[name] += duration - child
    return {name: (calls[name], total[name], own[name]) for name in calls}


def public_functions(module):
    """Public functions defined in ``module`` (not re-exported ones)."""
    for attr, value in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
            yield attr, value


@contextlib.contextmanager
def instrumented(tracer: Tracer, result_counters: dict | None = None):
    """Wrap the traced layers' public functions for the ``with`` body."""
    result_counters = result_counters or {}
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules.get(f"{PACKAGE}.{layer}")
        if module is None:
            continue
        for attr, fn in public_functions(module):
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, result_counters.get(name)))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
