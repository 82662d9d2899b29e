"""Span tracer for the benchmark's traced runs.

The tracer wraps module-level functions of ``halfharm`` from outside, by
rebinding the module attributes; nothing under ``src/`` is edited.  Each call
of a wrapped function becomes one span: an id, a name, the id of the
enclosing span (0 at a thread's root), the thread, and start and end times
from ``time.perf_counter``.  Spans live in a per-thread stack while open and
in one flat in-memory array once closed; ``write`` saves them at the end of
the run.  All spans of one run share the tracer's ``run_id``.

Self time is a span's duration minus the time covered by its child spans;
inclusive time is summed over the outermost span of each name only, so a
function that nests inside itself (``adaptive_integrate`` does, through
the certificate battery's nested integrals) is not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array

import numpy as np

# fields stored per span in Tracer.spans, in this order
SPAN_FIELDS = ("id", "name", "parent", "thread", "start", "end")


class Stat:
    """Running totals of one span name."""

    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.stats: list[Stat] = []
        self.counters: dict[str, float] = {}
        self.spans = array("d")
        self._index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _name(self, name: str) -> int:
        with self._lock:
            if name not in self._index:
                self._index[name] = len(self.names)
                self.names.append(name)
                self.stats.append(Stat())
            return self._index[name]

    def _frames(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
        return local.stack, local.depth

    def current(self) -> str:
        """Name of the innermost open span of this thread ("" at its root)."""
        stack, _ = self._frames()
        return self.names[stack[-1][2]] if stack else ""

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, prepare=None, observe=None):
        """Return fn wrapped in a span called name.

        prepare(args, kwargs) -> (args, kwargs) runs before the span opens
        and may substitute arguments (the quadrature layer wraps the
        integrand it is given this way); observe(args, kwargs, result) runs
        after the span closes and records counts.
        """
        idx = self._name(name)
        stat = self.stats[idx]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack, depth = self._frames()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, idx]
            stack.append(frame)
            depth[idx] = depth.get(idx, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[idx] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    stat.calls += 1
                    stat.self_s += duration - frame[1]
                    if depth[idx] == 0:
                        stat.inclusive_s += duration
                    self.spans.extend((span_id, idx, parent, threading.get_ident(), start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def stat(self, name: str) -> Stat:
        idx = self._index.get(name)
        return self.stats[idx] if idx is not None else Stat()

    def write(self, path) -> None:
        """Save every span as a NumPy archive (one array per field), with the
        names, the run id and the counters (as JSON)."""
        table = np.frombuffer(self.spans, dtype=float).reshape(-1, len(SPAN_FIELDS))
        columns = {f: table[:, i] for i, f in enumerate(SPAN_FIELDS)}
        for f in ("id", "name", "parent", "thread"):
            columns[f] = columns[f].astype(np.int64)
        with open(path, "wb") as fh:
            np.savez(fh, run_id=np.array(self.run_id), names=np.array(self.names),
                     counters=np.array(json.dumps(self.counters)), **columns)


def rebind(module_name: str, attr: str, make_wrapper) -> None:
    """Replace module_name.attr by make_wrapper(original) in every halfharm
    module that binds the same object, so callers that imported the name
    (``from .quadrature import adaptive_integrate``) see the wrapper too."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = make_wrapper(original)
    for name, module in list(sys.modules.items()):
        if (name == "halfharm" or name.startswith("halfharm.")) and \
                getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)
