"""In-memory span tracer that wraps rsmimo's module attributes at run time.

Spans are (name, start, end, parent, draw) tuples kept in a list and written
out once the run ends. Wrapping happens from the benchmark's side only: the
package itself is never edited. A wrapped name that the package no longer has
is recorded as absent instead of raising.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict, deque

import numpy as np

# numpy.linalg entry points counted as "linalg calls"; only names present in
# the installed numpy are wrapped.
LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_power", "matrix_rank", "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


DESIGN_PREFIX = "design."


class Tracer:
    """Span recorder with parent tracking and per-label linalg call counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, draw]
        self._stack: list[int] = []
        self.draw = -1
        self.label = None  # scheme of the design span that is open, for linalg counts
        self.linalg_calls = defaultdict(int)
        self.calls_by_label = defaultdict(int)  # (span name, label) -> calls
        self.absent: list[str] = []
        self.last = defaultdict(lambda: deque(maxlen=2))  # name -> recent (args, result)
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result.

        A span named DESIGN_PREFIX + scheme also labels the numpy.linalg
        calls made inside it with the scheme.
        """
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self._name_id(name), 0.0, 0.0, parent, self.draw]
        self.spans.append(span)
        self._stack.append(idx)
        outer_label = self.label
        if name.startswith(DESIGN_PREFIX):
            self.label = name[len(DESIGN_PREFIX):]
        self.calls_by_label[(name, self.label)] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.label = outer_label
            self._stack.pop()

    # -- wrapping ------------------------------------------------------------
    def wrap(self, module, attr, name, keep=False, after=None):
        """Replace module.attr with a span-recording wrapper.

        name is a span name or a function of the call's positional arguments
        that returns one. keep stores the last two (args, result) pairs under
        the span name; after(args, result) runs once the call returns.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            result = tracer.call(span_name, original, *args, **kwargs)
            if keep:
                tracer.last[span_name].append((args, result))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))
        return True

    def count_linalg(self):
        """Count numpy.linalg calls per current label."""
        tracer = self
        for attr in LINALG_FUNCTIONS:
            original = getattr(np.linalg, attr, None)
            if original is None:
                continue

            def counter(*args, _original=original, **kwargs):
                tracer.linalg_calls[tracer.label] += 1
                return _original(*args, **kwargs)

            setattr(np.linalg, attr, counter)
            self._restore.append((np.linalg, attr, original))

    def unwrap(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(self.names[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def top_level_total(self, names):
        """Inclusive seconds of spans with one of the names whose parent is not traced."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        return sum(end - start for nid, start, end, parent, _ in self.spans
                   if nid in wanted and parent < 0)

    def write(self, path, extra):
        payload = dict(extra)
        payload["span_names"] = self.names
        payload["span_fields"] = ["name", "start", "end", "parent", "draw"]
        payload["spans"] = self.spans
        payload["layers"] = self.summary()
        payload["absent"] = self.absent
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
