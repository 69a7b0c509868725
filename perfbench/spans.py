"""Spans around the benchmark's calls into the library.

The benchmark reaches every library module through a `Layer`.  With
tracing off a layer hands back the module's own functions, so the timed
runs pay nothing.  With tracing on, each call into a public function
becomes one span named `<module>.<function>`.  Spans are recorded at the
benchmark's side of the boundary only: work a call triggers in another
module (an `entropy` call running the `psi` DP) counts in the caller's
span.
"""

from __future__ import annotations

import time


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []   # dicts: name, start, end, parent, args
        self._open: list = []   # indices of spans not yet closed

    def call(self, name: str, fn, args, kwargs):
        scalars = [a for a in args if isinstance(a, (int, float, str))]
        scalars += [v for v in kwargs.values() if isinstance(v, (int, float, str))]
        idx = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._open[-1] if self._open else None, "args": scalars}
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


class Layer:
    """Attribute access into a module (or a class inside it) whose calls
    are traced when the tracer is on."""

    def __init__(self, target, name: str, tracer: Tracer):
        self._target = target
        self._name = name
        self._tracer = tracer

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if not self._tracer.enabled or not callable(value) or attr.startswith("_"):
            return value
        return Layer(value, f"{self._name}.{attr}", self._tracer)


def span_seconds(spans, name: str, where=None) -> float:
    """Total duration of the spans called `name` (optionally filtered)."""
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name and (where is None or where(s)))


def top_level_seconds(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
