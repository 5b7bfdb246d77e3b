"""Spans recorded around the benchmark's calls into each heapdyck layer.

A traced run wraps every call the workload makes into a layer's public
function in a span (name, start, end, parent, op id).  Spans stay in
memory and are written out once, when the run ends.  Calls made inside
the library, for instance by a verify suite or by cli.main, are not
wrapped: those layers stay opaque here.  A cyclic garbage collection
during an op is a span of its own, "gc.collect", under whatever span was
open, so the layer that happened to trigger it is not charged for it.
GcClock times the collections, from the one gc callback of the process,
for both the worker's gc_s and these spans.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager, nullcontext
from calibration import clock

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


class Untraced:
    """Hands back each function unchanged; the untraced run pays nothing."""

    def wrap(self, name, fn, case=None):
        return fn

    def op(self, op_id: int):
        return nullcontext()

    def collected(self, start: float, end: float) -> None:
        pass


class GcClock:
    """Total time spent in cyclic garbage collections, and a span for each on a traced run."""

    def __init__(self, tracer) -> None:
        self.total_s = 0.0
        self._start = 0.0
        self._tracer = tracer
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = clock()
        if phase == "start":
            self._start = now
        else:
            self.total_s += now - self._start
            self._tracer.collected(self._start, now)


class Tracer:
    """Records spans in memory; `dump` writes them as one JSON document."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id, ok]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op_id = -1

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), None, parent, self._op_id, True])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _exit(self, index: int, ok: bool) -> None:
        span = self.spans[index]
        span[2] = clock()
        span[5] = ok
        self._open.pop()

    def collected(self, start: float, end: float) -> None:
        """Record a finished collection under whatever span was open."""
        if self._op_id >= 0:
            parent = self._open[-1] if self._open else -1
            self.spans.append(["gc.collect", start, end, parent, self._op_id, True])

    def wrap(self, name, fn, case=None):
        """Wrap fn in a span; `case(*args)` appends a suffix to the name."""

        def traced(*args, **kwargs):
            index = self._enter(name if case is None else f"{name}.{case(*args)}")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(index, False)
                raise
            self._exit(index, True)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        self._op_id = op_id
        index = self._enter("op")
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(index, ok)
            self._op_id = -1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def percentile_ms(durations: list[float], q: float) -> float | None:
    """Nearest-rank percentile in ms, or None without TAIL_SAMPLES beyond it."""
    n = len(durations)
    rank = math.ceil(q * n)
    if n - rank < TAIL_SAMPLES:
        return None
    return sorted(durations)[rank - 1] * 1e3


def layer_table(spans: list[list], op_factor: list[float]) -> dict[str, dict]:
    """Per span name: busy_s, calls, failed and the self time of each call.

    A span's self time is its duration minus the time its child spans
    cover.  Times are scaled by the nominal-speed factor of their op.
    """
    self_s = [(end - start) * op_factor[op] for _n, start, end, _p, op, _ok in spans]
    for span, duration in zip(spans, list(self_s)):
        if span[3] >= 0:
            self_s[span[3]] -= duration
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_s):
        row = table.setdefault(span[0], {"busy_s": 0.0, "calls": 0, "failed": 0, "self_s": []})
        row["busy_s"] += own
        row["calls"] += 1
        row["failed"] += 0 if span[5] else 1
        row["self_s"].append(own)
    return table
