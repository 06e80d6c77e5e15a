"""In-memory spans recorded by the benchmark around calls into qswitch.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
while the run lasts and are written out once at its end, so recording
costs two clock reads and a list append per call.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        parent = self._open[-1] if self._open else -1
        span = [name, 0, 0, parent]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._open.pop()

    def self_times(self):
        """name -> (calls, total self time in ns).

        A span's self time is its duration minus the durations of its
        direct children.
        """
        children = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = {}
        for (name, start, end, _), inner in zip(self.spans, children):
            calls, total = totals.get(name, (0, 0))
            totals[name] = (calls + 1, total + end - start - inner)
        return totals

    def write(self, path, meta):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": names,
                    "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
