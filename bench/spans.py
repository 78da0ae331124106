"""Spans around the benchmark's calls into rhozeta.

A span records name, start, end, parent span, job id, how many calls it
covers and how many of them raised.  Spans stay in memory and are written
out once, when the run ends.  A disabled tracer records nothing, so the
untraced run pays one attribute test per call.
"""

import json
from collections import Counter
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "calls", "errors", "_tracer")

    def __init__(self, tracer, name, calls):
        self._tracer = tracer
        self.name = name
        self.calls = calls
        self.errors = 0

    def __enter__(self):
        t = self._tracer
        self.parent = t._stack[-1] if t._stack else None
        self.job = t.job
        t._stack.append(len(t.spans))
        t.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = perf_counter()
        self._tracer._stack.pop()
        if exc_type is not None:
            self.errors += 1
        return False

    def as_dict(self):
        return {k: getattr(self, k) for k in ("name", "start", "end", "parent", "job", "calls", "errors")}


class _NullSpan:
    """Stand-in for Span when tracing is off; errors written to it are dropped."""

    errors = 0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullSpan()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []

    def span(self, name, calls=1):
        return Span(self, name, calls) if self.enabled else _NULL

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with Span(self, name, 1):
            return fn(*args, **kwargs)

    def count(self, name, amount):
        if self.enabled:
            self.counts[name] += amount

    def self_times(self):
        """Seconds of each span not covered by its children, in span order."""
        children = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = []
        for span, kids in zip(self.spans, children):
            covered, reach = 0.0, span.start
            for start, end in sorted(kids):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span.end - span.start - covered)
        return result

    def summary(self):
        """{name: (self_ms, calls, errors)} summed over all spans of that name."""
        out = {}
        for span, self_s in zip(self.spans, self.self_times()):
            ms, calls, errors = out.get(span.name, (0.0, 0, 0))
            out[span.name] = (ms + 1e3 * self_s, calls + span.calls, errors + span.errors)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
