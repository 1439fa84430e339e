"""Spans around public calls into the package, recorded from outside it.

A span is (name, start, end, parent, round) plus optional extras.  Spans are
kept in a list in memory and written out once, when the benchmark ends.  The
package is not modified: each traced function is replaced, for the length of
the traced run, by a wrapper under the module attribute its callers look up.
"""

from __future__ import annotations

import json
import resource
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, fn, name, before=None, after=None, rusage=False):
        """Return ``fn`` wrapped in a span.

        ``before(args, kwargs)`` returns extras stored on the span;
        ``after(result)`` may replace the result (used to trace operators a
        call returns); ``rusage`` stores the minor page faults and system
        time spent inside the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            rec = {"name": name, "round": tracer.round,
                   "parent": tracer._stack[-1] if tracer._stack else None}
            if before is not None:
                rec.update(before(args, kwargs))
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            ru0 = resource.getrusage(resource.RUSAGE_SELF) if rusage else None
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
                if rusage:
                    ru1 = resource.getrusage(resource.RUSAGE_SELF)
                    rec["minflt"] = ru1.ru_minflt - ru0.ru_minflt
                    rec["sys_s"] = ru1.ru_stime - ru0.ru_stime
            return after(result) if after is not None else result

        return traced

    def patch(self, module, attr, name, **kw):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, **kw))
        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- queries ------------------------------------------------------------

    def select(self, name, rnd=None, parent_name=None):
        out = []
        for s in self.spans:
            if s["name"] != name or (rnd is not None and s["round"] != rnd):
                continue
            if parent_name is not None:
                if s["parent"] is None or self.spans[s["parent"]]["name"] != parent_name:
                    continue
            out.append(s)
        return out

    def total(self, name, rnd=None) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, rnd))

    def count(self, name, rnd=None) -> int:
        return len(self.select(name, rnd))

    def self_time(self, name, child, rnd=None) -> float:
        """Time in ``name`` spans not covered by their direct ``child`` spans."""
        own = self.total(name, rnd)
        inner = sum(s["end"] - s["start"]
                    for s in self.select(child, rnd, parent_name=name))
        return own - inner

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
