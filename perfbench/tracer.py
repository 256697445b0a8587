"""In-memory span tracer installed around cogecon's public functions.

The benchmark, not the program, records the spans: `Tracer.install` replaces
each traced function on every loaded ``cogecon`` module that refers to it (and
each traced method on its class) with a wrapper that appends a span and bumps
its work counter.  `Tracer.uninstall` puts the originals back, so the same
process can time untraced and traced operations side by side.

A span is (operation id, name, parent span index, start, end).  Spans stay in
memory until the benchmark writes them out at the end of its run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def clock() -> float:
    """System-wide monotonic clock, comparable across processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self) -> None:
        self.op = 0
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._first_span_of_op = 0

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Wrapper of fn recording one span per call.

        name is a string or a callable of the call's arguments returning one;
        count, when given, maps (args, kwargs, result) to (counter, amount).
        """
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name(*args, **kwargs) if callable(name) else name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self._stack.pop()
            if count is not None:
                key, amount = count(args, kwargs, result)
                self.counts[key] += amount
            return result

        return traced

    def patch_function(self, fn, name, count=None) -> None:
        """Trace fn wherever a cogecon module holds a reference to it."""
        wrapper = self.wrap(name, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cogecon" and not mod_name.startswith("cogecon."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn, wrapper))

    def patch_method(self, cls, attr: str, name, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self.wrap(name, raw.__func__, count))
        else:
            wrapper = self.wrap(name, raw, count)
        self._patches.append((cls, attr, raw, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def end_op(self, keep_spans: bool = True) -> tuple[dict, Counter]:
        """Self time per span name and the counters of the operation just run.

        A span's self time is its duration minus the durations of its direct
        children; calls nest on one thread, so children lie inside the parent.
        With keep_spans false the operation's spans are forgotten once summed,
        which bounds memory when every operation makes thousands of spans.
        """
        first = self._first_span_of_op
        self_time: dict = defaultdict(float)
        for idx in range(first, len(self.names)):
            dur = self.ends[idx] - self.starts[idx]
            self_time[self.names[idx]] += dur
            parent = self.parents[idx]
            if parent >= 0:
                self_time[self.names[parent]] -= dur
        if not keep_spans:
            for seq in (self.names, self.parents, self.starts, self.ends, self.ops):
                del seq[first:]
        counts, self.counts = self.counts, Counter()
        self.op += 1
        self._first_span_of_op = len(self.names)
        return dict(self_time), counts

    def spans(self) -> list[dict]:
        t0 = self.starts[0] if self.starts else 0.0
        return [{"op": op, "id": i, "name": n, "parent": p,
                 "start_s": s - t0, "end_s": e - t0}
                for i, (op, n, p, s, e) in enumerate(
                    zip(self.ops, self.names, self.parents, self.starts, self.ends))]
