"""In-memory span recorder for the traced pass.

The recorder swaps the bindings of chosen matword functions, in every
loaded ``matword`` module that holds them, for wrappers that record one
span per call: name, start, end, parent span and pass id.  The program's
sources are untouched and the original bindings come back when the traced
pass ends.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "pass_id", "error", "counts")

    def __init__(self, sid, name, start, end, parent=None, pass_id=0, error=None, counts=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pass_id = pass_id
        self.error = error
        self.counts = counts

    def to_json_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Recorder:
    """Collects spans from wrapped calls; ``pass_id`` tags the current pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``counter(args, kwargs, result)`` may return a dict of counts that is
        stored on the span; it runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.pass_id)
            self.spans.append(span)
            self._stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, package: str, targets):
        """Install span wrappers for ``targets`` while the block runs.

        ``targets`` holds (module, function, span name, counter) entries.
        Every module of ``package`` whose namespace binds the function,
        the defining module included, gets the wrapper.
        """
        undo = []
        try:
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == package or name.startswith(package + "."))]
            for module, func, span_name, counter in targets:
                original = getattr(sys.modules[f"{package}.{module}"], func)
                wrapper = self.wrap(span_name, original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict()) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered_length(children[s.sid], s.start, s.end)
        for s in spans
    }
