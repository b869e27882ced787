"""In-memory span tracer that wraps functions from outside the program.

`Tracer.patch(module, attr, name)` replaces a module attribute with a wrapper
that records one span per call: name, start, end, parent span and run id.
Callers that look the name up at call time (a `from`-import in the calling
module's namespace, or `module.attr`) then go through the wrapper.  The
wrapper returns the wrapped function's result and re-raises its exception
unchanged; it only notes the exception's type on the span.

Spans stay in memory until `dump` writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "error", "info")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, info=None):
        """Return `fn` recording a span per call.

        `info(args, kwargs, result)` may return a dict of counts read from the
        call; it runs after the span has ended, so its cost is not the span's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else -1, self.run)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, info=None):
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, info))
        self._undo.append((module, attr, original))

    def restore(self):
        """Put back every attribute `patch` replaced."""
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "error": s.error,
                    "info": s.info,
                }) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    `spans` must be the tracer's whole list (parents are list indices).
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
