"""In-memory spans recorded around calls into thermotomo's public functions.

The benchmark never edits the package.  It replaces a function at the name
its caller resolves (``from x import f`` copies the name, so ``cli.forward``
and ``recon.forward`` are wrapped separately) with a wrapper that appends one
span per call: name, start, end, the index of the enclosing span, and counts
computed from the arguments and result.  Times are ``time.monotonic()``,
which on Linux is one clock shared by every process, so the parent can put
child timestamps next to its own.
"""

from __future__ import annotations

import functools
import inspect
import time


class Recorder:
    """Spans of one process, kept in memory until ``to_list`` is called."""

    def __init__(self):
        self.spans: list[dict] = []
        self.marks: list[dict] = []
        self._open: list[int] = []

    def mark(self, **fields):
        """A point event, such as one finished series term."""
        self.marks.append({"t": time.monotonic(), **fields})

    def call(self, name: str, fn, args, kwargs, counts=None):
        span = {"name": name, "start": time.monotonic(), "end": None,
                "parent": self._open[-1] if self._open else None, "counts": {}}
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic()
            self._open.pop()
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, counts=None):
        """Route every call of ``owner.attr`` through a span named ``name``.

        ``counts(arguments, result)`` receives the bound arguments by
        parameter name and returns a dict of numbers stored on the span.
        """
        fn = getattr(owner, attr)
        bind = inspect.signature(fn).bind if counts is not None else None

        def span_counts(args, kwargs, result):
            return counts(bind(*args, **kwargs).arguments, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span_counts if counts else None)

        setattr(owner, attr, wrapper)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def ancestors(spans: list[dict], index: int):
    """Names of the spans enclosing span ``index``, innermost first."""
    parent = spans[index]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]
