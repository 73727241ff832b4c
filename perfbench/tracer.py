"""In-memory spans recorded around calls into adft1024's public functions.

The benchmark never edits the package: it replaces a module attribute (for
example ``adft1024.radix32.adft32_apply``) with a wrapper that opens a span,
calls the original and closes the span.  Callers that look the name up on
that module at call time then pass through the wrapper.

A span records its name, start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), the index of
the span open when it started (its parent), the op id it belongs to, and a
dict of extra counts.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    op: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans for one process.  Single-threaded: spans nest strictly."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, **extra) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent,
                               op=self.op, extra=extra))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a traced wrapper.

        before(args, kwargs) returns extra counts known at call time;
        after(span, args, result) may add counts known only afterwards.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self.begin(name, **(before(args, kwargs) if before else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.end(idx)
            if after:
                after(span, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def adopt(self, spans: list[Span], parent: int, op: int) -> None:
        """Append spans recorded in another process under local span parent."""
        base = len(self.spans)
        for span in spans:
            self.spans.append(Span(span.name, span.start, span.end,
                                   parent if span.parent is None else base + span.parent,
                                   op, dict(span.extra)))


def self_ns(spans: list[Span]) -> list[int]:
    """Per span: duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered, cursor = 0, span.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, cursor, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.ns - covered)
    return out


def dump(spans: list[Span], path) -> None:
    """Write spans as JSON lines (one span per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for idx, s in enumerate(spans):
            handle.write(json.dumps({"id": idx, "name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent, "op": s.op,
                                     "extra": s.extra}) + "\n")


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(r["name"], r["start_ns"], r["end_ns"], r["parent"], r["op"], r["extra"])
                for r in map(json.loads, handle)]
