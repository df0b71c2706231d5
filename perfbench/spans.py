"""In-memory spans recorded around the benchmark's calls into each layer.

The program itself carries no host-stage instrumentation, so the traced
run interposes thin wrappers on the public functions each layer exposes
(a module attribute, a class method or a predictor instance method) and
records one span per call: name, start, end, parent span and the loop
iteration it ran in. Spans are kept in memory and written out when the
run ends.

Worker threads (the shard pool) start with an empty span stack; their
spans are parented to the span the main thread has open at that moment,
which in a closed loop with one caller is the pool call that spawned
them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    iteration: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; ``iteration`` tags each new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        sid = next(self._ids)
        iteration = self.iteration
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, tid, iteration)
            )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def interposed(recorder: SpanRecorder, targets):
    """Route calls to each ``(owner, attribute, span name)`` through spans.

    The originals are restored on exit. An attribute that lived on the
    owner's class rather than the owner (a predictor instance's bound
    method) is deleted again instead of being pinned on the instance.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, original, own))
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    return {
        s.id: s.duration - _covered(children.get(s.id, [])) for s in spans
    }


def per_iteration_totals(
    spans: list[Span], *, self_time: bool = False
) -> dict[str, dict[int, float]]:
    """``{name: {iteration: seconds}}`` summed over a name's outermost spans.

    A span nested (directly or not) inside another span of the same name
    is skipped, so a recursive call is not counted twice. Spans of the
    same name in different worker threads all count: the figure is time
    spent in the layer, which can exceed wall time under a thread pool.
    With ``self_time`` every span contributes its self time, nested or
    not, since self times never overlap.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans) if self_time else None
    out: dict[str, dict[int, float]] = {}
    for s in spans:
        if s.iteration is None:
            continue
        if own is None and _nested_in_namesake(s, by_id):
            continue
        value = own[s.id] if own is not None else s.duration
        cell = out.setdefault(s.name, {})
        cell[s.iteration] = cell.get(s.iteration, 0.0) + value
    return out


def _nested_in_namesake(span: Span, by_id: dict[int, Span]) -> bool:
    p = span.parent
    while p is not None and p in by_id:
        if by_id[p].name == span.name:
            return True
        p = by_id[p].parent
    return False
