"""In-memory spans and self-time accounting for the traced benchmark run.

A :class:`Tracer` records one :class:`Span` per timed call: its name, start
and end, the span that caused it and the operation (one lifecycle or one
served submission) and iteration it belongs to.  Parents come from a
per-thread stack; work handed to another thread can :meth:`Tracer.adopt`
the submitting thread's current span as its parent.  A layer's self time
is its duration minus the *union* of its children's intervals, so children
that overlap are never subtracted twice.

Detached spans run concurrently with the thread that caused them: work
adopted by a pool thread, or an interval that is not a call frame at all
(an out-of-process task from submit to completion).  They are reported
per layer but take no part in self-time accounting, which therefore
partitions the time of the operation's own thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed interval."""

    index: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    iteration: Optional[int] = None
    detached: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------ context
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_op(self) -> Optional[str]:
        top = self.current()
        return top.op if top is not None else getattr(self._local, "op", None)

    @contextmanager
    def bind(self, op: str) -> Iterator[None]:
        """Attribute root spans started on this thread to operation ``op``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = previous

    @contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Run the body on this thread as detached work caused by ``parent``."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        previous = getattr(self._local, "detached", False)
        self._local.detached = True
        try:
            yield
        finally:
            self._local.detached = previous
            stack.pop()

    # ------------------------------------------------------------------ recording
    def start(self, name: str, iteration: Optional[int] = None) -> Span:
        parent = self.current()
        with self._lock:
            span = Span(
                index=len(self.spans),
                name=name,
                start=self.clock(),
                parent=parent.index if parent is not None else None,
                op=parent.op if parent is not None else getattr(self._local, "op", None),
                iteration=(
                    iteration
                    if iteration is not None
                    else (parent.iteration if parent is not None else None)
                ),
                detached=getattr(self._local, "detached", False),
            )
            self.spans.append(span)
        self._stack().append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        # Pop through the span even if an inner span leaked (an exception
        # escaping a wrapper between start and finish).
        while stack:
            if stack.pop() is span:
                break

    @contextmanager
    def span(self, name: str, iteration: Optional[int] = None) -> Iterator[Span]:
        span = self.start(name, iteration=iteration)
        try:
            yield span
        finally:
            self.finish(span)

    def record_interval(self, name: str, start: float, end: float, op: Optional[str]) -> Span:
        """Record a detached interval (not a call frame on any thread)."""
        with self._lock:
            span = Span(
                index=len(self.spans), name=name, start=start, end=end, op=op, detached=True
            )
            self.spans.append(span)
        return span

    def for_op(self, op: str) -> List[Span]:
        with self._lock:
            return [span for span in self.spans if span.op == op]

    def write_jsonl(self, path) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")


# ---------------------------------------------------------------------- accounting
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every attached span: duration minus what its children cover.

    Children are clipped to the parent's interval and merged before being
    subtracted, so overlapping children are not counted twice against
    their parent.
    """
    attached = [span for span in spans if not span.detached]
    children: Dict[int, List[Span]] = {}
    for span in attached:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    for span in attached:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.index, ())
        )
        result[span.index] = span.duration - covered
    return result


@dataclass
class LayerRow:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_rows(spans: Sequence[Span]) -> Dict[str, LayerRow]:
    """Per span name: call count, summed duration and summed self time."""
    selfs = self_times(spans)
    rows: Dict[str, LayerRow] = {}
    for span in spans:
        row = rows.setdefault(span.name, LayerRow())
        row.calls += 1
        row.total_s += span.duration
        row.self_s += selfs.get(span.index, 0.0)
    return rows


def unattributed(wall_s: float, spans: Sequence[Span]) -> float:
    """Traced wall time not covered by any attached span's self time.

    By construction ``sum(self times) + unattributed == wall``.  It is
    negative only if attached spans of one operation overlap in time, which
    spans recorded by one thread never do.
    """
    return wall_s - sum(self_times(spans).values())
