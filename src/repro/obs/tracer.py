"""Deterministic structured tracer with bounded-memory span collection.

Design constraints, in priority order:

1. **Determinism.**  Span timestamps come from the tracer's *own* monotone
   tick counter (one tick per begin/end/instant event), never from the
   engine's injected clock — every reading of that clock advances virtual
   time, so a tracer that consulted it would change the very latency numbers
   it is observing.  The engine's cycle counter travels as a span *argument*
   instead.  Two runs of the same deterministic schedule therefore produce
   byte-identical span streams on any host.
2. **Zero cost when disabled.**  Tracing is off when the tracer is
   ``None``, the default of every instrumented signature; instrumentation
   sites guard with ``if tracer is not None:`` (or a flag hoisted from it,
   mirroring the engine's ``faults_on`` idiom), so the disabled path costs
   one comparison per site.
3. **Bounded memory.**  Finished spans land in a ring buffer
   (``deque(maxlen=capacity)``); once full, the oldest spans are dropped and
   counted in :attr:`SpanTracer.dropped` so exports can say so honestly.

Spans form a hierarchy: a context-manager :meth:`SpanTracer.span` nests via
an internal stack, while :meth:`SpanTracer.begin` / :meth:`SpanTracer.end`
accept an explicit parent for work that does not nest (a service batch stays
open across the write and fault events that follow its dispatch).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Default ring-buffer capacity (finished spans kept).
DEFAULT_CAPACITY = 65536


@dataclass
class Span:
    """One traced operation: a named interval in tracer ticks.

    ``begin == end`` marks an instant event.  ``args`` carries the
    deterministic attributes of the operation (engine cycle, shard id,
    batch size, probe counts, ...).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    cat: str
    begin: int
    end: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return (self.end if self.end is not None else self.begin) - self.begin


class SpanTracer:
    """Collecting tracer: hierarchical spans in a bounded ring buffer.

    Intended for single-threaded (coordinator-side) use — the service
    engine, ``SpannerLCA.materialize`` and the report runner all emit spans
    from one thread, which is what keeps span order deterministic.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self._finished: deque = deque(maxlen=self.capacity)
        self._stack: List[Span] = []
        self._ticks = 0
        self._next_id = 0
        #: Spans evicted from the full ring buffer (oldest first).
        self.dropped = 0

    # -- clock / ids -------------------------------------------------------
    def _tick(self) -> int:
        self._ticks += 1
        return self._ticks

    def _new_span(self, name, cat, parent_id, args) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=str(name),
            cat=str(cat),
            begin=self._tick(),
            args=dict(args),
        )
        self._next_id += 1
        return span

    def _current_parent(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    def _collect(self, span: Span) -> None:
        if len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(span)

    # -- span API ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, cat: str = "run", **args) -> Iterator[Span]:
        """Open a nested span for the duration of the ``with`` block."""
        span = self._new_span(name, cat, self._current_parent(), args)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self._tick()
            self._collect(span)

    def begin(self, name: str, cat: str = "run", parent: Optional[Span] = None, **args) -> Span:
        """Open a span that may outlive LIFO nesting (explicit parent).

        ``parent=None`` attaches to the innermost open context-manager span,
        so a service batch still hangs off the run's root span.
        """
        parent_id = parent.span_id if parent is not None else self._current_parent()
        return self._new_span(name, cat, parent_id, args)

    def end(self, span: Span, **args) -> None:
        """Close a span opened with :meth:`begin`."""
        if args:
            span.args.update(args)
        span.end = self._tick()
        self._collect(span)

    def instant(self, name: str, cat: str = "event", **args) -> None:
        """Record a zero-duration event at the current stack position."""
        span = self._new_span(name, cat, self._current_parent(), args)
        span.end = span.begin
        self._collect(span)

    def finished(self) -> List[Span]:
        """Finished spans in completion order (deterministic)."""
        return list(self._finished)
