"""Lightweight span tracing across client → service → enclave → storage.

A *span* is one timed, named region of work with public attributes
(``with span("service.range_query", method="ebpb"): ...``).  Spans nest:
a span opened while another is active becomes its child, so one query
produces a small tree — ``service.range_query`` → ``enclave.fetch`` →
``storage.lookup`` — mirroring the paper's §9 cost decomposition of bin
fetch vs. in-enclave processing.

Since PR 7 the "currently active span" lives in a **context variable**
(:mod:`repro.telemetry.tracing`), not a tracer-local stack, and every
span carries W3C-style ``trace_id`` / ``span_id`` / ``parent_id``
identities.  That is what lets one query stay one trace across the
sharded router's thread pools and the ``--serve`` JSON-lines wire: a
span whose parent lives in *another* tracer (a shard answering the
router, a server answering a client) is linked by ``parent_id`` alone
and buffered as a **local root**; :func:`repro.telemetry.tracing.assemble`
stitches the forest back into one tree.

Durations come from an injectable clock (anything with ``now()``; the
:class:`~repro.faults.clock.VirtualClock` in tests, the real monotonic
clock by default).  Completed local-root spans land in a bounded ring
buffer (:class:`Tracer`), dumpable via ``python -m repro --trace-dump``.
When the buffer is full the oldest trace is evicted **and counted** —
``Tracer.dropped`` plus the public-size
``concealer_trace_spans_dropped_total`` counter, visible in both the
JSON and Prometheus exporters — never silently.

Span *attributes* should carry only public-size quantities (bin counts,
trapdoor counts, byte sizes): the ring buffer is operator-facing and the
same volume-hiding discipline as the metrics registry applies.  A span
that must record data-dependent context can be opened with
``secrecy=DATA_DEPENDENT``; the leakage auditor prunes such subtrees
from the public trace summary, exactly like data-dependent metric
families stay out of the public view.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.telemetry import tracing
from repro.telemetry.metrics import PUBLIC_SIZE, SECRECY_LEVELS


class _MonotonicClock:
    """The production default: real monotonic time."""

    now = staticmethod(time.monotonic)


@dataclass(slots=True)
class Span:
    """One timed region; ``children`` are spans opened inside it."""

    name: str
    attributes: dict
    start: float
    end: float | None = None
    error: str | None = None
    children: list["Span"] = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str | None = None
    secrecy: str = PUBLIC_SIZE
    # The owning tracer, for the local-root rule: identity bookkeeping,
    # not data, so it takes no part in equality or repr.
    _tracer: "Tracer | None" = field(default=None, compare=False, repr=False)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def context(self) -> tracing.SpanContext:
        """This span's wire identity (``traceparent`` source)."""
        return tracing.SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, **attributes) -> None:
        """Attach attributes discovered mid-span (public sizes only)."""
        self.attributes.update(attributes)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self) -> int:
        """Nesting depth of the deepest descendant (a leaf is 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree."""
        return [s for s in self.walk() if s.name == name]


class _DisabledSpan:
    """The no-op span a disabled tracer hands out (shared singleton)."""

    __slots__ = ()

    name = ""
    attributes: dict = {}
    start = 0.0
    end = 0.0
    error = None
    children: list = []
    trace_id = ""
    span_id = ""
    parent_id = None
    secrecy = PUBLIC_SIZE
    duration = 0.0

    def set(self, **attributes) -> None:
        pass

    def walk(self):
        yield self

    def depth(self) -> int:
        return 1

    def find(self, name: str) -> list:
        return []


_DISABLED_SPAN = _DisabledSpan()


class _DisabledContext:
    """Reusable context manager for the tracing-off fast path."""

    __slots__ = ()

    def __enter__(self):
        return _DISABLED_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_DISABLED_CONTEXT = _DisabledContext()


class _SpanScope:
    """The context manager :meth:`Tracer.span` returns: opens the span on
    ``__enter__`` and closes it on ``__exit__``.  A plain class, not a
    generator context manager, because every request opens dozens."""

    __slots__ = ("_tracer", "_name", "_secrecy", "_attributes", "_span",
                 "_token", "_local")

    def __init__(self, tracer: "Tracer", name: str, secrecy: str, attributes):
        self._tracer = tracer
        self._name = name
        self._secrecy = secrecy
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer, secrecy = self._tracer, self._secrecy
        if secrecy not in SECRECY_LEVELS:
            from repro.exceptions import TelemetryError

            raise TelemetryError(
                f"unknown span secrecy {secrecy!r}; use one of {SECRECY_LEVELS}"
            )
        parent = tracing._CURRENT.get()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            remote = tracing._REMOTE.get()
            if remote is not None:
                trace_id, parent_id = remote.trace_id, remote.span_id
            else:
                trace_id, parent_id = tracing.new_trace_id(), None
        # Positional, in field order: keywords cost a tenth of a span.
        opened = Span(
            self._name, self._attributes, tracer.clock.now(), None, None, [],
            trace_id, tracing.new_span_id(), parent_id, secrecy, tracer,
        )
        # Same buffer: attach in place.  list.append is atomic under the
        # GIL, so concurrent children from sibling shard threads
        # interleave but never corrupt.
        self._local = parent is not None and parent._tracer is tracer
        if self._local:
            parent.children.append(opened)
        self._span = opened
        self._token = tracing._CURRENT.set(opened)
        return opened

    def __exit__(self, kind, error, traceback) -> None:
        opened = self._span
        if kind is not None:
            opened.error = kind.__name__
        opened.end = self._tracer.clock.now()
        tracing._CURRENT.reset(self._token)
        if not self._local:
            self._tracer._record_root(opened)


# (registry, child) of ``concealer_trace_spans_dropped_total``, resolved
# once per ambient registry rather than once per evicted root.
_DROPPED = (None, None)


def _dropped_counter():
    # telemetry.__init__ imports this module, so it is read from
    # sys.modules.  The counter is public-size: it counts buffer
    # pressure (a function of query volume), never row data.
    global _DROPPED
    registry = sys.modules["repro.telemetry"].get_registry()
    cached_registry, child = _DROPPED
    if cached_registry is not registry:
        child = registry.counter(
            "concealer_trace_spans_dropped_total",
            "root spans evicted from a full trace ring buffer",
            secrecy=PUBLIC_SIZE,
        ).default()
        _DROPPED = (registry, child)
    return child


class Tracer:
    """Builds span trees and keeps the last ``capacity`` completed traces.

    >>> from repro.faults.clock import VirtualClock
    >>> clock = VirtualClock()
    >>> tracer = Tracer(clock=clock)
    >>> with tracer.span("outer") as outer:
    ...     clock.sleep(1.0)
    ...     with tracer.span("inner"):
    ...         clock.sleep(0.5)
    >>> outer.duration
    1.5
    >>> [s.name for s in tracer.traces()[0].walk()]
    ['outer', 'inner']
    """

    def __init__(self, clock=None, capacity: int = 64, enabled: bool = True):
        self.clock = clock if clock is not None else _MonotonicClock()
        self.enabled = enabled
        self._capacity = capacity
        self._traces: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def span(self, name: str, secrecy: str = PUBLIC_SIZE, **attributes):
        """Open one span; joins the context's current trace, if any.

        Parentage comes from :mod:`repro.telemetry.tracing`'s context
        variables: the innermost open span (any tracer), else a remote
        ``traceparent`` parent, else a fresh trace.  A span whose parent
        records into a *different* tracer is kept out of that parent's
        ``children`` (the buffers live in different processes in the
        ``--serve`` deployment) and lands in this tracer's ring buffer
        as a local root, to be re-grafted by ``tracing.assemble``.
        """
        if not self.enabled:
            return _DISABLED_CONTEXT
        return _SpanScope(self, name, secrecy, attributes)

    def _record_root(self, root: Span) -> None:
        with self._lock:
            dropped_now = bool(self._capacity) and len(self._traces) == self._capacity
            if dropped_now:
                self.dropped += 1
            self._traces.append(root)
        if dropped_now:
            _dropped_counter().inc()

    def current(self) -> Span | None:
        """The innermost open span recording into *this* tracer."""
        span = tracing.current_span()
        if span is not None and span._tracer is self:
            return span
        return None

    def traces(self) -> list[Span]:
        """Completed local-root spans, oldest first."""
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        """Drop all completed traces (open spans are unaffected)."""
        with self._lock:
            self._traces.clear()


def format_span(span: Span, indent: int = 0) -> list[str]:
    """Render one span subtree as indented text lines."""
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
    suffix = f"  [{attrs}]" if attrs else ""
    error = f"  !{span.error}" if span.error else ""
    lines = [
        f"{'  ' * indent}{span.name}  {span.duration * 1000:.3f}ms{error}{suffix}"
    ]
    for child in span.children:
        lines.extend(format_span(child, indent + 1))
    return lines


def format_trace_tree(root: Span) -> str:
    """Render one assembled trace: header line plus the span tree."""
    stages = tracing.stage_timings(root)
    header = f"trace {root.trace_id}:"
    if stages:
        header += "  stages " + " ".join(
            f"{stage}={seconds * 1000:.3f}ms"
            for stage, seconds in sorted(stages.items())
        )
    return "\n".join([header] + format_span(root, indent=1))


def format_traces(tracer: Tracer, limit: int | None = None) -> str:
    """Render the ring buffer's traces, newest last."""
    traces = tracer.traces()
    if limit is not None:
        traces = traces[-limit:]
    if not traces:
        return "(no completed traces)"
    blocks = []
    for position, root in enumerate(traces):
        blocks.append(f"trace {position}:")
        blocks.extend(format_span(root, indent=1))
    if tracer.dropped:
        blocks.append(f"({tracer.dropped} older trace(s) dropped)")
    return "\n".join(blocks)
