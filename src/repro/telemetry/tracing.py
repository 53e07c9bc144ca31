"""Trace-context propagation: one trace across threads, shards, the wire.

PR 2's spans nest via an implicit stack, which works inside one thread
of one process.  The sharded fleet broke that: a range query fans out
over per-shard thread pools (and, under ``--serve``, over a JSON-lines
TCP hop), so one query used to produce N+1 disconnected span trees.
This module is the glue that keeps them one trace:

- :class:`SpanContext` — the W3C-``traceparent``-shaped identity of a
  span (``00-<trace_id>-<span_id>-01``), serializable over any hop;
- context variables carrying the *current* span and any *remote* parent,
  so spans opened on another thread (after :func:`propagate`) or behind
  the wire (after :func:`activate`) still join the caller's trace;
- :func:`assemble` — grafts the disconnected local-root subtrees each
  process/shard buffered back into whole trees by ``parent_id``;
- :func:`public_trace_summary` — the leakage-audit view of a trace
  forest: names, structure, public attributes and ids, **no timings**.

Leakage discipline (SECURITY.md item 10): trace and span ids come from a
process-local monotonic **counter**, never from query content, key
material, or row data.  The id sequence is therefore a pure function of
public control flow — two equal-public-view runs allocate identical ids,
which :func:`scoped_ids` makes directly testable.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import TelemetryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import Span, Tracer

TRACEPARENT_VERSION = "00"
TRACE_FLAGS = "01"

# The identity of the span that is *currently open* in this execution
# context (thread / asyncio task), and the remote parent injected from a
# deserialized traceparent.  ContextVars — not a tracer-local stack — so
# propagation across thread pools and tasks is explicit and re-entrant.
_CURRENT: ContextVar["Span | None"] = ContextVar(
    "concealer_current_span", default=None
)
_REMOTE: ContextVar["SpanContext | None"] = ContextVar(
    "concealer_remote_parent", default=None
)
# The tracer spans should record into in this execution context; falls
# back to the process-ambient tracer when unset (see telemetry.get_tracer).
_BOUND_TRACER: ContextVar["Tracer | None"] = ContextVar(
    "concealer_bound_tracer", default=None
)


@dataclass(frozen=True)
class SpanContext:
    """The wire-serializable identity of one span within one trace."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str   # 16 lowercase hex chars

    def traceparent(self) -> str:
        """W3C-style header value: ``00-<trace_id>-<span_id>-01``."""
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}"
            f"-{TRACE_FLAGS}"
        )

    @classmethod
    def parse(cls, header: str) -> "SpanContext":
        """Parse a ``traceparent`` value; raises TelemetryError if malformed."""
        parts = str(header).split("-")
        if len(parts) != 4:
            raise TelemetryError(f"malformed traceparent {header!r}")
        version, trace_id, span_id, _flags = parts
        if version != TRACEPARENT_VERSION:
            raise TelemetryError(f"unsupported traceparent version {version!r}")
        if len(trace_id) != 32 or len(span_id) != 16:
            raise TelemetryError(f"malformed traceparent ids in {header!r}")
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            raise TelemetryError(
                f"non-hex traceparent ids in {header!r}"
            ) from None
        return cls(trace_id=trace_id, span_id=span_id)


# ------------------------------------------------------------ id allocation


# ``next()`` on an ``itertools.count`` is one C call, atomic under the
# GIL, so concurrent shard threads never share an id.  Public by
# construction: the sequence is a function of *how many spans were
# opened*, never of what they saw.
_IDS = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id off the public counter."""
    return f"{next(_IDS):032x}"


def new_span_id() -> str:
    """A fresh 16-hex-char span id off the public counter."""
    return f"{next(_IDS):016x}"


@contextmanager
def scoped_ids(start: int = 1):
    """Swap in a fresh id counter for the ``with`` body.

    The leakage auditor runs each workload under ``scoped_ids()`` so two
    equal-public-view runs allocate the *same* id sequence — turning
    "ids derive from a public counter" from a claim into an assertion.
    """
    global _IDS
    previous = _IDS
    _IDS = itertools.count(start)
    try:
        yield
    finally:
        _IDS = previous


# ------------------------------------------------------- context accessors


def current_span() -> "Span | None":
    """The innermost open span in this execution context, if any."""
    return _CURRENT.get()


def current_context() -> SpanContext | None:
    """The :class:`SpanContext` a newly opened span would join."""
    span = _CURRENT.get()
    if span is not None:
        return SpanContext(trace_id=span.trace_id, span_id=span.span_id)
    return _REMOTE.get()


def current_trace_id() -> str | None:
    """The active trace id (for exemplars), or ``None`` outside a trace."""
    span = _CURRENT.get()
    if span is not None:
        return span.trace_id
    remote = _REMOTE.get()
    return remote.trace_id if remote is not None else None


def current_traceparent() -> str | None:
    """The serialized header to send with an outbound request, if any."""
    context = current_context()
    return context.traceparent() if context is not None else None


def annotate(**attributes) -> None:
    """Attach attributes to the current span, if one is open.

    The fault injector and retry policy use this to stamp chaos events
    onto whatever query span happens to be active — without needing a
    span handle threaded through every call site.
    """
    span = _CURRENT.get()
    if span is not None:
        span.set(**attributes)


class _Bound:
    """Set a context variable for a ``with`` body and reset it after;
    a ``None`` value leaves the variable alone.  A plain class, not a
    generator context manager: it wraps every request."""

    __slots__ = ("_var", "_value", "_token")

    def __init__(self, var: ContextVar, value):
        self._var = var
        self._value = value

    def __enter__(self) -> None:
        if self._value is not None:
            self._token = self._var.set(self._value)

    def __exit__(self, *exc) -> None:
        if self._value is not None:
            self._var.reset(self._token)


def activate(context: SpanContext | None) -> _Bound:
    """Adopt a deserialized remote parent for the ``with`` body.

    Spans opened inside join ``context``'s trace as children of the
    remote span.  ``None`` is allowed (no-op) so servers can wrap every
    request handler unconditionally.
    """
    return _Bound(_REMOTE, context)


@dataclass(frozen=True)
class CapturedContext:
    """A snapshot of the trace context at one call site."""

    parent: "Span | None"
    remote: SpanContext | None
    tracer: "Tracer | None"


def capture() -> CapturedContext:
    """Snapshot the trace context for a later :func:`propagate` hop."""
    return CapturedContext(
        parent=_CURRENT.get(), remote=_REMOTE.get(), tracer=_BOUND_TRACER.get()
    )


def propagate(fn, captured: CapturedContext | None = None, tracer=None):
    """Wrap ``fn`` so it runs under a captured trace context.

    ``ThreadPoolExecutor`` / ``loop.run_in_executor`` do **not** carry
    context variables onto worker threads — every thread hop in the
    router wraps its thunk with ``propagate`` (capturing at submit time)
    so the shard-side spans join the router's trace.  ``tracer``
    additionally binds a destination tracer (the shard's own buffer) for
    the duration of the call.  Safe to invoke concurrently (hedged
    dispatch runs primary and hedge at once): each call sets and resets
    its own tokens on its own thread's context.
    """
    snapshot = captured if captured is not None else capture()
    bound = tracer if tracer is not None else snapshot.tracer

    def wrapper(*args, **kwargs):
        tokens = [
            (_CURRENT, _CURRENT.set(snapshot.parent)),
            (_REMOTE, _REMOTE.set(snapshot.remote)),
            (_BOUND_TRACER, _BOUND_TRACER.set(bound)),
        ]
        try:
            return fn(*args, **kwargs)
        finally:
            for var, token in reversed(tokens):
                var.reset(token)

    return wrapper


def bind_tracer(tracer: "Tracer | None") -> _Bound:
    """Route spans in this execution context into ``tracer``.

    ``None`` is a no-op (keep the ambient tracer), so call sites can
    write ``with bind_tracer(shard.tracer):`` without a conditional.
    """
    return _Bound(_BOUND_TRACER, tracer)


def bound_tracer() -> "Tracer | None":
    """The context-bound tracer, or ``None`` when unbound."""
    return _BOUND_TRACER.get()


# --------------------------------------------------------- serialization


def span_to_dict(span: "Span") -> dict:
    """One span subtree as plain JSON-able dicts (the wire format)."""
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "error": span.error,
        "secrecy": span.secrecy,
        "attributes": dict(span.attributes),
        "children": [span_to_dict(child) for child in span.children],
    }


def span_from_dict(payload: dict) -> "Span":
    """Rebuild a span subtree from :func:`span_to_dict` output."""
    from repro.telemetry.spans import Span

    span = Span(
        name=payload.get("name", ""),
        attributes=dict(payload.get("attributes", {})),
        start=payload.get("start", 0.0),
        end=payload.get("end"),
        error=payload.get("error"),
        trace_id=payload.get("trace_id", ""),
        span_id=payload.get("span_id", ""),
        parent_id=payload.get("parent_id"),
        secrecy=payload.get("secrecy", "public-size"),
    )
    span.children = [
        span_from_dict(child) for child in payload.get("children", [])
    ]
    return span


def assemble(roots: Iterable["Span"]) -> list["Span"]:
    """Graft disconnected local-root subtrees into whole trace trees.

    Each process (router) and each shard buffers only *local* roots —
    subtrees whose parent lives in another tracer, linked by
    ``parent_id`` alone.  Given every buffered root, this stitches
    children under their parents (in ascending start order for
    determinism) and returns the true roots, oldest first.  Inputs are
    deep-copied; the per-tracer buffers are never mutated.
    """
    copies = [span_from_dict(span_to_dict(root)) for root in roots]
    by_span_id: dict[str, "Span"] = {}
    for copy in copies:
        for node in copy.walk():
            by_span_id[node.span_id] = node
    orphans: list["Span"] = []
    for copy in copies:
        parent = (
            by_span_id.get(copy.parent_id)
            if copy.parent_id is not None
            else None
        )
        if parent is not None and parent is not copy:
            parent.children.append(copy)
        else:
            orphans.append(copy)
    for node in by_span_id.values():
        node.children.sort(key=lambda child: (child.start, child.span_id))
    orphans.sort(key=lambda root: (root.start, root.span_id))
    return orphans


def find_trace(roots: Iterable["Span"], trace_id: str) -> "Span | None":
    """The assembled tree for ``trace_id``, or ``None`` if unknown."""
    for root in assemble(roots):
        if root.trace_id == trace_id:
            return root
    return None


# ------------------------------------------------------- public summaries


def public_span_summary(span: "Span") -> dict | None:
    """The leakage-audit view of one subtree: structure, not timings.

    Includes span names, ids, error types, and attributes of
    ``public-size`` spans; excludes every duration/timestamp (timing is
    a side channel) and prunes subtrees explicitly tagged
    ``data-dependent``.  Children are sorted canonically so thread
    interleaving cannot make two equal runs *look* different.
    """
    from repro.telemetry.metrics import PUBLIC_SIZE

    if span.secrecy != PUBLIC_SIZE:
        return None
    children = [public_span_summary(child) for child in span.children]
    summary = {
        "name": span.name,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "error": span.error,
        "attributes": {
            key: span.attributes[key] for key in sorted(span.attributes)
        },
        "children": sorted(
            (child for child in children if child is not None),
            key=lambda child: (child["name"], child["span_id"]),
        ),
    }
    return summary


def public_trace_summary(roots: Iterable["Span"]) -> list[dict]:
    """Public summaries for an assembled forest, canonically ordered."""
    summaries = [
        summary
        for summary in (
            public_span_summary(root) for root in assemble(roots)
        )
        if summary is not None
    ]
    summaries.sort(key=lambda summary: summary["trace_id"])
    return summaries


def stage_timings(root: "Span") -> dict[str, float]:
    """Total seconds per ``stage=`` attribute across one assembled tree."""
    totals: dict[str, float] = {}
    for node in root.walk():
        stage = node.attributes.get("stage")
        if stage is not None:
            totals[stage] = totals.get(stage, 0.0) + node.duration
    return totals
