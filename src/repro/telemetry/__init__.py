"""``repro.telemetry`` — metrics, spans, and the leakage-audit ledger.

Zero-dependency observability for the whole stack, in three pieces:

- :mod:`repro.telemetry.metrics` — a registry of counters, gauges and
  fixed-bucket histograms, each family carrying a *secrecy tag*
  (:data:`PUBLIC_SIZE` vs :data:`DATA_DEPENDENT`), exportable as JSON or
  Prometheus text;
- :mod:`repro.telemetry.spans` — nested span tracing with durations off
  an injectable clock and a ring buffer of recent traces;
- :mod:`repro.telemetry.audit` — the auditor asserting that two
  equal-public-size runs produce identical public-size metrics, turning
  the observability layer into a volume-hiding regression check.

Instrumentation sites talk to an **ambient** registry and tracer (the
same pattern as :func:`repro.enclave.trace.ambient_recorder`), so no
constructor anywhere needs a telemetry parameter; tests and the auditor
swap the ambient objects with :func:`scoped_registry` /
:func:`scoped_tracer`.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.telemetry.audit import (
    AuditReport,
    assert_equal_public_view,
    assert_equal_trace_view,
    audit_run,
    diff_public_views,
    public_view,
)
from repro.telemetry.metrics import (
    DATA_DEPENDENT,
    DEFAULT_LABEL_CARDINALITY,
    OVERFLOW_LABEL,
    PUBLIC_SIZE,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.spans import (
    _DISABLED_CONTEXT,
    Span,
    Tracer,
    _SpanScope,
    format_span,
    format_trace_tree,
    format_traces,
)
from repro.telemetry import tracing
from repro.telemetry.slo import (
    BurnRule,
    SLOAlert,
    SLObjective,
    SLOMonitor,
)
from repro.telemetry.tracing import (
    SpanContext,
    activate,
    annotate,
    assemble,
    bind_tracer,
    capture,
    current_trace_id,
    current_traceparent,
    propagate,
    public_trace_summary,
    scoped_ids,
)

__all__ = [
    "AuditReport",
    "Counter",
    "DATA_DEPENDENT",
    "DEFAULT_LABEL_CARDINALITY",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "OVERFLOW_LABEL",
    "PUBLIC_SIZE",
    "BurnRule",
    "SLOAlert",
    "SLObjective",
    "SLOMonitor",
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "annotate",
    "assemble",
    "assert_equal_public_view",
    "assert_equal_trace_view",
    "audit_run",
    "bind_tracer",
    "capture",
    "counter",
    "current_trace_id",
    "current_traceparent",
    "diff_public_views",
    "format_span",
    "format_trace_tree",
    "format_traces",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "propagate",
    "public_trace_summary",
    "public_view",
    "scoped_ids",
    "scoped_registry",
    "scoped_tracer",
    "set_registry",
    "set_tracer",
    "span",
    "tracing",
]

_registry = MetricsRegistry()
_tracer = Tracer()


# ------------------------------------------------------------------ ambient


def get_registry() -> MetricsRegistry:
    """The ambient registry instrumentation sites write into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the ambient registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def get_tracer() -> Tracer:
    """The tracer spans open against.

    Context-bound first (``bind_tracer`` — how the router routes a
    shard's spans into that shard's own buffer), then the process
    ambient.
    """
    bound = tracing.bound_tracer()
    return bound if bound is not None else _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the ambient tracer; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None):
    """Swap in a fresh (or given) registry for the ``with`` body.

    The auditor and per-run reports (chaos, benchmarks) use this to
    measure one workload in isolation from ambient history.
    """
    scoped = registry if registry is not None else MetricsRegistry()
    previous = set_registry(scoped)
    try:
        yield scoped
    finally:
        set_registry(previous)


@contextmanager
def scoped_tracer(tracer: Tracer | None = None, clock=None):
    """Swap in a fresh (or given) tracer for the ``with`` body."""
    scoped = tracer if tracer is not None else Tracer(clock=clock)
    previous = set_tracer(scoped)
    try:
        yield scoped
    finally:
        set_tracer(previous)


# ------------------------------------------------------- ambient shorthands


def counter(
    name: str,
    help: str = "",
    secrecy: str = DATA_DEPENDENT,
    labels: tuple[str, ...] = (),
) -> MetricFamily:
    """Get-or-create a counter family on the ambient registry."""
    return _registry._family(name, "counter", help, secrecy, labels)


def gauge(
    name: str,
    help: str = "",
    secrecy: str = DATA_DEPENDENT,
    labels: tuple[str, ...] = (),
) -> MetricFamily:
    """Get-or-create a gauge family on the ambient registry."""
    return _registry._family(name, "gauge", help, secrecy, labels)


def histogram(
    name: str,
    help: str = "",
    secrecy: str = DATA_DEPENDENT,
    labels: tuple[str, ...] = (),
    boundaries: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0),
) -> MetricFamily:
    """Get-or-create a histogram family on the ambient registry."""
    return _registry._family(name, "histogram", help, secrecy, labels, boundaries)


def span(name: str, secrecy: str = PUBLIC_SIZE, **attributes):
    """Open a span on the context's tracer (context manager).

    :meth:`Tracer.span` with :func:`get_tracer` inlined: every request
    opens dozens of spans, and each saved call counts.
    """
    tracer = tracing._BOUND_TRACER.get()
    if tracer is None:
        tracer = _tracer
    if not tracer.enabled:
        return _DISABLED_CONTEXT
    return _SpanScope(tracer, name, secrecy, attributes)
