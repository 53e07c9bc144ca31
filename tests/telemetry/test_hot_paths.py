"""The per-request telemetry paths keep their behaviour at their new cost.

``Tracer.span`` returns a plain scope object, ids come off an
``itertools.count`` and ``MetricFamily.labels`` memoises its lookups;
these tests pin what each of those must still do.
"""

import threading

import pytest

from repro.exceptions import TelemetryError
from repro.faults.clock import VirtualClock
from repro.telemetry import MetricsRegistry, Tracer, tracing
from repro.telemetry.spans import _DISABLED_SPAN


@pytest.fixture
def tracer():
    return Tracer(clock=VirtualClock())


class TestSpanScope:
    def test_exception_sets_error_and_reraises(self, tracer):
        with pytest.raises(KeyError):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise KeyError("x")
        assert inner.error == "KeyError"
        assert outer.error == "KeyError"
        assert inner.end is not None and outer.end is not None
        assert tracing.current_span() is None
        assert tracer.traces() == [outer]

    def test_cross_tracer_parent_makes_a_local_root(self, tracer):
        other = Tracer(clock=VirtualClock())
        with other.span("router.query") as parent:
            with tracer.span("shard.dispatch") as child:
                pass
        assert parent.children == []
        assert child.parent_id == parent.span_id
        assert child.trace_id == parent.trace_id
        assert tracer.traces() == [child]
        assert other.traces() == [parent]

    def test_disabled_tracer_returns_the_shared_no_op(self):
        disabled = Tracer(enabled=False)
        first, second = disabled.span("a"), disabled.span("b", bins=3)
        assert first is second
        with first as span:
            assert span is _DISABLED_SPAN
            assert tracing.current_span() is None
        assert disabled.traces() == []

    def test_bad_secrecy_still_raises_typed(self, tracer):
        with pytest.raises(TelemetryError, match="unknown span secrecy"):
            with tracer.span("x", secrecy="secret"):
                pass
        assert tracing.current_span() is None
        assert tracer.traces() == []

    def test_a_scope_owns_no_state_across_uses(self, tracer):
        for _ in range(3):
            with tracer.span("root", bins=1) as root:
                pass
            assert root.attributes == {"bins": 1}
        assert [span.name for span in tracer.traces()] == ["root"] * 3


class TestLabelsMemo:
    @pytest.fixture
    def family(self):
        return MetricsRegistry().counter("demo_total", labels=("kind", "method"))

    @pytest.mark.parametrize(
        "labels",
        [
            {"kind": "point"},
            {"kind": "point", "method": "tree", "extra": "x"},
            {"kind": "point", "methd": "tree"},
            {},
        ],
        ids=["missing", "extra", "misnamed", "none"],
    )
    def test_wrong_label_sets_still_raise(self, family, labels):
        family.labels(kind="point", method="tree").inc()
        with pytest.raises(TelemetryError, match="takes labels"):
            family.labels(**labels)
        # A miss that raised leaves nothing behind to hit next time.
        with pytest.raises(TelemetryError):
            family.labels(**labels)

    def test_kwargs_order_does_not_matter(self, family):
        family.labels(kind="range", method="tree").inc()
        family.labels(method="tree", kind="range").inc(2)
        assert family.labels(kind="range", method="tree").value == 3
        assert list(family.children) == [("range", "tree")]

    def test_adversarial_values_stay_capped(self):
        family = MetricsRegistry(max_label_values=16).counter(
            "demo_total", labels=("kind",)
        )
        for value in range(10_000):
            family.labels(kind=f"attacker-{value}").inc()
        assert len(family.children) <= 16 + 1
        assert len(family._memo) <= 16 + 1
        assert family.labels(kind="attacker-0").value == 1
        assert family.labels(kind="never-seen").value == 10_000 - 16

    def test_str_conversion_still_names_the_child(self, family):
        family.labels(kind=7, method="tree").inc()
        assert family.labels(kind="7", method="tree").value == 1


def test_span_ids_stay_unique_across_threads():
    tracer = Tracer(clock=VirtualClock(), capacity=0)
    ids: list[list[str]] = [[] for _ in range(8)]
    start = threading.Barrier(8)

    def work(out):
        start.wait()
        for _ in range(2_000):
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    pass
            out.extend((root.trace_id, root.span_id, child.span_id))

    threads = [threading.Thread(target=work, args=(out,)) for out in ids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    allocated = [int(value, 16) for out in ids for value in out]
    assert len(allocated) == 8 * 2_000 * 3
    assert len(set(allocated)) == len(allocated)
