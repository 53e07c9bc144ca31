"""The leakage auditor: equal-public-size runs, and catching mislabels.

Two datasets with *identical* (location, timestamp) multisets but
disjoint device populations have equal public size: volume hiding
promises the host-observable accounting (bins, trapdoors, rows fetched,
EPC) is identical across them.  The auditor asserts exactly that — and
a deliberately "mislabeled" data-dependent metric must make it fail.
"""

import pytest

from repro import GridSpec, telemetry
from repro.core.queries import PointQuery, Predicate, RangeQuery
from repro.exceptions import LeakageAuditError
from repro.faults.clock import VirtualClock
from repro.storage.checkpoint import checkpoint_engine
from repro.telemetry import (
    MetricsRegistry,
    PUBLIC_SIZE,
    assert_equal_public_view,
    audit_run,
    diff_public_views,
    public_view,
)
from repro.telemetry.audit import AuditReport
from tests.conftest import make_stack

EPOCH_DURATION = 600
_LOCATIONS = tuple(f"ap{i}" for i in range(4))
_SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


def _records(prefix: str, devices: int = 6) -> list[tuple[str, int, str]]:
    """One tiny epoch whose (location, timestamp) multiset is independent
    of ``prefix`` and ``devices`` — only the device names differ between
    datasets (``devices=1``: every row has the same device)."""
    return [
        (_LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d % devices}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _workload(records):
    """The same public-shape query mix over one dataset.

    The device predicate names ``A0`` *literally* in both runs: it
    matches rows in the A dataset and nothing in the B dataset, so the
    (enclave-private) match counts diverge while every host-observable
    quantity stays identical.
    """

    def run():
        provider, service = make_stack(_SPEC, records)
        point = service.execute_point(
            PointQuery(index_values=("ap0",), timestamp=60)
        )[0]
        ranged = service.execute_range(
            RangeQuery(index_values=("ap1",), time_start=0, time_end=300),
            method="multipoint",
        )[0]
        tracked = service.execute_range(
            RangeQuery(
                index_values=("ap0",),
                time_start=0,
                time_end=EPOCH_DURATION - 60,
                predicate=Predicate(group=("observation",), values=("A0",)),
            ),
            method="multipoint",
        )[0]
        return (point, ranged, tracked)

    return run


@pytest.fixture(scope="module")
def reports():
    report_a = audit_run(_workload(_records("A")))
    report_b = audit_run(_workload(_records("B")))
    return report_a, report_b


class TestAuditor:
    def test_equal_public_size_runs_pass(self, reports):
        report_a, report_b = reports
        # Device-blind answers agree; the device-tracking one diverges
        # (3 matches in A, none in B) — yet the audit still passes,
        # because match counts are data-dependent, not public.
        assert report_a.result[:2] == report_b.result[:2]
        assert report_a.result[2] != report_b.result[2]
        assert_equal_public_view(report_a, report_b)

    def test_the_views_compare_real_metrics(self, reports):
        report_a, _ = reports
        view = report_a.public_view()
        assert "concealer_rows_fetched_total" in view
        assert "concealer_trapdoors_total" in view
        # Data-dependent families never enter the public view.
        assert "concealer_rows_matched_total" not in view
        assert "concealer_query_seconds" not in view

    def test_mislabeled_metric_is_caught(self, reports):
        report_a, report_b = reports
        # Force the auditor to treat the (data-dependent) match counter
        # as if it had been registered public-size: the divergent device
        # predicate must now trip the audit.
        mislabel = ("concealer_rows_matched_total",)
        assert (
            report_a.registry.total("concealer_rows_matched_total")
            != report_b.registry.total("concealer_rows_matched_total")
        )
        with pytest.raises(LeakageAuditError) as excinfo:
            assert_equal_public_view(
                report_a, report_b, extra_public=mislabel
            )
        assert "concealer_rows_matched_total" in str(excinfo.value)


class TestPublicView:
    def test_filters_by_secrecy_tag(self):
        registry = MetricsRegistry()
        registry.counter("pub_total", secrecy=PUBLIC_SIZE).inc(3)
        registry.counter("priv_total").inc(5)
        view = public_view(registry)
        assert view == {"pub_total": {(): 3}}
        forced = public_view(registry, extra_public=("priv_total",))
        assert forced["priv_total"] == {(): 5}

    def test_histograms_contribute_buckets_and_sum(self):
        registry = MetricsRegistry()
        registry.histogram(
            "bytes", secrecy=PUBLIC_SIZE, boundaries=(10.0,)
        ).observe(4)
        view = public_view(registry)
        assert view["bytes"][()] == ((1, 0), 1, 4)

    def test_diff_reports_missing_and_unequal(self):
        problems = diff_public_views(
            {"a_total": {(): 1}, "b_total": {("x",): 2}},
            {"b_total": {("x",): 3}},
        )
        assert any("a_total" in p and "absent" in p for p in problems)
        assert any("b_total" in p and "2 != 3" in p for p in problems)
        assert diff_public_views({"a_total": {(): 1}}, {"a_total": {(): 1}}) == []


class TestAuditRun:
    def test_isolates_the_ambient_registry(self):
        def workload():
            telemetry.counter("audit_only_total").inc(7)
            return "done"

        report = audit_run(workload)
        assert report.result == "done"
        assert report.registry.value("audit_only_total") == 7
        assert telemetry.get_registry().get("audit_only_total") is None

    def test_threads_a_virtual_clock_into_the_scoped_tracer(self):
        clock = VirtualClock()
        spans = []

        def workload():
            with telemetry.span("timed") as span:
                clock.sleep(2.0)
                spans.append(span)

        audit_run(workload, clock=clock)
        assert spans[0].duration == 2.0

    def test_report_type(self):
        assert isinstance(audit_run(lambda: None), AuditReport)


class TestCheckpointSize:
    """A sealed table checkpoints as its bins whole — fixed-width column
    blobs and row ids — and loose rows (an oblivious service's, a
    sidecar-less epoch's) as tuples pickled without a memo, so the
    payload size, tagged public on ``concealer_checkpoint_bytes`` and
    on the ``storage.checkpoint`` span, is equal across datasets of
    equal public size: a one-device twin, whose device ciphertexts all
    repeat, included."""

    def test_equal_public_size_datasets_checkpoint_to_equal_bytes(self, tmp_path):
        self._twins_checkpoint_alike(tmp_path)

    @pytest.mark.parametrize(
        "stack", [{"oblivious": True}, {"sidecar": False}], ids=["oblivious", "sidecar-less"]
    )
    def test_loose_rows_checkpoint_to_equal_bytes(self, tmp_path, stack):
        self._twins_checkpoint_alike(tmp_path, **stack)

    @staticmethod
    def _twins_checkpoint_alike(tmp_path, **stack):
        def checkpointed(records, name):
            def run():
                _, service = make_stack(_SPEC, records, **stack)
                return checkpoint_engine(service.engine, tmp_path / name).stat().st_size

            return audit_run(run)

        reports = [
            checkpointed(_records("A"), "a"),
            checkpointed(_records("B"), "b"),
            checkpointed(_records("A", devices=1), "one"),
        ]
        assert len({report.result for report in reports}) == 1
        for other in reports[1:]:
            assert_equal_public_view(reports[0], other)
            assert other.trace_summary() == reports[0].trace_summary()
