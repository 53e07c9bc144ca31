"""Leakage audit: trapdoor memoization must not add a data channel.

Mirror of the PR-4 bin-cache audit.  Hits and misses on the
TrapdoorTable are keyed by ``(epoch, table, kind, id, counter)`` slots
— the same slots the storage access log reveals when trapdoors go out
as index-lookup keys — so for two datasets of equal public size the
cold-then-warm telemetry must be identical, and enabling the table must
perturb only public-size families.
"""

from repro import GridSpec
from repro.core.queries import PointQuery, RangeQuery
from repro.telemetry import assert_equal_public_view, audit_run, public_view
from tests.conftest import make_stack

EPOCH_DURATION = 600
LOCATIONS = tuple(f"ap{i}" for i in range(4))
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)

TABLE_FAMILIES = (
    "concealer_trapdoor_table_hits_total",
    "concealer_trapdoor_table_misses_total",
)


def _records(prefix):
    """Equal-public-size datasets: only device names vary with prefix."""
    return [
        (LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _cold_then_warm(records):
    def run():
        # The trapdoor memo works for the trapdoor fetch only — a
        # sidecar read derives no per-row trapdoors — so this audit
        # lands the epoch without its sidecar.
        _, service = make_stack(SPEC, records, verify=True, sidecar=False)
        queries = [
            PointQuery(index_values=("ap0",), timestamp=60),
            PointQuery(index_values=("ap2",), timestamp=120),
        ]
        ranged = RangeQuery(index_values=("ap1",), time_start=0, time_end=240)
        answers = []
        for _ in range(2):  # pass 1 derives, pass 2 memo-hits
            answers.extend(service.execute_point(q)[0] for q in queries)
            answers.append(service.execute_range(ranged, method="multipoint")[0])
        return answers

    return run


class TestEqualPublicSizeDatasets:
    def test_views_identical_across_datasets(self):
        report_a = audit_run(_cold_then_warm(_records("A")))
        report_b = audit_run(_cold_then_warm(_records("B")))
        assert report_a.result == report_b.result
        assert_equal_public_view(report_a, report_b)

    def test_table_counters_are_in_the_public_view(self):
        report = audit_run(_cold_then_warm(_records("A")))
        view = report.public_view()
        for family in TABLE_FAMILIES:
            assert family in view, family
        assert report.registry.total("concealer_trapdoor_table_hits_total") > 0


class TestMemoizedVersusDisabled:
    def test_table_changes_only_public_size_families(self):
        records = _records("A")

        def once(slots):
            def run():
                _, service = make_stack(
                    SPEC, records, verify=True, trapdoor_table_slots=slots,
                    sidecar=False,
                )
                return [
                    service.execute_point(
                        PointQuery(index_values=("ap0",), timestamp=60)
                    )[0]
                    for _ in range(3)
                ]

            return run

        disabled = audit_run(once(slots=0))
        memoized = audit_run(once(slots=8192))
        assert disabled.result == memoized.result
        # Memoization is crypto-only: the storage fetch volume — the
        # host-observable access pattern — is untouched.
        assert (
            disabled.registry.total("concealer_storage_rows_read_total")
            == memoized.registry.total("concealer_storage_rows_read_total")
        )
        for name in (
            "concealer_rows_matched_total",
            "concealer_rows_decrypted_total",
        ):
            if disabled.registry.get(name) is None:
                continue
            assert name not in public_view(disabled.registry)
            assert disabled.registry.total(name) == memoized.registry.total(name)
