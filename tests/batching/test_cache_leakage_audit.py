"""Leakage audit: enclave reuse must not add a data-dependent channel.

Nothing the enclave keeps between requests (epoch contexts, the tag
and index memos) may change what the host sees.  Two claims:

1. **Across datasets** — for two datasets of equal public size
   (identical (location, timestamp) multisets, disjoint devices), a
   repeated workload (cold memos, then warm ones) emits identical
   public-size telemetry: storage reads, trapdoors, EPC.
2. **Across history** — a query repeated against a warm enclave makes
   exactly the storage reads it made the first time: what the host
   sees depends on the query, never on the queries before it.
"""

from repro import GridSpec
from repro.core.queries import PointQuery, RangeQuery
from repro.telemetry import assert_equal_public_view, audit_run
from tests.conftest import make_stack

EPOCH_DURATION = 600
LOCATIONS = tuple(f"ap{i}" for i in range(4))
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


def _records(prefix):
    """Equal-public-size datasets: only device names vary with prefix."""
    return [
        (LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _query_pass(service):
    """One pass of the audit workload; returns ``(answers, query ids)``."""
    queries = [
        PointQuery(index_values=("ap0",), timestamp=60),
        PointQuery(index_values=("ap2",), timestamp=120),
    ]
    ranged = RangeQuery(index_values=("ap1",), time_start=0, time_end=240)
    answers, query_ids = [], []
    for query in queries:
        answers.append(service.execute_point(query)[0])
        query_ids.append(service.engine.access_log.last_query_id)
    answers.append(service.execute_range(ranged, method="multipoint")[0])
    query_ids.append(service.engine.access_log.last_query_id)
    return answers, query_ids


def _cold_then_warm(records):
    """The same query mix twice against one service: the first pass
    builds the enclave's memos, the second finds them warm."""

    def run():
        _, service = make_stack(SPEC, records, verify=True)
        answers = []
        for _ in range(2):
            answers.extend(_query_pass(service)[0])
        return answers

    return run


class TestEqualPublicSizeDatasets:
    def test_cold_and_warm_views_identical_across_datasets(self):
        report_a = audit_run(_cold_then_warm(_records("A")))
        report_b = audit_run(_cold_then_warm(_records("B")))
        assert report_a.result == report_b.result
        assert_equal_public_view(report_a, report_b)


class TestHistoryIndependence:
    def test_a_repeated_query_reads_what_the_first_read(self):
        _, service = make_stack(SPEC, _records("A"), verify=True)
        log = service.engine.access_log
        first_answers, first_ids = _query_pass(service)
        again_answers, again_ids = _query_pass(service)
        assert again_answers == first_answers
        for first, again in zip(first_ids, again_ids):
            assert log.rows_fetched(again) == log.rows_fetched(first) > 0
            assert log.row_ids_fetched(again) == log.row_ids_fetched(first)
