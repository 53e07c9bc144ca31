"""Replica-health telemetry must be public-size.

Two datasets with identical (location, timestamp) multisets but
disjoint device populations are run through identical 3-replica stacks
— including an identical fault script (replica 0's stored state
corrupted, queries failed over, anti-entropy repair) — and every
public-size metric family, the new replication health families
included, must agree exactly.  Breaker states, failover and repair
counts are functions of fault behaviour and query *shape*, never of
the plaintext.
"""

from __future__ import annotations

import pytest

from repro.core.queries import PointQuery, RangeQuery
from repro.faults.recovery import RecoveryCoordinator
from repro.telemetry import assert_equal_public_view, audit_run

from tests.replication.conftest import make_replicated_stack, replication_records

HEALTH_FAMILIES = (
    "concealer_replica_failovers_total",
    "concealer_replica_quarantined_scopes",
    "concealer_replica_breaker_state",
    "concealer_replicas_healthy",
    "concealer_replica_repairs_total",
    "concealer_degraded_reads_total",
    "concealer_queries_degraded_total",
    "concealer_query_failovers_total",
)


def _workload(records):
    def run():
        provider, service, engine, members, clock = make_replicated_stack(records)
        members[0].corrupt_stored(service._table_name(0))
        answers = [
            service.execute_point(
                PointQuery(index_values=("ap0",), timestamp=60)
            )[0],
            service.execute_range(
                RangeQuery(index_values=("ap1",), time_start=0, time_end=300),
                method="multipoint",
            )[0],
        ]
        RecoveryCoordinator(provider, service).repair_replicas()
        answers.append(
            service.execute_point(
                PointQuery(index_values=("ap2",), timestamp=120)
            )[0]
        )
        return tuple(answers)

    return run


@pytest.fixture(scope="module")
def reports():
    report_a = audit_run(_workload(replication_records("A")))
    report_b = audit_run(_workload(replication_records("B")))
    return report_a, report_b


class TestReplicatedLeakage:
    def test_equal_public_views_across_disjoint_datasets(self, reports):
        report_a, report_b = reports
        assert report_a.result == report_b.result  # device-blind answers
        assert_equal_public_view(report_a, report_b)

    def test_replica_health_families_are_in_the_public_view(self, reports):
        report_a, _ = reports
        view = report_a.public_view()
        for family in HEALTH_FAMILIES:
            assert family in view, f"{family} missing from the public view"

    def test_the_fault_script_actually_exercised_failover(self, reports):
        report_a, report_b = reports
        assert report_a.registry.total("concealer_replica_failovers_total") > 0
        assert report_a.registry.total("concealer_replica_repairs_total") > 0
        assert report_a.registry.total(
            "concealer_replica_failovers_total"
        ) == report_b.registry.total("concealer_replica_failovers_total")
