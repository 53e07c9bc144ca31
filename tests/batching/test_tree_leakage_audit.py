"""Leakage audit: the aggregate-tree path adds no data channel.

The tree answers long-window aggregates from O(log range) fixed-width
encrypted nodes instead of whole bins, but every host-visible quantity
must remain a pure function of public inputs — the query's time span,
the grid spec, and the epoch's sealed (public) tree shape.  Two
claims:

1. **Across datasets** — two datasets of equal public size (identical
   (location, timestamp) multisets, disjoint devices) produce
   byte-identical public-size metric views under a repeated tree
   workload (cold enclave memos, then warm ones), absent combinations included (decoy entities make an
   empty combination fetch the same node count as a full one).
2. **Tree families are public** — the node-fetch and planner-decision
   counters sit in the public view: they may be disclosed to the host
   without weakening Theorem 4.1's volume-hiding argument.
"""

from repro import GridSpec
from repro.core.queries import Aggregate, RangeQuery
from repro.telemetry import assert_equal_public_view, audit_run, public_view
from tests.conftest import make_stack

EPOCH_DURATION = 600
LOCATIONS = tuple(f"ap{i}" for i in range(4))
# Prefix 8 ≥ 4 combinations, so every epoch ships a tree; 10 time
# buckets of 60 s match the record timestamps exactly.
SPEC = GridSpec(
    dimension_sizes=(8, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


def _records(prefix):
    """Equal-public-size datasets: only device names vary with prefix."""
    return [
        (LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _tree_mix(service):
    """One pass of the audit workload: long windows (auto picks the
    tree), a pinned tree query, and an absent combination."""
    long_window = RangeQuery(
        index_values=("ap1",), time_start=0, time_end=EPOCH_DURATION - 1
    )
    summed = RangeQuery(
        index_values=("ap2",),
        time_start=0,
        time_end=539,
        aggregate=Aggregate.SUM,
        target="time",
    )
    absent = RangeQuery(
        index_values=("ap-absent",), time_start=0, time_end=EPOCH_DURATION - 1
    )
    answers = [service.execute_range(long_window, method="auto")[0]]
    answers.append(service.execute_range(summed, method="tree")[0])
    answers.append(service.execute_range(absent, method="tree")[0])
    return answers


def _cold_then_warm(records):
    """The same tree mix twice against one verifying service."""

    def run():
        _, service = make_stack(SPEC, records, verify=True)
        answers = []
        for _ in range(2):  # pass 1 cold, pass 2 warm
            answers.extend(_tree_mix(service))
        return answers

    return run


class TestEqualPublicSizeDatasets:
    def test_tree_views_identical_across_device_disjoint_datasets(self):
        report_a = audit_run(_cold_then_warm(_records("A")))
        report_b = audit_run(_cold_then_warm(_records("B")))
        assert report_a.result == report_b.result
        assert_equal_public_view(report_a, report_b)

    def test_tree_families_are_public_size(self):
        report = audit_run(_cold_then_warm(_records("A")))
        view = public_view(report.registry)
        for family in (
            "concealer_tree_nodes_fetched_total",
            "concealer_planner_decisions_total",
        ):
            assert family in view, family
            assert report.registry.total(family) > 0, family
