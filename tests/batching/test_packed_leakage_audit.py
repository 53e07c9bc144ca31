"""Leakage audit: the packed (columnar) path adds no data channel.

The packed layout changes *how* bins transit the pipeline — contiguous
byte arrays, batched kernels — but every host-visible quantity must
remain exactly the public function of bin membership it was on the
scalar path.  Two claims:

1. **Across datasets** — two datasets of equal public size (identical
   (location, timestamp) multisets, disjoint devices) produce
   byte-identical public-size metric views under a repeated packed
   workload (cold enclave memos, then warm ones).
2. **Packed vs scalar** — for one dataset and one query mix, the two
   paths' public views agree on the volume-hiding core: storage rows
   read and trapdoors derived.
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


def _cold_then_warm(records):
    """The same query mix twice against one packed service."""

    def run():
        _, service = make_stack(SPEC, records, verify=True)
        queries = [
            PointQuery(index_values=("ap0",), timestamp=60),
            PointQuery(index_values=("ap2",), timestamp=120),
        ]
        ranged = RangeQuery(index_values=("ap1",), time_start=0, time_end=240)
        answers = []
        for _ in range(2):  # pass 1 cold, pass 2 warm
            answers.extend(service.execute_point(q)[0] for q in queries)
            answers.append(
                service.execute_range(ranged, method="multipoint")[0]
            )
        return answers

    return run


class TestEqualPublicSizeDatasets:
    def test_packed_views_identical_across_device_disjoint_datasets(self):
        report_a = audit_run(_cold_then_warm(_records("A")))
        report_b = audit_run(_cold_then_warm(_records("B")))
        assert report_a.result == report_b.result
        assert_equal_public_view(report_a, report_b)


class TestPackedVersusScalar:
    def test_volume_hiding_core_is_path_independent(self):
        records = _records("A")

        def once(packed):
            def run():
                _, service = make_stack(
                    SPEC, records, verify=True, sidecar=packed
                )
                queries = [
                    PointQuery(index_values=("ap0",), timestamp=60),
                    PointQuery(index_values=("ap3",), timestamp=300),
                ]
                return [service.execute_point(q)[0] for q in queries]

            return run

        scalar = audit_run(once(packed=False))
        packed = audit_run(once(packed=True))
        assert scalar.result == packed.result
        for family in (
            "concealer_storage_rows_read_total",
            "concealer_trapdoors_generated_total",
            "concealer_tuples_fetched_total",
        ):
            if scalar.registry.get(family) is None:
                continue
            assert scalar.registry.total(family) == packed.registry.total(
                family
            ), family

