"""Leakage audit: the packed (columnar) path adds no data channel.

The packed layout changes *how* bins transit the pipeline — contiguous
byte arrays, batched kernels, bin-granular cache entries — but every
host-visible quantity must remain exactly the public function of bin
membership it was on the scalar path.  Three claims:

1. **Across datasets** — two datasets of equal public size (identical
   (location, timestamp) multisets, disjoint devices) produce
   byte-identical public-size metric views under a cold-then-warm
   packed-cache workload.
2. **Cold vs warm packed cache** — cache state changes only
   public-size families (hits, misses, storage reads); every
   data-dependent family is untouched.
3. **Packed vs scalar** — for one dataset and one query mix, the two
   paths' public views agree on the volume-hiding core: storage rows
   read and trapdoors derived.
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


def _records(prefix):
    """Equal-public-size datasets: only device names vary with prefix."""
    return [
        (LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _cold_then_warm(records):
    """The same query mix twice against one packed, cached service."""

    def run():
        _, service = make_stack(
            SPEC, records, verify=True, bin_cache_bins=16
        )
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


class TestColdVersusWarmPackedCache:
    def test_warm_packed_run_differs_only_in_public_size_families(self):
        records = _records("A")

        def once(cache_bins):
            def run():
                _, service = make_stack(
                    SPEC,
                    records,
                    verify=True,
                    bin_cache_bins=cache_bins,
                )
                return [
                    service.execute_point(
                        PointQuery(index_values=("ap0",), timestamp=60)
                    )[0]
                    for _ in range(3)
                ]

            return run

        cold = audit_run(once(cache_bins=0))
        warm = audit_run(once(cache_bins=16))
        assert cold.result == warm.result
        assert (
            warm.registry.total("concealer_storage_rows_read_total")
            < cold.registry.total("concealer_storage_rows_read_total")
        )
        # Packed-cache state moves host-visible volume accounting only;
        # every data-dependent family is identical across cache states.
        for family in (
            "concealer_rows_matched_total",
            "concealer_rows_decrypted_total",
        ):
            cold_total = _private_total(cold, family)
            warm_total = _private_total(warm, family)
            assert cold_total == warm_total


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


def _private_total(report, family):
    """Total of a family that must stay out of the public view."""
    if report.registry.get(family) is None:
        return None
    assert family not in public_view(report.registry)
    return report.registry.total(family)
