"""Leakage audit: which fetch kind eBPB and winSecRange take is public.

Beside ``test_fetch_kind_parity.py`` (answers and volumes equal across
fetch kinds), two claims about the slot-run kind (DESIGN.md §16):

1. **Across datasets** — two datasets of equal public size (identical
   (location, timestamp) multisets, disjoint devices) read by slot runs
   produce identical public-size metric views and public trace views,
   cold and then warm, for eBPB and for winSecRange.
2. **The selection rule** — the kind hangs on public facts only: a
   package whose fake pool holds rows outside the bins
   (``FakeStrategy.EQUAL``, or ``pad_epoch_rows_to`` above the layout's
   need) is read by trapdoor whatever the query, and a sealed
   ``SIMULATED`` package by slot runs whatever the query.

And one about the trapdoor kind: a sidecar-less epoch, read cold then
warm, derives every trapdoor afresh per request (nothing is memoized
across requests), so its public view is equal across such datasets too.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    DataProvider,
    FakeStrategy,
    GridSpec,
    ServiceConfig,
    ServiceProvider,
    WIFI_SCHEMA,
)
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.storage.pager import AccessKind
from repro.telemetry import assert_equal_public_view, audit_run
from tests.conftest import MASTER_KEY, make_stack

EPOCH_DURATION = 600
LOCATIONS = tuple(f"ap{i}" for i in range(4))
SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION)
METHODS = ("ebpb", "winsecrange")
QUERIES = [
    RangeQuery(index_values=("ap1",), time_start=0, time_end=240),
    RangeQuery(
        index_values=("ap3",), time_start=300, time_end=419,
        aggregate=Aggregate.DISTINCT_COUNT, target="observation",
    ),
    RangeQuery(index_values=(LOCATIONS,), time_start=60, time_end=599),
]


def _records(prefix):
    """Equal-public-size datasets: only device names vary with prefix."""
    return [
        (LOCATIONS[(t // 60 + d) % 4], t, f"{prefix}{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(6)
    ]


def _heads(service):
    """The head kinds of every range read the host logged."""
    return {event.kind for event in service.engine.access_log} & {
        AccessKind.BIN_READ, AccessKind.INDEX_LOOKUP,
    }


def _cold_then_warm(records, method):
    def run():
        _, service = make_stack(SPEC, records, verify=True)
        answers = [
            service.execute_range(query, method=method)[0]
            for _ in range(2)  # pass 1 fills the index memo, pass 2 hits it
            for query in QUERIES
        ]
        assert _heads(service) == {AccessKind.BIN_READ}  # slot runs, no lookup
        return answers

    return run


@pytest.mark.parametrize("method", METHODS)
def test_run_kind_views_are_identical_across_device_disjoint_datasets(method):
    report_a = audit_run(_cold_then_warm(_records("A"), method))
    report_b = audit_run(_cold_then_warm(_records("B"), method))
    assert report_a.result == report_b.result
    assert_equal_public_view(report_a, report_b)
    assert report_a.trace_summary() == report_b.trace_summary()


def _sidecarless_cold_then_warm(records):
    def run():
        _, service = make_stack(SPEC, records, verify=True, sidecar=False)
        points = [
            PointQuery(index_values=("ap0",), timestamp=60),
            PointQuery(index_values=("ap2",), timestamp=120),
        ]
        answers = []
        for _ in range(2):  # pass 2 derives what pass 1 did
            answers.extend(service.execute_point(query)[0] for query in points)
            answers.extend(
                service.execute_range(QUERIES[0], method=method)[0]
                for method in ("multipoint",) + METHODS
            )
        assert _heads(service) == {AccessKind.INDEX_LOOKUP}  # trapdoors only
        return answers

    return run


def test_sidecarless_views_are_identical_across_device_disjoint_datasets():
    report_a = audit_run(_sidecarless_cold_then_warm(_records("A")))
    report_b = audit_run(_sidecarless_cold_then_warm(_records("B")))
    assert report_a.result == report_b.result
    assert_equal_public_view(report_a, report_b)
    assert report_a.trace_summary() == report_b.trace_summary()


def _service(fake_strategy=FakeStrategy.SIMULATED, pad_to=None):
    provider = DataProvider(
        WIFI_SCHEMA, SPEC, first_epoch_id=0, master_key=MASTER_KEY,
        fake_strategy=fake_strategy, time_granularity=60, rng=random.Random(1),
    )
    provider.encryptor.pad_epoch_rows_to = pad_to
    service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
    provider.provision_enclave(service.enclave)
    service.ingest_epoch(provider.encrypt_epoch(_records("A"), epoch_id=0))
    return service


def _padded():
    """Ten rows above what the ``SIMULATED`` layout needs."""
    needed = _service().engine.row_count("epoch_0")
    return _service(pad_to=needed + 10)


PACKAGES = {
    "simulated": (_service, AccessKind.BIN_READ),
    "equal": (lambda: _service(FakeStrategy.EQUAL), AccessKind.INDEX_LOOKUP),
    "padded": (_padded, AccessKind.INDEX_LOOKUP),
}


@pytest.mark.parametrize("package", sorted(PACKAGES))
@pytest.mark.parametrize("method", METHODS)
def test_the_kind_is_chosen_by_the_package_whatever_the_query(package, method):
    build, head = PACKAGES[package]
    service = build()
    context = service.context_for(0)
    assert service.engine.has_packed_bins(context.table_name)  # sealed either way
    assert (context.fake_pool_size == context.layout.total_fakes) == (package == "simulated")
    _, oracle = make_stack(SPEC, _records("A"), sidecar=False)
    for query in QUERIES:
        got = service.execute_range(query, method=method)[0]
        assert got == oracle.execute_range(query, method=method)[0]
    assert _heads(service) == {head}
