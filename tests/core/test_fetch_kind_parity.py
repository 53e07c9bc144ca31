"""Which fetch kind served a batch changes nothing about the query.

Every method ends in the one STEP 4 over packed bins, however they got
into the enclave: read whole from the sealed sidecar, pulled by trapdoor
because the epoch was landed without one, or pulled by trapdoor because
a row overwrite dropped the sidecar mid-run.  For each method × verify ×
aggregate the three situations must give the cleartext oracle's answer
and the same volume accounting.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import GridSpec, WIFI_SCHEMA
from repro.baselines.cleartext import CleartextBaseline
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from tests.conftest import make_stack

SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
RECORDS = [
    (f"ap{(t // 60 + d) % 4}", t, f"dev{d % 5}")
    for t in range(0, 600, 60)
    for d in range(8)
]
LOCATIONS = tuple(sorted({record[0] for record in RECORDS}))
SITUATIONS = ("sidecar", "no-sidecar", "sidecar-dropped-mid-run")
METHODS = ("point", "multipoint", "ebpb", "winsecrange")
AGGREGATES = {
    Aggregate.COUNT: None,
    Aggregate.SUM: "time",
    Aggregate.MAX: "time",
    Aggregate.DISTINCT_COUNT: "observation",
    Aggregate.TOP_K: "observation",
    Aggregate.COLLECT: None,
}
VOLUME_FIELDS = (
    "trapdoors_generated", "rows_fetched", "rows_matched", "rows_decrypted",
    "bins_fetched", "verified",
)


@pytest.fixture(scope="module")
def oracle():
    baseline = CleartextBaseline(WIFI_SCHEMA)
    baseline.ingest(RECORDS, 0)
    return baseline


@pytest.fixture(scope="module")
def services():
    """(verify, situation) → a service in that fetch situation."""
    out = {}
    for verify in (False, True):
        for situation in SITUATIONS:
            _, service = make_stack(
                SPEC, RECORDS, verify=verify, sidecar=situation != "no-sidecar"
            )
            table = next(iter(service.engine._tables.values()))
            if situation == "sidecar-dropped-mid-run":
                service.execute_point(
                    PointQuery(index_values=("ap0",), timestamp=0)
                )
                row = next(iter(table.scan()))
                table.overwrite(row.row_id, list(row.columns))
            assert (table.packed_bins is not None) == (situation == "sidecar")
            out[verify, situation] = service
    return out


def _canonical(aggregate, answer):
    return sorted(answer) if aggregate is Aggregate.COLLECT else answer


@pytest.mark.parametrize("aggregate", list(AGGREGATES), ids=lambda a: a.value)
@pytest.mark.parametrize("verify", [False, True], ids=["unverified", "verified"])
@pytest.mark.parametrize("method", METHODS)
def test_answers_and_volumes_equal_across_fetch_situations(
    services, oracle, method, verify, aggregate
):
    shape = dict(aggregate=aggregate, target=AGGREGATES[aggregate], k=2)
    if method == "point":
        query = PointQuery(index_values=("ap1",), timestamp=60, **shape)
        truth, _ = oracle.execute_point(query, 0)
    else:
        # One location for eBPB, every location for the whole-window method.
        index_values = (LOCATIONS,) if method == "winsecrange" else ("ap1",)
        query = RangeQuery(
            index_values=index_values, time_start=60, time_end=359, **shape
        )
        truth, _ = oracle.execute_range(query, 0, time_step=60)

    volumes = set()
    for situation in SITUATIONS:
        service = services[verify, situation]
        if method == "point":
            answer, stats = service.execute_point(query)
        else:
            answer, stats = service.execute_range(query, method=method)
        assert _canonical(aggregate, answer) == _canonical(aggregate, truth), situation
        assert stats.verified == verify
        volumes.add(tuple(dataclasses.asdict(stats)[f] for f in VOLUME_FIELDS))
    assert len(volumes) == 1, volumes
