"""One STEP 4 changed nothing anyone outside the enclave can see.

A fixed scenario drives every fetch situation through the one compute
path: a sidecar point read, eBPB and winSecRange reads (slot runs of
the sealed bins, once trapdoor fetches packed at the fetch boundary),
then — after a row overwrite dropped the sidecar — the same reads over
trapdoors.  Answers, ``QueryStats``, the host's access-log stream and
the metrics registry (less wall-clock families) must equal what the
row-compute twins produced at the parent commit (bcb189f), plain and
replicated; ``capture`` says what it puts back for the slot-run reads.
The metric digests were re-captured once trapdoors stopped being
memoized across requests (``GOLDEN`` says how).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from unittest import mock

import pytest

from repro import GridSpec, telemetry
from repro.batching.fetcher import BinFetcher
from repro.core.binning import Bin
from repro.core.context import EpochContext
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from tests.conftest import as_trapdoor_heads, make_stack
from tests.replication.conftest import make_replicated_stack

SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
RECORDS = [
    (f"ap{(t // 60 + d) % 4}", t, f"dev{d % 5}")
    for t in range(0, 600, 60)
    for d in range(8)
]
LOCATIONS = tuple(sorted({record[0] for record in RECORDS}))

# Captured at bcb189f: from a checkout of it,
# ``PYTHONPATH=src:<this repo> python <this file>`` prints the table.
# The ``metrics`` digests are 8933a09's with its trapdoor memo off: in a
# checkout of it, ``sed -i 's/trapdoor_table_slots: int = 8192/
# trapdoor_table_slots: int = 0/' src/repro/core/service.py
# src/repro/sharding/service.py``, then the same command.  The ``stats``
# digests are e9bf1e3's with ``QueryStats``' three always-zero overlay
# fields (``cache_hits``, ``cache_misses``, ``rows_from_cache``) popped
# from each ``asdict`` before digesting; deleting the fields gives them.
# The ``metrics`` digests then lost the service-side admission families
# (``concealer_requests_admitted_total``, ``concealer_admission_inflight``)
# with the gate that exported them: f890d43's ``metrics`` dict less those
# two names digests to the values below.
_ANSWERS = "748170f02cffcdb070427b192a2d5b38ffca8dc6c5e68175af99df19dc87ea62"
_STREAM = "f579b105d9213a8d5dfcddfd30435a26547aa36c5e0bafe97292f7aeb073ad70"
_VERIFIED_STATS = "2ff7067f8a4146bb6569587c74d9bd217e79332429ef796117289fa888dbce94"
GOLDEN = {
    ("plain", False): {
        "answers": _ANSWERS,
        "stats": "bcc7852418482be7ad5806991ca9600f89f474de4ff8dd4587e11f07d899e678",
        "stream": _STREAM,
        "metrics": "ef50e83b978349b64a0dec5d27bb1ff4eca3103f05fcfa688dce64d5bf418310",
    },
    ("plain", True): {
        "answers": _ANSWERS,
        "stats": _VERIFIED_STATS,
        "stream": _STREAM,
        "metrics": "6e337a737c83cc3f2b8cf3b933bb719c82ade0903b1033b2700a65778527a7c9",
    },
    # Replica 0's log: the honest group serves every read from it.
    ("replicated", True): {
        "answers": _ANSWERS,
        "stats": _VERIFIED_STATS,
        "stream": _STREAM,
        "metrics": "0e67fa52faba1b8a924cfb8515da407c5eb5421611d374575e491bcef6b85e20",
    },
}


# Rows the three eBPB / winSecRange reads fetch, twice over, and the
# rows of those verified by request: after STEP 4's dedup on a plain
# engine, every fetched row when a replica group verifies each attempt.
TRAPDOOR_ROWS = 568
BY_REQUEST = {"plain": 472, "replicated": TRAPDOOR_ROWS}


def _queries():
    location, timestamp, _ = RECORDS[0]
    return [
        ("point", PointQuery(index_values=(location,), timestamp=timestamp)),
        (
            "point",
            PointQuery(
                index_values=(location,),
                timestamp=timestamp,
                aggregate=Aggregate.TOP_K,
                target="observation",
                k=2,
            ),
        ),
        ("ebpb", RangeQuery(index_values=("ap1",), time_start=60, time_end=240)),
        (
            "ebpb",
            RangeQuery(
                index_values=(LOCATIONS,),
                time_start=0,
                time_end=300,
                aggregate=Aggregate.DISTINCT_COUNT,
                target="observation",
            ),
        ),
        (
            "winsecrange",
            RangeQuery(
                index_values=("ap2",),
                time_start=0,
                time_end=599,
                aggregate=Aggregate.COLLECT,
            ),
        ),
        ("multipoint", RangeQuery(index_values=("ap3",), time_start=0, time_end=300)),
    ]


def _run(service, kind, query):
    if kind == "point":
        return service.execute_point(query)
    return service.execute_range(query, method=kind)


def capture(topology: str, verify: bool) -> dict:
    """Everything observable about the scenario, as digests."""
    # On the sealed epoch eBPB and winSecRange read slot runs of the
    # sidecar bins and derive no trapdoors.  Deriving them here anyway,
    # just before each run read (as the trapdoor kind did, volume
    # counted once, by the read), replays into ``det_encrypt`` what the
    # parent's fetch did; the heads of the log are put back below.
    # Once the sidecar is gone a run read is still tried, answered
    # ``None`` and made by trapdoor: one more EPC reservation, counted
    # in ``probes``.
    fetch_slots = BinFetcher.fetch_slots
    run_rows, probes = [], []

    def deriving(fetcher, context, cells, fake_ids, *args):
        request = context.slot_runs(cells, fake_ids)
        if request and request.runs:
            if not fetcher.engine.has_packed_bins(context.table_name):
                probes.append(1)
            else:
                with mock.patch("repro.core.context._count_tuples"):
                    run_rows.append(len(context.trapdoors_for_cell_ids(cells, fake_ids)))
        return fetch_slots(fetcher, context, cells, fake_ids, *args)

    # Index keys a batch verified by request never decrypts: count them,
    # whole bins (by position) and trapdoor lists (by request) apart.
    by_position, by_request = [], []
    positional = EpochContext._verify_positional

    def counting(context, packed_bins, requested, expected_cells, keep):
        real = positional(context, packed_bins, requested, expected_cells, keep)
        if real is not None:  # grouping decrypts the kept rows
            accepted = by_position if isinstance(requested[0], Bin) else by_request
            accepted.append(
                sum(pb.row_count for pb in packed_bins) if keep is None else int(keep.sum())
            )
        return real

    with mock.patch.object(EpochContext, "_verify_positional", counting), \
            mock.patch.object(BinFetcher, "fetch_slots", deriving), \
            telemetry.scoped_registry() as registry:
        if topology == "plain":
            _, service = make_stack(SPEC, RECORDS, verify=verify)
            tables = [next(iter(service.engine._tables.values()))]
        else:
            _, service, engine, members, _ = make_replicated_stack(
                RECORDS, replicas=2, verify=verify
            )
            tables = [
                next(iter(member.inner._tables.values())) for member in members
            ]
        outcomes = [_run(service, kind, query) for kind, query in _queries()]
        # A benign rewrite of one row: the sidecar is gone, the bytes are
        # not, and the same reads now arrive as trapdoor fetches.
        for table in tables:
            row = next(iter(table.scan()))
            table.overwrite(row.row_id, list(row.columns))
        outcomes += [_run(service, kind, query) for kind, query in _queries()]
        snapshot = registry.snapshot()
    # ISSUE 23: a verifying context reserves its tag memo in the EPC with
    # its metadata.  ``GOLDEN`` stays the bcb189f digests: the two
    # gauges must read exactly that reservation above the parent's, and
    # every other family what it read there.
    context = service.context_for(0)
    memo = context.tag_memo_bytes
    tagged = sum(cid >= 0 for cid in service._packages[0].enc_tags)
    assert memo == 32 * 4 * tagged * verify  # a digest per chained column
    # Verification by position adds the index memo, a digest per public
    # bin, padded bin and tagged cell-id, to that reservation, and every whole bin
    # it accepts (each point read's, each multipoint bin, sidecar or trapdoor
    # alike) decrypts no index key: ``det_decrypt`` reads lower by
    # exactly those rows, and nothing else moves.
    index_memo = context.index_memo_bytes
    padded = [chosen for chosen in context.layout.bins if chosen.fake_count]
    assert index_memo == 32 * (len(context.layout.bins) + len(padded) + tagged) * verify
    # Every context also keeps where its cell-ids' slots start and each
    # padded bin's first fake id and slot, for run reads: 8 B each.
    starts = 8 * (len(context.c_tuple) + 2 * len(padded))
    multipoint = len(context.layout.bins_of_cell_ids(
        context.grid.cell_ids_for_combinations((("ap3",),), 0, 300)
    ))
    bin_size = context.layout.bin_size
    assert sum(by_position) == verify * 2 * (2 + multipoint) * bin_size
    for gauge in ("concealer_epc_used_bytes", "concealer_epc_high_water_bytes"):
        (sample,) = snapshot[gauge]["samples"]
        sample["value"] -= memo + index_memo + starts
    # Every eBPB and winSecRange fetch goes by request as well (its
    # trapdoors are the index keys it expects back), so ``det_decrypt``
    # reads lower by those fetches' kept rows too — the sample is gone
    # when nothing is decrypted at all.
    trapdoor_rows = sum(
        stats.rows_fetched
        for (kind, _), (_, stats) in zip(_queries() * 2, outcomes)
        if kind in ("ebpb", "winsecrange")
    )
    assert trapdoor_rows == TRAPDOOR_ROWS
    assert sum(by_request) == verify * BY_REQUEST[topology]
    decrypted = sum(by_position) + sum(by_request)
    samples = snapshot["concealer_crypto_kernel_ops_total"]["samples"]
    det_decrypt = next(
        (sample for sample in samples if sample["labels"] == {"kernel": "det_decrypt"}),
        None,
    )
    if det_decrypt is None and decrypted:
        det_decrypt = {"labels": {"kernel": "det_decrypt"}, "value": 0}
        samples.append(det_decrypt)
        samples.sort(key=lambda sample: sorted(sample["labels"].items()))
    if decrypted:
        det_decrypt["value"] += decrypted
    # The slot-run reads' rows were each found by an index lookup on
    # the parent: every row of the sealed-epoch pass's eBPB and
    # winSecRange reads.
    assert sum(run_rows) == sum(
        stats.rows_fetched
        for (kind, _), (_, stats) in zip(_queries(), outcomes)
        if kind in ("ebpb", "winsecrange")
    )
    lookups = snapshot["concealer_index_lookups_total"]["samples"][0]
    lookups["value"] += sum(run_rows)
    assert len(probes) == len(run_rows)  # the same reads, sidecar dropped
    for family in ("concealer_epc_charge_events_total", "concealer_epc_release_events_total"):
        snapshot[family]["samples"][0]["value"] -= len(probes)
    stream = hashlib.sha256()
    for event in as_trapdoor_heads(service.engine):
        stream.update(
            repr((event.kind.value, event.table, event.detail, event.query_id)).encode()
        )
    # Less wall-clock families, and less the tracer's ring-buffer drops
    # (the buffer is process-wide: they count the tests run before).
    metrics = {
        name: family
        for name, family in snapshot.items()
        if family["type"] != "histogram"
        and not name.endswith("_seconds")
        and not name.startswith("concealer_trace_")
    }
    return {
        "answers": _digest([answer for answer, _ in outcomes]),
        "stats": _digest([dataclasses.asdict(stats) for _, stats in outcomes]),
        "stream": stream.hexdigest(),
        "metrics": _digest(metrics),
    }


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()
    ).hexdigest()


@pytest.mark.parametrize("topology,verify", sorted(GOLDEN))
def test_fixed_scenario_matches_the_parent(topology, verify):
    assert capture(topology, verify) == GOLDEN[(topology, verify)]


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        print(f"    {key}: {capture(*key)},")
