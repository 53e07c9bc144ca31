"""What the access log costs, and that making it cheap changed nothing.

Two guards around the run-length log:

* the host's view of a fixed scenario — counters, per-query volumes and
  the event stream itself — equals golden values captured from the
  per-event log that preceded it;
* a point query on a sealed packed epoch retains a few KB of heap, not
  a few hundred bytes per fetched row.

And the same two around the bulk landing of an epoch: what every host
saw of it (log stream, counters, table and index sizes) equals what one
insert per row showed at the parent, for an unreplicated and a
replicated fleet, and a landed row retains a bounded number of bytes.
"""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

import pytest

from repro import (
    DataProvider,
    GridSpec,
    ServiceConfig,
    ServiceProvider,
    WIFI_SCHEMA,
    telemetry,
)
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.storage.pager import AccessKind
from tests.conftest import MASTER_KEY, as_trapdoor_heads, make_stack

GOLDEN_SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
GOLDEN_RECORDS = [
    (f"ap{(t // 60 + d) % 4}", t, f"dev1-{d}")
    for t in range(0, 600, 60)
    for d in range(8)
]
# Captured at the parent of the run-length change (per-event AccessLog).
GOLDEN_VOLUMES = {1: 24, 2: 24, 3: 96, 4: 52}
GOLDEN = {
    False: {  # scalar: landed without the sidecar, trapdoor lookups
        "rows_read": 196,
        "index_lookups": 196,
        "events": 684,
        "stream": "d89d44a2750b2dc21856cf7ffcf605774da81c963a6d126d342623e5066025b1",
    },
    True: {  # packed: whole-bin sidecar reads
        "rows_read": 196,
        "index_lookups": 52,  # the eBPB range's, now as slot runs
        "events": 546,
        "stream": "43526d857887d87566c2d5b793cfb37f8174d7786e67df3e4df9cef677d8a506",
    },
}


class TestHostViewGolden:
    @pytest.mark.parametrize("packed", [False, True], ids=["scalar", "packed"])
    def test_counters_volumes_and_stream_unchanged(self, packed):
        location, timestamp, _ = GOLDEN_RECORDS[0]
        other = GOLDEN_RECORDS[len(GOLDEN_RECORDS) // 2][0]
        with telemetry.scoped_registry() as registry:
            _, service = make_stack(
                GOLDEN_SPEC, GOLDEN_RECORDS, verify=True, sidecar=packed
            )
            service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            service.execute_point(
                PointQuery(
                    index_values=(location,),
                    timestamp=timestamp,
                    aggregate=Aggregate.DISTINCT_COUNT,
                    target="observation",
                )
            )
            service.execute_range(
                RangeQuery(index_values=(other,), time_start=0, time_end=300),
                method="multipoint",
            )
            service.execute_range(
                RangeQuery(index_values=(other,), time_start=60, time_end=240),
                method="ebpb",
            )
        golden = GOLDEN[packed]
        log = service.engine.access_log
        # The eBPB range reads slot runs of the sealed bins where the
        # sidecar is: the host saw the same rows, under one BIN_READ per
        # run instead of an INDEX_LOOKUP per row, which is all this
        # rewrite of the stream puts back.
        events = list(as_trapdoor_heads(service.engine))
        lookups = sum(event.kind is AccessKind.INDEX_LOOKUP for event in events)
        restored = lookups - (registry.value("concealer_index_lookups_total") or 0)
        assert restored == (GOLDEN_VOLUMES[4] if packed else 0)  # the eBPB range's rows
        assert lookups == golden["index_lookups"]
        assert registry.value("concealer_storage_rows_read_total") == golden["rows_read"]
        assert log.per_query_volumes() == GOLDEN_VOLUMES
        assert len(events) == golden["events"]
        stream = hashlib.sha256()
        for event in events:
            stream.update(
                repr(
                    (event.kind.value, event.table, event.detail, event.query_id)
                ).encode()
            )
        assert stream.hexdigest() == golden["stream"]


class TestRetainedHeap:
    BIN_SIZE = 512
    BUDGET_BYTES = 8 * 1024

    def test_packed_point_query_retains_a_few_kb(self):
        rng = random.Random(7)
        records = [
            (f"ap{rng.randrange(10)}", t, f"dev{d}")
            for t in range(0, 3600, 60)
            for d in range(25)
        ]
        provider = DataProvider(
            WIFI_SCHEMA,
            GridSpec(dimension_sizes=(8, 24), cell_id_count=64, epoch_duration=3600),
            first_epoch_id=0,
            master_key=MASTER_KEY,
            bin_size=self.BIN_SIZE,
            time_granularity=60,
            rng=random.Random(1),
        )
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(records, epoch_id=0))
        assert service.engine.has_packed_bins("epoch_0")
        queries = [
            PointQuery(index_values=(location,), timestamp=timestamp)
            for location, timestamp, _ in records[::7]
        ]

        measured = 30
        for query in queries[:50]:  # warm-up: caches and ring buffers fill
            service.execute_point(query)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for query in queries[50 : 50 + measured]:
                service.execute_point(query)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

        log = service.engine.access_log
        # Each query read one whole bin, and the host's view says so...
        assert log.rows_fetched(log.last_query_id) == self.BIN_SIZE
        # ...yet the log kept a run per query, not 1 + 2·|b| objects.
        assert retained / measured <= self.BUDGET_BYTES


# Captured at 12ac7c2 (one `retry.call(engine.insert)` per row, one
# write fan-out per row): what each host saw of one epoch landing.
LANDING_GOLDEN = {
    (1, 1): {
        "rows_written": 96,
        "kernel_ops": {"det_encrypt": 472, "nd_encrypt": 64},
        # per shard: events, row_count, index_size, event-stream digest
        "shards": [
            (96, 96, 96, "bdc34a2d27b8d2f6d58ffdc9e0fcf46b0d4019c448d1918be8d3bf49f90a2c09"),
        ],
    },
    (2, 3): {
        "rows_written": 324,
        "kernel_ops": {"det_encrypt": 540, "nd_encrypt": 112},
        "shards": [
            (48, 48, 48, "65680ca3862770065a0c6c63dd4b17a2f3e085d4b8edbef0f753e9f230da9482"),
            (60, 60, 60, "038f278bb99b0bf457267270a47ba62ca930996ed9fc33209069e4998204b4fc"),
        ],
    },
}


def _stream_digest(log) -> str:
    stream = hashlib.sha256()
    for event in log:
        stream.update(
            repr((event.kind.value, event.table, event.detail, event.query_id)).encode()
        )
    return stream.hexdigest()


class TestLandingHostView:
    """One bulk landing per replica shows the host what N inserts did."""

    @pytest.mark.parametrize("shape", sorted(LANDING_GOLDEN), ids=["1x1", "2x3"])
    def test_log_counters_and_sizes_unchanged(self, shape, tmp_path):
        from repro.sharding import ShardedConfig, ShardedService, ingest_epoch_sharded

        shards, replicas = shape
        with telemetry.scoped_registry() as registry:
            provider = DataProvider(
                WIFI_SCHEMA,
                GOLDEN_SPEC,
                first_epoch_id=0,
                master_key=MASTER_KEY,
                time_granularity=60,
                rng=random.Random(3),
            )
            fleet = ShardedService.build(
                provider, ShardedConfig(shards=shards, replicas=replicas), tmp_path
            )
            ingest_epoch_sharded(fleet, GOLDEN_RECORDS, 0)
        seen = {
            "rows_written": registry.value("concealer_storage_rows_written_total"),
            "kernel_ops": {
                key[0]: value
                for key, value in registry.label_values(
                    "concealer_crypto_kernel_ops_total"
                ).items()
            },
            "shards": [],
        }
        for shard in fleet.shards:
            engine = shard.service.engine
            views = set()
            for host in getattr(engine, "replicas", [engine]):
                log = host.access_log
                # One ROW_WRITE per row id, in order, and nothing else.
                assert [e.detail for e in log] == list(range(host.row_count("epoch_0")))
                views.add(
                    (
                        len(log),
                        host.row_count("epoch_0"),
                        host.index_size("epoch_0", "index_key"),
                        _stream_digest(log),
                    )
                )
            assert len(views) == 1  # every replica host saw the same landing
            seen["shards"].append(views.pop())
            assert engine.has_packed_bins("epoch_0") and engine.has_agg_tree("epoch_0")
        assert seen == LANDING_GOLDEN[shape]


class TestLandingRetainedHeap:
    # Measured 331 B/row (414 at 12ac7c2: a log tuple per row and ~70%-
    # full leaves).  What is counted is the engine's own bookkeeping —
    # Row, its column tuple, the row-store slot, the index slot — the
    # ciphertext bytes belong to the package and are allocated before.
    BUDGET_BYTES_PER_ROW = 360

    def test_a_landed_row_retains_a_few_hundred_bytes(self):
        rng = random.Random(7)
        records = [
            (f"ap{rng.randrange(10)}", t, f"dev{d}")
            for t in range(0, 3600, 60)
            for d in range(50)
        ]
        provider = DataProvider(
            WIFI_SCHEMA,
            GridSpec(dimension_sizes=(8, 24), cell_id_count=64, epoch_duration=3600),
            first_epoch_id=0,
            master_key=MASTER_KEY,
            bin_size=512,
            time_granularity=60,
            rng=random.Random(1),
        )
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
        provider.provision_enclave(service.enclave)
        package = provider.encrypt_epoch(records, epoch_id=0)

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            service.ingest_epoch(package)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

        log = service.engine.access_log
        assert len(log._entries) == 1  # one run, whatever the epoch size
        assert len(log) == service.engine.row_count("epoch_0") == len(package.rows)
        assert retained / len(package.rows) <= self.BUDGET_BYTES_PER_ROW
