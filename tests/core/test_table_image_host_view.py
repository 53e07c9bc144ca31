"""After a restore, a repair or a key rotation the host still serves
sealed bins (SECURITY.md item 8).

Checkpoint, restore, anti-entropy repair and key rotation move a table
whole, as a :class:`~repro.storage.table.TableImage` whose sealed-bin
slot layout the installing engine re-packs from the installed rows.  So
an epoch that went through any of them keeps the host view it had when
it landed: a point, a multipoint and an eBPB query read ``BIN_READ``
runs only — no trapdoor ``INDEX_LOOKUP`` — and answer what the
cleartext records say.  Restore and repair keep the aggregate tree too,
so a whole-epoch COUNT still reads tree nodes; rotation drops the tree
(its directory is keyed by combination digests the enclave cannot
re-key).  Each shape runs on one storage engine, a replica group of
one, and a group of three.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import DataProvider, WIFI_SCHEMA
from repro.core.queries import PointQuery, RangeQuery
from repro.core.rotation import rotation_token
from repro.faults.clock import VirtualClock
from repro.sharding.coordinator import ingest_epoch_sharded, rotate_sharded_keys
from repro.sharding.service import ShardedConfig, ShardedService, build_replica_group
from repro.storage.pager import AccessKind
from tests.sharding.conftest import (
    EPOCH_DURATION,
    LOCATIONS,
    MASTER_KEY,
    SPEC,
    TIME_STEP,
    epoch_records,
    truth,
)

NEW_MASTER = hashlib.sha256(b"table-image-host-view").digest()
HEADS = {
    AccessKind.BIN_READ, AccessKind.INDEX_LOOKUP,
    AccessKind.INDEX_SCAN, AccessKind.TABLE_SCAN,
}
# engine shape -> replica-group size (None: one plain storage engine)
SHAPES = {"plain": None, "group-of-1": 1, "group-of-3": 3}


def _fleet(workdir, replicas):
    records = epoch_records(0)
    provider = DataProvider(
        WIFI_SCHEMA, SPEC, first_epoch_id=0, master_key=MASTER_KEY,
        time_granularity=TIME_STEP, rng=random.Random(11),
    )
    clock = VirtualClock()
    sharded = ShardedService.build(
        provider, ShardedConfig(shards=1), workdir, clock=clock,
        engine_factory=(
            None if replicas is None
            else lambda _: build_replica_group(replicas, clock=clock)
        ),
    )
    ingest_epoch_sharded(sharded, records, epoch_id=0)
    return sharded, records


def _hosts(sharded):
    engine = sharded.shards[0].service.engine
    return getattr(engine, "replicas", [engine])


def _reads_sealed_bins_only(sharded, records):
    """Point, multipoint and eBPB answers match the records, and every
    host read only ``BIN_READ`` runs to serve them."""
    for host in _hosts(sharded):
        host.access_log.clear()
    location, timestamp, _ = records[0]
    answer, _ = sharded.execute_point(
        PointQuery(index_values=(location,), timestamp=timestamp)
    )
    assert answer == truth(records, location, timestamp, timestamp)
    window = RangeQuery(index_values=(location,), time_start=0, time_end=2 * TIME_STEP - 1)
    for method in ("multipoint", "ebpb"):
        answer, _ = sharded.execute_range(window, method=method)
        assert answer == truth(records, location, 0, 2 * TIME_STEP - 1)
    heads = {event.kind for host in _hosts(sharded) for event in host.access_log}
    assert heads & HEADS == {AccessKind.BIN_READ}


def _tree_nodes_read(sharded, records) -> int:
    """A whole-epoch COUNT at one location by the tree method; the tree
    nodes it read (0: it fell back to the bins)."""
    location = LOCATIONS[1]
    answer, stats = sharded.execute_range(
        RangeQuery(index_values=(location,), time_start=0, time_end=EPOCH_DURATION - 1),
        method="tree",
    )
    assert answer == truth(records, location, 0, EPOCH_DURATION - 1)
    return stats.per_shard[0].extra.get("tree_nodes_fetched", 0)


def _landed(workdir, shape):
    sharded, records = _fleet(workdir, SHAPES[shape])
    _reads_sealed_bins_only(sharded, records)  # as landed
    assert _tree_nodes_read(sharded, records) > 0
    return sharded, records


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_checkpoint_then_lost_storage_and_enclave_heal_to_sealed_bins(tmp_path, shape):
    sharded, records = _landed(tmp_path, shape)
    sharded.checkpoint_all()
    service = sharded.shards[0].service
    for table in service.engine.table_names():
        service.engine.drop_table(table)
    service.enclave.crash("host restart")
    actions = sharded.heal()
    assert actions[0]["storage"] and actions[0]["enclave"]
    _reads_sealed_bins_only(sharded, records)
    assert _tree_nodes_read(sharded, records) > 0


@pytest.mark.parametrize("shape", ["group-of-1", "group-of-3"])
def test_quarantine_then_repair_heals_to_sealed_bins(tmp_path, shape):
    sharded, records = _landed(tmp_path, shape)
    engine = sharded.shards[0].service.engine
    table = engine.table_names()[0]
    # Replica 0's disk rots: a stored row flips a byte (which drops its
    # sidecars), and the row's cell is quarantined on it.
    victim = engine.replicas[0]
    row_id, columns = next(iter(victim.image(table).all_rows().items()))
    victim.overwrite(table, row_id, [columns[0][:-1] + bytes([columns[0][-1] ^ 1]), *columns[1:]])
    engine.quarantine.record(0, table, None, "chain-mismatch")
    outcomes = sharded.repair_replicas()[0]
    assert [o.outcome for o in outcomes] == ["repaired"]
    assert outcomes[0].source == ("master" if SHAPES[shape] == 1 else "majority:2/2")
    assert [replica.image(table) for replica in engine.replicas] == [
        engine.replicas[-1].image(table)
    ] * len(engine.replicas)
    _reads_sealed_bins_only(sharded, records)
    assert _tree_nodes_read(sharded, records) > 0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_key_rotation_keeps_sealed_bins_and_drops_the_tree(tmp_path, shape):
    sharded, records = _landed(tmp_path, shape)
    assert rotate_sharded_keys(
        sharded, NEW_MASTER, rotation_token(MASTER_KEY, NEW_MASTER)
    ) > 0
    _reads_sealed_bins_only(sharded, records)
    assert _tree_nodes_read(sharded, records) == 0
