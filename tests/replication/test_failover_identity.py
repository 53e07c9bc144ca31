"""Logical row identity must survive failover across replicas.

Physical row ids are *replica-local*: a rebuild, repair, or divergent
ingest can leave two replicas storing the same logical rows under
different ids.  A query whose fetches mix sources — verified bins
cached from one replica unioned with a failover fetch served by
another — must therefore never treat the physical id as row identity:
two different logical rows can collide on an id, and two copies of the
same logical row can arrive under different ids.  The only stable
identity is the index-key ciphertext (deterministic encryption of
``cid ‖ counter``), byte-identical wherever the row is stored.

Regression for a composed-chaos find (seed 9079): an id-keyed de-dup
silently dropped real rows when one source's ids collided with a
failover batch's shifted ids — every batch verified, the *union* lied.
"""

from __future__ import annotations

from repro import ServiceConfig
from repro.core.queries import PointQuery, RangeQuery
from repro.storage.table import Row

from tests.conftest import ground_truth_count
from tests.replication.conftest import (
    EPOCH_DURATION,
    LOCATIONS,
    make_replicated_stack,
    replication_records,
)


def _shift_physical_ids(member, table: str, offset: int) -> None:
    """Reinstall a replica's rows under rotated physical ids.

    Contents are untouched — the replica still holds exactly the same
    logical rows, so every per-bin verification keeps passing.
    """
    rows = sorted(member.snapshot_rows(table), key=lambda r: r.row_id)
    count = len(rows)
    shifted = [
        Row(row_id=(row.row_id + offset) % count, columns=tuple(row.columns))
        for row in rows
    ]
    member.rebuild_table(
        table,
        member.column_names(table),
        shifted,
        member.indexed_columns(table),
    )


def _flip_last_byte(cell: bytes) -> bytes:
    return cell[:-1] + bytes([cell[-1] ^ 0x5A])


def test_failover_into_an_id_diverged_replica_drops_no_rows():
    records = replication_records()
    provider, service, engine, members, clock = make_replicated_stack(
        records, config=ServiceConfig(verify=True)
    )
    table = service._table_name(0)
    context = service.context_for(0)

    # Replicas 1 and 2 hold the same logical rows under rotated physical
    # ids (any repair or divergent ingest can legitimately do this)…
    for member in members[1:]:
        _shift_physical_ids(member, table, offset=7)
    # …and some of replica 0's bins are corrupted: those fail
    # verification there and fail over to the id-shifted peers, while
    # every other bin is still served by replica 0.  Slot 0 of a bin
    # holding real rows is a real row, under a hash chain.
    corrupted = sorted(
        {
            context.layout.bin_of_cell_id(
                context.grid.place_values((location,), 60)
            ).index
            for location in ("ap0", "ap3")
        }
    )
    sidecar = members[0].inner._tables[table].packed_bins
    for index in corrupted:
        sidecar[index] = sidecar[index].with_corrupted_cell(
            0, 0, _flip_last_byte
        )
    bins = len(context.layout.bins)
    assert 0 < len(corrupted) < bins

    # The full-domain range unions replica 0's bins (its ids) with
    # failover fetches (shifted ids).  Ids collide across the two
    # sources while the logical rows differ — an id-keyed de-dup would
    # silently undercount here; identity by index-key ciphertext must
    # keep the answer exact.
    answer, stats = service.execute_range(
        RangeQuery(
            index_values=(LOCATIONS,),
            time_start=0,
            time_end=EPOCH_DURATION - 1,
        ),
        method="multipoint",
    )
    assert stats.bins_fetched == bins
    assert stats.failovers == len(corrupted)
    assert answer == ground_truth_count(
        records, t0=0, t1=EPOCH_DURATION - 1
    )

    # Same guarantee when the *entire* union comes from one shifted
    # replica: ids are permuted but complete.
    assert members[0].corrupt_stored(table) > 0
    answer, _ = service.execute_range(
        RangeQuery(
            index_values=(LOCATIONS,),
            time_start=0,
            time_end=EPOCH_DURATION // 2,
        ),
        method="ebpb",
    )
    assert answer == ground_truth_count(
        records, t0=0, t1=EPOCH_DURATION // 2
    )


def test_failover_absorbed_by_a_packed_attempt_that_falls_back_is_counted():
    """A failover spent on a sidecar read survives the scalar fallback.

    Replica 0 serves a packed bin with one tampered cell; replica 1 has
    no packed sidecar at all, so the packed read ends in ``None`` and
    the bin is re-read as scalar rows from replica 1.  The query paid
    one failover on the way and ``QueryStats`` must say so (it said 0
    while the packed attempt's count was dropped on the fallback).
    """
    records = replication_records()
    provider, service, engine, members, clock = make_replicated_stack(
        records, replicas=2, config=ServiceConfig(verify=True)
    )
    table = service._table_name(0)
    context = service.context_for(0)
    chosen = context.layout.bin_of_cell_id(
        context.grid.place_values(("ap0",), 60)
    )
    # Slot 0 of a bin holding real rows is a real row (canonical slot
    # order puts fakes last): its filter cell is under a hash chain.
    sidecar = members[0].inner._tables[table].packed_bins
    sidecar[chosen.index] = sidecar[chosen.index].with_corrupted_cell(
        0, 0, lambda cell: cell[:-1] + bytes([cell[-1] ^ 0x5A])
    )
    members[1].inner._tables[table].packed_bins = None

    answer, stats = service.execute_point(
        PointQuery(index_values=("ap0",), timestamp=60)
    )

    assert answer == ground_truth_count(records, location="ap0", t0=60, t1=60)
    assert stats.verified
    assert [(e.replica_id, e.kind) for e in engine.quarantine.entries] == [
        (0, "chain-mismatch")
    ]
    assert stats.failovers == 1
