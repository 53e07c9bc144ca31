"""A host cannot inflate a verified answer through a fake slot.

A fake row's filter and payload cells are covered by no tag: the chains
verification folds are per real cell-id, and a fake is recognised by its
index key alone.  So a host can copy a matching real row's filter and
payload cells into a fake slot of the bin it serves, keep the fake's
index key, and every chain still checks.  STEP 4 must then filter and
decrypt only the rows verification authenticated as real — or the
point query's COUNT grows by one with ``verified: True``.

Plain and replicated engines, the sidecar and the trapdoor fetch kinds,
and the oblivious filter, over COUNT / SUM / DISTINCT_COUNT / COLLECT:
the answer equals the cleartext oracle's, or the query raises a typed
error.
"""

from __future__ import annotations

import pytest

from repro.core.packed import PackedBin
from repro.core.queries import Aggregate, PointQuery, resolve_predicate
from repro.exceptions import IntegrityViolation
from repro.storage.table import Row

from tests.conftest import is_fake_row, make_stack
from tests.replication.conftest import SPEC, make_replicated_stack, replication_records

RECORDS = replication_records()
AGGREGATES = {
    "count": (Aggregate.COUNT, None),
    "sum": (Aggregate.SUM, "time"),
    "distinct": (Aggregate.DISTINCT_COUNT, "observation"),
    "collect": (Aggregate.COLLECT, None),
}


def _oracle(location, timestamp, aggregate, target):
    hits = [r for r in RECORDS if r[0] == location and r[1] == timestamp]
    if aggregate is Aggregate.COUNT:
        return len(hits)
    if aggregate is Aggregate.SUM:
        return sum(r[1] for r in hits)
    if aggregate is Aggregate.DISTINCT_COUNT:
        return len({r[2] for r in hits})
    return sorted(hits)


def _forge(context, rows: list[Row], filter_cell: bytes) -> list[Row]:
    """The first fake row now carries a matching real row's filter and
    payload cells under its own index key."""
    real = next(
        (r for r in rows if not is_fake_row(context, r) and r.columns[0] == filter_cell),
        None,
    )
    fake = next((j for j, r in enumerate(rows) if is_fake_row(context, r)), None)
    if real is None or fake is None:
        return rows
    forged = Row(rows[fake].row_id, real.columns[:-1] + rows[fake].columns[-1:])
    return rows[:fake] + [forged] + rows[fake + 1:]


def _target(context):
    """A (location, timestamp) whose bin holds fakes and a matching row."""
    for location, timestamp, _ in RECORDS:
        cell = context.grid.place_values((location,), timestamp)
        if context.layout.bin_of_cell_id(cell).fake_count:
            return location, timestamp
    raise AssertionError("no bin of this epoch holds fakes")


def _stack(topology, kind):
    """(service, the engine whose answers the host bends)."""
    if topology == "replicated":
        _, service, engine, members, _ = make_replicated_stack(RECORDS, replicas=2)
        if kind == "trapdoor":
            table = service.context_for(0).table_name
            for member in members:
                member.inner._tables[table].packed_bins = None
        return service, members[0]
    _, service = make_stack(
        SPEC, RECORDS, verify=True, oblivious=topology == "oblivious",
        sidecar=kind == "sidecar",
    )
    return service, service.engine


CASES = [
    (topology, kind)
    for topology in ("plain", "replicated", "oblivious")
    for kind in ("sidecar", "trapdoor")
    if not (topology == "oblivious" and kind == "sidecar")
]


@pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
@pytest.mark.parametrize("topology,kind", CASES)
def test_a_fake_slot_carrying_a_real_rows_cells_adds_nothing(
    monkeypatch, topology, kind, aggregate
):
    service, source = _stack(topology, kind)
    context = service.context_for(0)
    location, timestamp = _target(context)
    agg, target = AGGREGATES[aggregate]
    query = PointQuery(
        index_values=(location,), timestamp=timestamp, aggregate=agg, target=target
    )
    (filter_cell,) = context.filters_for(resolve_predicate(query, context.schema), [timestamp])
    forged = []

    def bend_rows(honest):
        def lookup_many(*args, **kwargs):
            rows = honest(*args, **kwargs)
            bent = _forge(context, rows, filter_cell)
            forged.append(bent != rows)
            return bent
        return lookup_many

    def bend_bin(honest):
        def fetch_packed_bin(*args, **kwargs):
            packed = honest(*args, **kwargs)
            if packed is None:
                return None
            rows = packed.unpack()
            bent = _forge(context, rows, filter_cell)
            forged.append(bent != rows)
            return PackedBin.pack(packed.bin_index, bent)
        return fetch_packed_bin

    method, bend = (
        ("fetch_packed_bin", bend_bin) if kind == "sidecar" else ("lookup_many", bend_rows)
    )
    monkeypatch.setattr(source, method, bend(getattr(source, method)))
    try:
        answer, stats = service.execute_point(query)
    except IntegrityViolation:
        return  # a typed refusal is never a wrong answer
    assert forged and all(forged)  # the host really did serve the forgery
    assert stats.verified
    if agg is Aggregate.COLLECT:
        answer = sorted(answer)
    assert answer == _oracle(location, timestamp, agg, target)
