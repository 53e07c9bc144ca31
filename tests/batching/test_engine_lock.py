"""Every storage read on the query path holds ``BinFetcher._engine_lock``.

Storage engines are not reentrant, and nothing stops two threads from
calling one service at once, so each storage round-trip of a query — a
sidecar read of whole bins or slot runs, a trapdoor lookup, the tree
sidecar's meta or nodes — runs under the fetcher's engine lock, for
every range method and both fetch kinds.
The first query on a fresh service also reads what a warm one skips
(the tree meta the epoch context caches).
"""

import pytest

from repro import GridSpec
from repro.core.queries import RangeQuery
from tests.conftest import TIME_STEP, make_stack

SPEC = GridSpec(dimension_sizes=(4, 12), cell_id_count=24, epoch_duration=3600)
RECORDS = [
    (f"ap{(t // TIME_STEP + d) % 4}", t, f"dev{d}")
    for t in range(0, 3600, TIME_STEP)
    for d in range(6)
]
READS = ("fetch_packed_bin", "lookup_many", "fetch_agg_tree_meta", "fetch_tree_nodes")


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "trapdoor"])
@pytest.mark.parametrize("method", ["multipoint", "ebpb", "winsecrange", "tree", "auto"])
def test_every_query_read_holds_the_engine_lock(method, sidecar, monkeypatch):
    _, service = make_stack(SPEC, RECORDS, verify=True, sidecar=sidecar)
    query = RangeQuery(index_values=("ap1",), time_start=0, time_end=1199)
    lock = service._fetcher._engine_lock
    engine = service.engine
    reads = []
    for name in READS:
        def held(*args, _read=getattr(engine, name), _name=name, **kwargs):
            reads.append((_name, lock.locked()))
            return _read(*args, **kwargs)

        monkeypatch.setattr(engine, name, held)
    service.execute_range(query, method=method)
    assert reads, "the query read nothing"
    assert [name for name, held in reads if not held] == []
