"""A slot-run read tells the host nothing it did not already know.

SECURITY.md item 8's argument, checked on a fixed eBPB / winSecRange
stream.  One epoch is served twice: landed without its sidecar, so every
fetch goes by trapdoor, and sealed, so every fetch reads slot runs of
the sidecar bins.  Per query, the host's ``ROW_READ`` / ``PAGE_READ``
stream is the same, and the runs the run kind asked for are what the
trapdoor kind's row ids give, fetch by fetch, when cut into maximal runs
of adjacent slots of the sidecar the host stores.  Only the head events
differ: one ``BIN_READ`` per run in place of one ``INDEX_LOOKUP`` per
row.
"""

from __future__ import annotations

import pytest

from repro import GridSpec, telemetry
from repro.core.queries import RangeQuery
from repro.storage.engine import StorageEngine
from repro.storage.pager import AccessKind
from tests.conftest import as_trapdoor_heads, make_stack

SPEC = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
RECORDS = [
    (f"ap{(t // 60 + d) % 4}", t, f"dev{d % 5}")
    for t in range(0, 600, 60)
    for d in range(8)
]
LOCATIONS = tuple(sorted({record[0] for record in RECORDS}))
# Narrow and wide, one location and all of them: the wide eBPB ranges
# pad past the fake pool, so their fakes cycle.
STREAM = [
    ("ebpb", ("ap1",), 60, 240),
    ("ebpb", (LOCATIONS,), 0, 300),
    ("winsecrange", ("ap2",), 0, 599),
    ("ebpb", ("ap3",), 120, 179),
    ("winsecrange", (LOCATIONS,), 240, 479),
    ("ebpb", (LOCATIONS,), 0, 599),
]


def rebuild_runs(row_ids, sidecar):
    """What the host can compute itself: a fetch's row ids, cut into
    maximal runs ``(bin, start, stop)`` of adjacent slots of one bin."""
    where = {
        row_id: (index, slot)
        for index, packed in sidecar.items()
        for slot, row_id in enumerate(packed.row_ids)
    }
    runs: list[list[int]] = []
    for row_id in row_ids:
        index, slot = where[row_id]
        if runs and runs[-1][0] == index and runs[-1][2] == slot:
            runs[-1][2] += 1
        else:
            runs.append([index, slot, slot + 1])
    return [tuple(run) for run in runs]


def serve(sidecar, monkeypatch):
    """Run the stream; per query, the answer, the budgets, the rows each
    storage call read, the runs asked for, the row/page events and the
    real/fake split counted in the enclave."""
    _, service = make_stack(SPEC, RECORDS, verify=True, sidecar=sidecar)
    calls: list = []
    for name in ("lookup_many", "fetch_packed_bin"):
        original = getattr(StorageEngine, name)

        def spy(engine, *args, original=original):
            answer = original(engine, *args)
            if answer is not None:  # ``None``: no sidecar, nothing read
                calls.append([row.row_id for row in answer])
            return answer

        monkeypatch.setattr(StorageEngine, name, spy)
    log = service.engine.access_log
    out = []
    for method, index_values, start, end in STREAM:
        calls.clear()
        query = RangeQuery(index_values=index_values, time_start=start, time_end=end)
        with telemetry.scoped_registry() as registry:
            answer, stats = service.execute_range(query, method=method)
        events = log.events(query_id=log.last_query_id)
        out.append({
            "answer": answer,
            "budgets": stats.extra,
            "split": [registry.value("concealer_tuples_fetched_total", kind=kind)
                      for kind in ("real", "fake")],
            "fetched": stats.rows_fetched,
            "calls": list(calls),
            "runs": [e.detail for e in events if e.kind is AccessKind.BIN_READ],
            "rows": [(e.kind, e.detail) for e in events
                     if e.kind in (AccessKind.ROW_READ, AccessKind.PAGE_READ)],
            "lookups": sum(e.kind is AccessKind.INDEX_LOOKUP for e in events),
        })
    monkeypatch.undo()
    return service, out


def test_the_runs_are_the_trapdoor_row_ids_cut_by_the_sidecar(monkeypatch):
    _, by_trapdoor = serve(False, monkeypatch)
    sealed, by_runs = serve(True, monkeypatch)
    sidecar = sealed.engine._table("epoch_0").packed_bins
    cycled = 0
    for trapdoor, run in zip(by_trapdoor, by_runs):
        assert run["answer"] == trapdoor["answer"]
        assert run["budgets"] == trapdoor["budgets"]
        assert run["split"] == trapdoor["split"]
        assert run["rows"] == trapdoor["rows"]  # the same host-visible rows
        assert run["fetched"] == trapdoor["fetched"] == trapdoor["lookups"]
        assert run["lookups"] == 0 and not trapdoor["runs"]
        rebuilt = [r for row_ids in trapdoor["calls"] for r in rebuild_runs(row_ids, sidecar)]
        assert run["runs"] == rebuilt
        assert len(run["calls"]) == len(trapdoor["calls"])  # one storage call per fetch
        cycled += any(len(set(ids)) < len(ids) for ids in trapdoor["calls"])
    assert cycled  # some fetch padded past the pool and read a fake twice


def test_only_the_head_kind_changes(monkeypatch):
    """With each run's head rewritten as the per-row lookups the trapdoor
    kind made, the whole log is the trapdoor kind's, event for event."""
    trapdoor, _ = serve(False, monkeypatch)
    sealed, _ = serve(True, monkeypatch)
    assert list(as_trapdoor_heads(sealed.engine)) == list(trapdoor.engine.access_log)


@pytest.mark.parametrize("sidecar", [False, True], ids=["trapdoors", "runs"])
def test_every_fetch_reads_its_budget(monkeypatch, sidecar):
    """The eBPB budget, or the window budget, is every fetch's volume
    whichever kind reads it."""
    _, out = serve(sidecar, monkeypatch)
    for (method, *_), seen in zip(STREAM, out):
        budget = seen["budgets"]["window_size" if method == "winsecrange" else "ebpb_budget"]
        assert {len(ids) for ids in seen["calls"]} == {budget}
        assert sum(seen["split"]) == seen["fetched"]
