"""The two fetch kinds: parity and fallback.

Two contracts:

1. **Bit-identical answers** — an epoch landed with its packed sidecar
   ("packed") and the same epoch landed without it, read by trapdoor
   ("scalar"), return byte-identical answers for points, multipoint
   ranges, match-only COUNTs and decrypting DISTINCT_COUNTs, verify on
   and off.
2. **Fallback is invisible** — any row mutation on the underlying
   table (including tampering that bypasses the engine wrappers)
   drops the derived packed sidecar, and the trapdoor fetch still
   answers correctly / still detects the tamper.
"""

from __future__ import annotations

import pytest

from repro import GridSpec
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import IntegrityViolation
from tests.conftest import make_stack

EPOCH_DURATION = 600
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


def _records(seed: int):
    """Deterministic per-seed dataset (same shape, different content)."""
    return [
        (f"ap{(t // 60 + d * seed) % 4}", t, f"dev{seed}-{d}")
        for t in range(0, EPOCH_DURATION, 60)
        for d in range(8)
    ]


def _query_mix(records):
    location, timestamp, _ = records[0]
    other = records[len(records) // 2][0]
    return [
        PointQuery(index_values=(location,), timestamp=timestamp),
        PointQuery(
            index_values=(location,),
            timestamp=timestamp,
            aggregate=Aggregate.DISTINCT_COUNT,
            target="observation",
        ),
        RangeQuery(index_values=(other,), time_start=0, time_end=300),
        RangeQuery(
            index_values=(other,),
            time_start=60,
            time_end=240,
            aggregate=Aggregate.COLLECT,
        ),
    ]


def _answers(service, queries):
    out = []
    for query in queries:
        if isinstance(query, PointQuery):
            out.append(service.execute_point(query)[0])
        else:
            out.append(service.execute_range(query, method="multipoint")[0])
    return out


class TestPackedScalarParity:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    @pytest.mark.parametrize("verify", [False, True])
    def test_answers_identical_across_paths(self, seed, verify):
        records = _records(seed)
        queries = _query_mix(records)
        _, packed = make_stack(SPEC, records, verify=verify)
        _, scalar = make_stack(SPEC, records, verify=verify, sidecar=False)
        assert _answers(packed, queries) == _answers(scalar, queries)

    def test_batch_answers_identical_across_paths(self):
        records = _records(3)
        queries = [
            PointQuery(index_values=(location,), timestamp=timestamp)
            for location, timestamp, _ in records[::7]
        ]
        _, packed = make_stack(SPEC, records, verify=True)
        _, scalar = make_stack(SPEC, records, verify=True, sidecar=False)
        assert packed.execute_batch(queries) == scalar.execute_batch(queries)

    def test_packed_stack_actually_serves_packed_bins(self):
        _, service = make_stack(SPEC, _records(1), verify=True)
        table = next(iter(service.engine._tables.values()))
        assert table.packed_bins, "ingest must store the packed sidecar"

    def test_oblivious_mode_forces_scalar(self):
        # The oblivious schedule is a different security contract; the
        # sidecar must never be installed, let alone read, under it.
        records = _records(1)
        _, service = make_stack(SPEC, records, oblivious=True)
        assert not service.engine.has_packed_bins("epoch_0")
        # ...and even one planted on the engine is passed over.
        service.engine.store_packed_bins(
            "epoch_0", service._packages[0].packed_bins
        )
        service.execute_point(
            PointQuery(index_values=(records[0][0],), timestamp=records[0][1])
        )
        kinds = {event.kind.value for event in service.engine.access_log}
        assert "index_lookup" in kinds and "bin_read" not in kinds


class TestFallback:
    def test_any_table_mutation_drops_the_sidecar(self):
        _, service = make_stack(SPEC, _records(1), verify=True)
        table = next(iter(service.engine._tables.values()))
        assert table.packed_bins is not None
        row = next(iter(table.scan()))
        table.overwrite(row.row_id, list(row.columns))
        assert table.packed_bins is None

    def test_tamper_behind_the_engine_is_still_detected(self):
        records = _records(1)
        _, service = make_stack(SPEC, records, verify=True)
        table = next(iter(service.engine._tables.values()))
        for row in list(table.scan()):
            columns = list(row.columns)
            columns[0] = b"\x00" * len(columns[0])
            table.overwrite(row.row_id, columns)
        with pytest.raises(IntegrityViolation):
            for location, timestamp, _ in records[::10]:
                service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )

    def test_scalar_fallback_after_invalidation_answers_correctly(self):
        records = _records(1)
        queries = _query_mix(records)
        _, service = make_stack(SPEC, records, verify=True)
        before = _answers(service, queries)
        # A benign no-op rewrite of one row: sidecar gone, answers not.
        table = next(iter(service.engine._tables.values()))
        row = next(iter(table.scan()))
        table.overwrite(row.row_id, list(row.columns))
        assert table.packed_bins is None
        assert _answers(service, queries) == before
