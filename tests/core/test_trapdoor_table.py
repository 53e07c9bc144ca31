"""TrapdoorTable: LRU behaviour, EPC charging, and generation fences."""

from __future__ import annotations

import pytest

from repro import GridSpec
from repro.core.queries import PointQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.core.trapdoor_table import ENTRY_ESTIMATE_BYTES, TrapdoorTable
from repro.exceptions import EnclaveMemoryError
from repro.telemetry import scoped_registry
from tests.conftest import make_stack

EPOCH_DURATION = 600
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


class FakeEnclave:
    def __init__(self, budget: int = 1 << 20):
        self.budget = budget
        self.charged = 0
        self.key_generation = 0

    def charge_memory(self, amount: int) -> None:
        if self.charged + amount > self.budget:
            raise EnclaveMemoryError("EPC exhausted")
        self.charged += amount

    def release_memory(self, amount: int) -> None:
        self.charged -= amount


class FakeEngine:
    def __init__(self):
        self.rewrite_generation = 0
        self.rewrite_in_progress = False


def _table(capacity=4, budget=1 << 20):
    enclave, engine = FakeEnclave(budget), FakeEngine()
    return TrapdoorTable(enclave, engine, capacity=capacity), enclave, engine


KEY_A = (0, "t", "real", 3, 1)
KEY_B = (0, "t", "real", 3, 2)


class TestLru:
    def test_miss_then_hit(self):
        table, _, _ = _table()
        assert table.lookup(KEY_A) is None
        assert table.insert(KEY_A, b"td-a")
        assert table.lookup(KEY_A) == b"td-a"

    def test_capacity_evicts_least_recent(self):
        table, _, _ = _table(capacity=2)
        table.insert(KEY_A, b"a")
        table.insert(KEY_B, b"b")
        table.lookup(KEY_A)  # A is now most recent
        table.insert((0, "t", "fake", 9, 0), b"c")
        assert KEY_A in table
        assert KEY_B not in table

    def test_zero_capacity_disables(self):
        table, _, _ = _table(capacity=0)
        assert not table.insert(KEY_A, b"a")
        assert table.lookup(KEY_A) is None

    def test_replacing_existing_key_keeps_charge_balanced(self):
        table, enclave, _ = _table()
        table.insert(KEY_A, b"a1")
        table.insert(KEY_A, b"a2")
        assert table.lookup(KEY_A) == b"a2"
        assert enclave.charged == ENTRY_ESTIMATE_BYTES == table.resident_bytes


class TestEpcCharging:
    def test_insert_skipped_when_epc_full(self):
        table, enclave, _ = _table(budget=ENTRY_ESTIMATE_BYTES)
        assert table.insert(KEY_A, b"a")
        assert not table.insert(KEY_B, b"b")  # cannot charge — not memoized
        assert KEY_B not in table
        assert enclave.charged == ENTRY_ESTIMATE_BYTES

    def test_eviction_releases_charge(self):
        table, enclave, _ = _table(capacity=1)
        table.insert(KEY_A, b"a")
        table.insert(KEY_B, b"b")
        assert enclave.charged == ENTRY_ESTIMATE_BYTES
        table.invalidate_all()
        assert enclave.charged == 0


class TestFences:
    def test_engine_generation_fence(self):
        table, _, engine = _table()
        table.insert(KEY_A, b"a")
        engine.rewrite_generation += 1
        assert table.lookup(KEY_A) is None
        assert KEY_A not in table

    def test_rewrite_in_flight_blocks_both_sides(self):
        table, _, engine = _table()
        table.insert(KEY_A, b"a")
        engine.rewrite_in_progress = True
        assert table.lookup(KEY_A) is None
        assert not table.insert(KEY_B, b"b")

    def test_key_generation_fence(self):
        table, enclave, _ = _table()
        table.insert(KEY_A, b"a")
        enclave.key_generation += 1  # key rotation / re-provision
        assert table.lookup(KEY_A) is None

    def test_rebind_enclave_drops_without_release(self):
        table, enclave, _ = _table()
        table.insert(KEY_A, b"a")
        replacement = FakeEnclave()
        table.rebind_enclave(replacement)
        assert len(table) == 0
        # Old enclave's EPC died with it; the new one starts unencumbered.
        assert replacement.charged == 0


class TestServiceIntegration:
    def _stack(self, **config):
        records = [
            (f"ap{d % 4}", t, f"dev{d}")
            for t in range(0, EPOCH_DURATION, 60)
            for d in range(6)
        ]
        # Landed without the sidecar: a sidecar read derives no per-row
        # trapdoors, so only the trapdoor fetch exercises the memo.
        return make_stack(SPEC, records, verify=True, sidecar=False, **config)

    def test_repeat_query_hits_table(self):
        with scoped_registry() as registry:
            _, service = self._stack()
            query = PointQuery(index_values=("ap1",), timestamp=60)
            first = service.execute_point(query)[0]
            misses_after_cold = registry.value(
                "concealer_trapdoor_table_misses_total"
            )
            second = service.execute_point(query)[0]
            assert first == second
            assert registry.value("concealer_trapdoor_table_hits_total") > 0
            # The warm pass derived nothing new.
            assert (
                registry.value("concealer_trapdoor_table_misses_total")
                == misses_after_cold
            )

    def test_rotation_flushes_table_and_queries_still_work(self):
        provider, service = self._stack()
        query = PointQuery(index_values=("ap1",), timestamp=60)
        before = service.execute_point(query)[0]
        assert len(service.trapdoor_table) > 0
        new_master = bytes(reversed(range(32)))
        rotate_service_keys(
            service, new_master, rotation_token(provider.master_key, new_master)
        )
        provider.adopt_master(new_master)
        assert len(service.trapdoor_table) == 0
        assert service.execute_point(query)[0] == before

    def test_stale_entries_never_served_even_without_flush(self):
        """Belt (explicit flush) and braces (key-generation fence):
        even if rotation forgot to flush, the fence refuses old-key
        trapdoors."""
        provider, service = self._stack()
        query = PointQuery(index_values=("ap1",), timestamp=60)
        service.execute_point(query)
        table = service.trapdoor_table
        stale = {k: e for k, e in table._entries.items()}
        assert stale
        # Simulate a missed flush: re-insert pre-rotation entries after
        # the key generation moved.
        service.enclave._key_generation += 1
        for key, entry in stale.items():
            table._entries[key] = entry
        for key in stale:
            assert table.lookup(key) is None

    def test_oblivious_mode_has_no_table(self):
        _, service = self._stack(oblivious=True)
        assert service.trapdoor_table is None

    def test_knob_disables_table(self):
        _, service = self._stack(trapdoor_table_slots=0)
        assert service.trapdoor_table is None
        query = PointQuery(index_values=("ap1",), timestamp=60)
        assert service.execute_point(query)[0] is not None


class TestConstruction:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TrapdoorTable(FakeEnclave(), FakeEngine(), capacity=-1)
