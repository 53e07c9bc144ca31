"""TrapdoorTable: LRU behaviour, EPC charging, and generation fences.

The table is asked a whole request at a time (``lookup_many`` /
``insert_many``).  ``ReferenceTrapdoorTable`` below is the scalar
``lookup`` / ``insert`` loop it replaced, kept as the model: over random
operation streams both must agree on entries and LRU order, counters,
occupancy, EPC and every EPC charge attempt.  Where they may differ is
the one race the batch API closes — a fill racing a rewrite or a key
rotation is admitted by neither the batch table nor, any more, STEP 3.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict

import pytest

from repro import GridSpec, telemetry
from repro.core.queries import PointQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.core.trapdoor_table import (
    ENTRY_ESTIMATE_BYTES,
    TrapdoorTable,
    _Entry,
    _evictions,
    _hits,
    _misses,
    _occupancy,
)
from repro.exceptions import EnclaveCrashed, EnclaveMemoryError
from repro.telemetry import scoped_registry
from tests.conftest import make_stack

EPOCH_DURATION = 600
SPEC = GridSpec(
    dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=EPOCH_DURATION
)


class FakeEnclave:
    """EPC ledger with a high-water mark, a count of charge attempts and,
    optionally, a seeded ``enclave.epc.exhaust``-like draw per attempt
    and a kill at one attempt (a crashed enclave refuses every ecall)."""

    def __init__(self, budget: int = 1 << 20, exhaust: float = 0.0, seed: int = 0,
                 crash_at: int | None = None):
        self.budget = budget
        self.crash_at = crash_at
        self.charged = 0
        self.high_water = 0
        self.charge_attempts = 0
        self.key_generation = 0
        self.exhaust = exhaust
        self._draws = random.Random(seed)

    def charge_memory(self, amount: int) -> None:
        self.charge_attempts += 1
        if self.charge_attempts == self.crash_at:
            raise EnclaveCrashed("killed mid-fill")
        if self.exhaust and self._draws.random() < self.exhaust:
            raise EnclaveMemoryError("EPC exhausted (injected)")
        if self.charged + amount > self.budget:
            raise EnclaveMemoryError("EPC exhausted")
        self.charged += amount
        self.high_water = max(self.high_water, self.charged)

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


def lookup(table, key):
    """One key's memoized trapdoor, through the batch API."""
    (found,), _ = table.lookup_many([key])
    return found


def insert(table, key, trapdoor) -> bool:
    """One fill stamped with the fence as it reads now (an empty
    lookup is the stamp and nothing else)."""
    _, stamp = table.lookup_many(())
    return table.insert_many([(key, trapdoor)], stamp) == 1


class TestLru:
    def test_miss_then_hit(self):
        table, _, _ = _table()
        found, stamp = table.lookup_many([KEY_A])
        assert found == [None]
        assert table.insert_many([(KEY_A, b"td-a")], stamp) == 1
        assert lookup(table, KEY_A) == b"td-a"

    def test_a_request_is_answered_in_order(self):
        table, _, _ = _table()
        _, stamp = table.lookup_many([KEY_A, KEY_B])
        table.insert_many([(KEY_B, b"b")], stamp)
        assert table.lookup_many([KEY_A, KEY_B, KEY_A]) == ([None, b"b", None], stamp)

    def test_capacity_evicts_least_recent(self):
        table, _, _ = _table(capacity=2)
        insert(table, KEY_A, b"a")
        insert(table, KEY_B, b"b")
        lookup(table, KEY_A)  # A is now most recent
        insert(table, (0, "t", "fake", 9, 0), b"c")
        assert KEY_A in table
        assert KEY_B not in table

    def test_zero_capacity_disables(self):
        table, _, _ = _table(capacity=0)
        assert not insert(table, KEY_A, b"a")
        assert lookup(table, KEY_A) is None

    def test_replacing_existing_key_keeps_charge_balanced(self):
        table, enclave, _ = _table()
        insert(table, KEY_A, b"a1")
        insert(table, KEY_A, b"a2")
        assert lookup(table, KEY_A) == b"a2"
        assert enclave.charged == ENTRY_ESTIMATE_BYTES == table.resident_bytes


class TestEpcCharging:
    def test_insert_skipped_when_epc_full(self):
        table, enclave, _ = _table(budget=ENTRY_ESTIMATE_BYTES)
        assert insert(table, KEY_A, b"a")
        assert not insert(table, KEY_B, b"b")  # cannot charge — not memoized
        assert KEY_B not in table
        assert enclave.charged == ENTRY_ESTIMATE_BYTES

    def test_a_fill_charges_entry_by_entry(self):
        """A pair the EPC cannot cover is skipped, the rest of the fill
        still lands; one charge attempt per pair."""
        table, enclave, _ = _table(budget=ENTRY_ESTIMATE_BYTES)
        _, stamp = table.lookup_many([KEY_A, KEY_B])
        assert table.insert_many([(KEY_A, b"a"), (KEY_B, b"b")], stamp) == 1
        assert (KEY_A in table, KEY_B in table) == (True, False)
        assert enclave.charge_attempts == 2

    def test_eviction_releases_charge(self):
        table, enclave, _ = _table(capacity=1)
        insert(table, KEY_A, b"a")
        insert(table, KEY_B, b"b")
        assert enclave.charged == ENTRY_ESTIMATE_BYTES
        table.invalidate_all()
        assert enclave.charged == 0


class TestFences:
    def test_engine_generation_fence(self):
        table, _, engine = _table()
        insert(table, KEY_A, b"a")
        engine.rewrite_generation += 1
        assert lookup(table, KEY_A) is None
        assert KEY_A not in table

    def test_rewrite_in_flight_blocks_both_sides(self):
        table, _, engine = _table()
        insert(table, KEY_A, b"a")
        engine.rewrite_in_progress = True
        assert lookup(table, KEY_A) is None
        assert not insert(table, KEY_B, b"b")

    def test_key_generation_fence(self):
        table, enclave, _ = _table()
        insert(table, KEY_A, b"a")
        enclave.key_generation += 1  # key rotation / re-provision
        assert lookup(table, KEY_A) is None

    @pytest.mark.parametrize("move", ["rewrite", "rotation", "rewrite-begun"])
    def test_a_fill_racing_a_fence_is_not_admitted(self, move):
        """The stamp is the fence as it read at lookup time: a fill
        whose derivation spanned a rewrite or a rotation lands nothing."""
        table, enclave, engine = _table()
        found, stamp = table.lookup_many([KEY_A])
        if move == "rewrite":
            engine.rewrite_generation += 2  # begin_rewrite … end_rewrite
        elif move == "rotation":
            enclave.key_generation += 1
        else:
            engine.rewrite_in_progress = True
        assert table.insert_many([(KEY_A, b"a")], stamp) == 0
        assert len(table) == 0 and enclave.charge_attempts == 0
        engine.rewrite_in_progress = False
        _, stamp = table.lookup_many([KEY_A])
        assert table.insert_many([(KEY_A, b"a")], stamp) == 1

    def test_rebind_enclave_drops_without_release(self):
        table, enclave, _ = _table()
        insert(table, KEY_A, b"a")
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
        found, _ = table.lookup_many(list(stale))
        assert found == [None] * len(stale)

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


# ----------------------------------------- STEP 3 racing a fence, served


class TestStepThreeRacingAFence:
    """A trapdoor derived while a rewrite or a rotation completed must
    not be memoized under the new fence (as ``BinCache`` stamps a bin
    before its fetch).  Stamping at fill time admitted it, and the table
    served it from then on."""

    def _stack(self):
        return TestServiceIntegration()._stack()

    def _race(self, monkeypatch, service, move):
        from repro.crypto.kernels import DeterministicCipher

        context = service.context_for(0)
        encrypt_many = DeterministicCipher.encrypt_many
        raced = []

        def racing(cipher, plaintexts, *args, **kwargs):
            if cipher is context.det and not raced:  # STEP 3's misses
                raced.append(move())
            return encrypt_many(cipher, plaintexts, *args, **kwargs)

        monkeypatch.setattr(DeterministicCipher, "encrypt_many", racing)
        service.execute_point(PointQuery(index_values=("ap1",), timestamp=60))
        assert raced

    def test_a_rewrite_completing_mid_derivation(self, monkeypatch):
        _, service = self._stack()
        engine = service.engine
        self._race(monkeypatch, service, lambda: (engine.begin_rewrite(), engine.end_rewrite()))
        assert len(service.trapdoor_table) == 0

    def test_a_rotation_bumping_the_key_generation_mid_derivation(self, monkeypatch):
        _, service = self._stack()
        enclave = service.enclave

        def rotate():
            enclave._key_generation += 1

        self._race(monkeypatch, service, rotate)
        assert len(service.trapdoor_table) == 0
        with scoped_registry() as registry:
            service.execute_point(PointQuery(index_values=("ap1",), timestamp=60))
            assert registry.value("concealer_trapdoor_table_hits_total") == 0


# ------------------------------------------- batch vs. the scalar model


class ReferenceTrapdoorTable:
    """The scalar table the batch API replaced, verbatim in behaviour:
    one lock, fence read and counter increment per key, entries stamped
    with the fence at fill time."""

    def __init__(self, enclave, engine, capacity, entry_bytes=ENTRY_ESTIMATE_BYTES):
        self.enclave, self.engine = enclave, engine
        self.capacity, self.entry_bytes = capacity, entry_bytes
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.RLock()

    def _stale(self, entry):
        if getattr(self.engine, "rewrite_in_progress", False):
            return True
        if entry.engine_generation != self.engine.rewrite_generation:
            return True
        return entry.key_generation != self.enclave.key_generation

    def lookup(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._stale(entry):
                self._evict(key, "generation")
                entry = None
            if entry is None:
                _misses().inc()
                return None
            self._entries.move_to_end(key)
            _hits().inc()
            return entry.trapdoor

    def insert(self, key, trapdoor):
        if self.capacity <= 0:
            return False
        if getattr(self.engine, "rewrite_in_progress", False):
            return False
        with self._lock:
            if key in self._entries:
                self._evict(key, "replaced")
            try:
                self.enclave.charge_memory(self.entry_bytes)
            except EnclaveMemoryError:
                _evictions().labels(reason="epc-full").inc()
                return False
            while len(self._entries) >= self.capacity:
                self._evict(next(iter(self._entries)), "capacity")
            self._entries[key] = _Entry(
                trapdoor, self.engine.rewrite_generation, self.enclave.key_generation
            )
            _occupancy().set(len(self._entries))
            return True

    def invalidate_all(self, reason="clear", release=True):
        with self._lock:
            dropped = len(self._entries)
            for key in list(self._entries):
                self._evict(key, reason, release=release)
            return dropped

    def _evict(self, key, reason, release=True):
        if self._entries.pop(key, None) is None:
            return
        if release:
            self.enclave.release_memory(self.entry_bytes)
        _evictions().labels(reason=reason).inc()
        _occupancy().set(len(self._entries))


_FAMILIES = (
    "concealer_trapdoor_table_hits_total",
    "concealer_trapdoor_table_misses_total",
    "concealer_trapdoor_table_evictions_total",
    "concealer_trapdoor_table_entries",
)


def _replay(make, ops, capacity, budget, exhaust, seed, crash_at=None):
    """Run ``ops`` on a fresh table from ``make``; everything the two
    implementations must agree on, step by step."""
    enclave, engine = FakeEnclave(budget, exhaust, seed, crash_at), FakeEngine()
    table = make(enclave, engine, capacity)
    seen = []
    with telemetry.scoped_registry() as registry:
        for op, arg in ops:
            if op == "request":  # STEP 3: look the slots up, fill the misses
                try:
                    if isinstance(table, ReferenceTrapdoorTable):
                        found = [table.lookup(key) for key in arg]
                        for key, hit in zip(arg, found):
                            if hit is None:
                                table.insert(key, repr(key).encode())
                    else:
                        found, stamp = table.lookup_many(arg)
                        table.insert_many(
                            [(key, repr(key).encode()) for key, hit in zip(arg, found) if hit is None],
                            stamp,
                        )
                except EnclaveCrashed:
                    found = "crashed"
                seen.append(found)
            elif op == "engine":
                engine.rewrite_generation += 1
            elif op == "key":
                enclave.key_generation += 1
            elif op == "rewrite":
                engine.rewrite_in_progress = arg
            elif op == "budget":
                enclave.budget = arg
            else:
                table.invalidate_all(reason=arg)
            seen.append((
                list(table._entries.items()),
                enclave.charged, enclave.high_water, enclave.charge_attempts,
            ))
        snapshot = registry.snapshot()
    seen.append({name: snapshot.get(name) for name in _FAMILIES})
    return seen


def _ops(rng, keys):
    ops = []
    for _ in range(rng.randrange(5, 40)):
        op = rng.choices(
            ["request", "engine", "key", "rewrite", "budget", "invalidate"],
            weights=[12, 1, 1, 2, 1, 1],
        )[0]
        if op == "request":  # distinct slots, as STEP 3 asks (repeats too)
            ask = rng.sample(keys, rng.randrange(0, len(keys) + 1))
            if ask and rng.random() < 0.2:
                ask.append(rng.choice(ask))
            ops.append((op, ask))
        elif op == "rewrite":
            ops.append((op, rng.random() < 0.5))
        elif op == "budget":
            ops.append((op, ENTRY_ESTIMATE_BYTES * rng.randrange(0, 12)))
        elif op == "invalidate":
            ops.append((op, rng.choice(["clear", "rotation"])))
        else:
            ops.append((op, None))
    return ops


@pytest.mark.parametrize("seed", range(60))
def test_batch_table_agrees_with_the_scalar_model(seed):
    rng = random.Random(seed)
    keys = [(0, "t", "real", cid, j) for cid in range(4) for j in range(1, 4)]
    keys += [(0, "t", "fake", fid, 0) for fid in range(1, 4)]
    capacity = rng.choice([0, 1, 3, 8, 64])
    budget = ENTRY_ESTIMATE_BYTES * rng.choice([0, 2, 6, 1 << 10])
    exhaust = rng.choice([0.0, 0.0, 0.2])
    ops = _ops(rng, keys)
    crash_at = rng.choice([None, None, rng.randrange(1, 40)])
    batch = _replay(TrapdoorTable, ops, capacity, budget, exhaust, seed, crash_at)
    reference = _replay(ReferenceTrapdoorTable, ops, capacity, budget, exhaust, seed, crash_at)
    assert batch == reference


def test_the_model_covers_every_eviction_reason_and_a_fence():
    """The property above would pass over streams that never stale an
    entry or fill the EPC; these seeds reach every branch."""
    reasons, fenced = set(), 0
    for seed in range(60):
        rng = random.Random(seed)
        keys = [(0, "t", "real", cid, j) for cid in range(4) for j in range(1, 4)]
        keys += [(0, "t", "fake", fid, 0) for fid in range(1, 4)]
        capacity = rng.choice([0, 1, 3, 8, 64])
        budget = ENTRY_ESTIMATE_BYTES * rng.choice([0, 2, 6, 1 << 10])
        exhaust = rng.choice([0.0, 0.0, 0.2])
        ops = _ops(rng, keys)
        families = _replay(TrapdoorTable, ops, capacity, budget, exhaust, seed)[-1]
        evictions = families["concealer_trapdoor_table_evictions_total"] or {"samples": []}
        reasons |= {sample["labels"]["reason"] for sample in evictions["samples"]}
        fenced += any(op == "rewrite" and arg for op, arg in ops)
    assert {"generation", "capacity", "epc-full", "replaced"} <= reasons
    assert fenced


def test_concurrent_requests_keep_the_ledger_and_the_bound():
    """Parallel prefetch workers ask for overlapping requests at once:
    with the interpreter switching threads every few bytecodes, the EPC
    charged must still be one entry's worth per resident entry, and the
    table never above its capacity."""
    import sys

    table, enclave, _ = _table(capacity=16)
    keys = [(0, "t", "real", cid, j) for cid in range(8) for j in range(1, 5)]
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                ask = rng.sample(keys, 6)
                found, stamp = table.lookup_many(ask)
                table.insert_many(
                    [(key, repr(key).encode()) for key, hit in zip(ask, found) if hit is None],
                    stamp,
                )
                assert all(hit in (None, repr(key).encode()) for key, hit in zip(ask, found))
        except Exception as error:  # reported on the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert 0 < len(table) <= 16
    assert enclave.charged == table.resident_bytes == len(table) * ENTRY_ESTIMATE_BYTES
