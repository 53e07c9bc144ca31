"""Tests for the storage engine façade and its access log."""

import pytest

from repro import telemetry
from repro.exceptions import (
    IndexNotFoundError,
    StorageError,
    TableNotFoundError,
    TransientStorageError,
)
from repro.faults.injector import FaultEvent, FaultInjector
from repro.storage.engine import StorageEngine
from repro.storage.pager import AccessEvent, AccessKind

from tests.conftest import stored_rows


@pytest.fixture
def engine():
    engine = StorageEngine(btree_order=8)
    engine.create_table("t", ["k", "v"])
    engine.create_index("t", "k")
    return engine


class TestDdl:
    def test_duplicate_table_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.create_table("t", ["x"])

    def test_missing_table_rejected(self, engine):
        with pytest.raises(TableNotFoundError):
            engine.insert("missing", [1, 2])

    def test_duplicate_index_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.create_index("t", "k")

    def test_missing_index_rejected(self, engine):
        with pytest.raises(IndexNotFoundError):
            engine.lookup("t", "v", b"x")

    def test_index_over_existing_rows(self):
        engine = StorageEngine()
        engine.create_table("t", ["k"])
        for i in range(10):
            engine.insert("t", [i % 3])
        engine.create_index("t", "k")
        assert len(engine.lookup("t", "k", 0)) == 4

    def test_drop_table(self, engine):
        engine.drop_table("t")
        assert not engine.has_table("t")
        with pytest.raises(TableNotFoundError):
            engine.row_count("t")


class TestDml:
    def test_insert_lookup(self, engine):
        engine.insert("t", [b"alpha", 1])
        engine.insert("t", [b"alpha", 2])
        engine.insert("t", [b"beta", 3])
        assert sorted(r[1] for r in engine.lookup("t", "k", b"alpha")) == [1, 2]

    def test_lookup_many_preserves_request_order(self, engine):
        engine.insert("t", [b"a", 1])
        engine.insert("t", [b"b", 2])
        rows = engine.lookup_many("t", "k", [b"b", b"a"])
        assert [r[1] for r in rows] == [2, 1]

    def test_delete_removes_index_entry(self, engine):
        rid = engine.insert("t", [b"a", 1])
        engine.delete("t", rid)
        assert engine.lookup("t", "k", b"a") == []

    def test_overwrite_moves_index_entry(self, engine):
        rid = engine.insert("t", [b"a", 1])
        engine.overwrite("t", rid, [b"z", 9])
        assert engine.lookup("t", "k", b"a") == []
        assert engine.lookup("t", "k", b"z")[0][1] == 9

    def test_scan(self, engine):
        for i in range(5):
            engine.insert("t", [bytes([i]), i])
        assert len(list(engine.scan("t"))) == 5

    def test_counters(self, engine):
        for i in range(7):
            engine.insert("t", [bytes([i % 2]), i])
        assert engine.row_count("t") == 7
        assert engine.index_size("t", "k") == 7


class TestAccessLog:
    def test_row_reads_logged_per_query(self, engine):
        for i in range(6):
            engine.insert("t", [b"k", i])
        qid = engine.access_log.begin_query()
        engine.lookup("t", "k", b"k")
        engine.access_log.end_query()
        assert engine.access_log.rows_fetched(qid) == 6

    def test_row_ids_fetched_are_physical_ids(self, engine):
        rid = engine.insert("t", [b"k", 0])
        qid = engine.access_log.begin_query()
        engine.lookup("t", "k", b"k")
        engine.access_log.end_query()
        assert engine.access_log.row_ids_fetched(qid) == [rid]

    def test_events_outside_query_scope_untagged(self, engine):
        engine.insert("t", [b"k", 0])
        engine.lookup("t", "k", b"k")
        reads = engine.access_log.events(AccessKind.ROW_READ)
        assert all(event.query_id is None for event in reads)

    def test_per_query_volumes(self, engine):
        for i in range(4):
            engine.insert("t", [b"a", i])
        engine.insert("t", [b"b", 9])
        q1 = engine.access_log.begin_query()
        engine.lookup("t", "k", b"a")
        engine.access_log.end_query()
        q2 = engine.access_log.begin_query()
        engine.lookup("t", "k", b"b")
        engine.access_log.end_query()
        volumes = engine.access_log.per_query_volumes()
        assert volumes[q1] == 4
        assert volumes[q2] == 1

    def test_index_lookup_detail_is_the_opaque_key(self, engine):
        engine.insert("t", [b"opaque-trapdoor", 0])
        engine.lookup("t", "k", b"opaque-trapdoor")
        lookups = engine.access_log.events(AccessKind.INDEX_LOOKUP)
        assert lookups[-1].detail == b"opaque-trapdoor"

    def test_page_reads_logged(self, engine):
        engine.insert("t", [b"k", 0])
        engine.lookup("t", "k", b"k")
        assert engine.access_log.events(AccessKind.PAGE_READ)

    def test_clear(self, engine):
        engine.insert("t", [b"k", 0])
        engine.access_log.clear()
        assert len(engine.access_log) == 0


class TestBatchedReadBookkeeping:
    """Batched reads log and count once per call — with per-row results."""

    ROWS = {b"a": [0, 1], b"b": [2, 3, 4], b"c": [5]}

    def _engine(self, injector=None):
        engine = StorageEngine(btree_order=8, rows_per_page=4, fault_injector=injector)
        engine.create_table("t", ["k", "v"])
        engine.create_index("t", "k")
        for key, row_ids in self.ROWS.items():
            for row_id in row_ids:
                assert engine.insert("t", [key, row_id]) == row_id
        engine.access_log.clear()
        return engine

    def _expected(self, rows_read: int) -> tuple[list[AccessEvent], int]:
        """The per-row stream up to ``rows_read`` rows, and the keys it took."""
        events, lookups = [], 0
        for key, row_ids in self.ROWS.items():
            events.append(AccessEvent(AccessKind.INDEX_LOOKUP, "t", key))
            lookups += 1
            for row_id in row_ids:
                if rows_read == 0:
                    return events, lookups
                rows_read -= 1
                events.append(AccessEvent(AccessKind.ROW_READ, "t", row_id))
                events.append(AccessEvent(AccessKind.PAGE_READ, "t", row_id // 4))
        return events, lookups

    def test_lookup_many_is_one_log_entry(self):
        engine = self._engine()
        with telemetry.scoped_registry() as registry:
            rows = engine.lookup_many("t", "k", list(self.ROWS))
        assert [row.row_id for row in rows] == [0, 1, 2, 3, 4, 5]
        assert len(engine.access_log._entries) == 1
        assert list(engine.access_log) == self._expected(6)[0]
        assert registry.value("concealer_storage_rows_read_total") == 6
        assert registry.value("concealer_index_lookups_total") == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_transient_fault_on_kth_row_keeps_the_first_k_minus_one(self, k):
        injector = FaultInjector.from_schedule(
            [FaultEvent("storage.read.transient", k - 1)]
        )
        engine = self._engine(injector)
        with telemetry.scoped_registry() as registry:
            with pytest.raises(TransientStorageError):
                engine.lookup_many("t", "k", list(self.ROWS))
        events, lookups = self._expected(k - 1)
        assert list(engine.access_log) == events
        assert registry.value("concealer_storage_rows_read_total") == k - 1
        assert registry.value("concealer_index_lookups_total") == lookups
        # One consultation per row attempted, the aborted one included.
        assert injector.consultations("storage.read.transient") == k

    def test_single_key_and_single_row_reads_share_the_stream(self):
        engine = self._engine()
        engine.lookup("t", "k", b"b")
        engine.lookup("t", "k", b"c")
        assert list(engine.access_log) == [
            AccessEvent(AccessKind.INDEX_LOOKUP, "t", b"b"),
            *(
                AccessEvent(kind, "t", detail)
                for row_id in (2, 3, 4)
                for kind, detail in (
                    (AccessKind.ROW_READ, row_id),
                    (AccessKind.PAGE_READ, row_id // 4),
                )
            ),
            AccessEvent(AccessKind.INDEX_LOOKUP, "t", b"c"),
            AccessEvent(AccessKind.ROW_READ, "t", 5),
            AccessEvent(AccessKind.PAGE_READ, "t", 1),
        ]

    def test_abandoned_scan_logs_only_the_rows_it_yielded(self):
        engine = self._engine()
        qid = engine.access_log.begin_query()
        scan = engine.scan("t")
        assert [next(scan).row_id, next(scan).row_id] == [0, 1]
        scan.close()
        engine.access_log.end_query()
        assert len(engine.access_log._entries) == 1
        assert [(e.kind, e.detail, e.query_id) for e in engine.access_log] == [
            (AccessKind.TABLE_SCAN, None, qid),
            (AccessKind.ROW_READ, 0, qid),
            (AccessKind.ROW_READ, 1, qid),
        ]


class TestBulkLanding:
    """``insert_many`` is the per-row loop, observably, and resumable."""

    ROWS = [[b"p%d" % i, b"k%02d" % ((i * 7) % 10)] for i in range(10)]

    def _engine(self, injector=None, order=4):
        engine = StorageEngine(btree_order=order, fault_injector=injector)
        engine.create_table("t", ["payload", "k"])
        engine.create_index("t", "k")
        return engine

    def _per_row(self, injector=None):
        """The loop the landing replaced: retry one ``insert`` at a time."""
        engine = self._engine(injector)
        for row in self.ROWS:
            while True:
                try:
                    engine.insert("t", row)
                    break
                except TransientStorageError:
                    pass
        return engine

    @staticmethod
    def _view(engine):
        return (
            list(engine.access_log),
            [(row.row_id, row.columns) for row in stored_rows(engine, "t")],
            list(engine._indexes[("t", "k")].items()),
            engine.index_size("t", "k"),
        )

    def test_one_run_one_increment_same_view(self):
        with telemetry.scoped_registry() as reference:
            expected = self._per_row()
        engine = self._engine()
        with telemetry.scoped_registry() as registry:
            assert engine.insert_many("t", self.ROWS) is None
        assert len(engine.access_log._entries) == 1
        assert self._view(engine) == self._view(expected)
        assert [e.kind for e in engine.access_log] == [AccessKind.ROW_WRITE] * 10
        written = "concealer_storage_rows_written_total"
        assert registry.value(written) == reference.value(written) == 10
        for key in (b"k00", b"k07", b"k09", b"zz"):
            assert engine.lookup("t", "k", key) == expected.lookup("t", "k", key)

    @pytest.mark.parametrize("k", [0, 4, 9], ids=["first", "middle", "last"])
    def test_transient_at_row_k_lands_every_row_exactly_once(self, k):
        schedule = [FaultEvent("storage.write.transient", k)]
        reference = FaultInjector.from_schedule(schedule)
        expected = self._per_row(reference)

        injector = FaultInjector.from_schedule(schedule)
        engine = self._engine(injector)
        with telemetry.scoped_registry() as registry:
            with pytest.raises(TransientStorageError):
                engine.insert_many("t", self.ROWS)
            # Rows before the fault are landed, indexed and logged.
            assert engine.row_count("t") == engine.index_size("t", "k") == k
            assert len(engine.access_log) == k
            assert registry.value("concealer_storage_rows_written_total") == k
            # The resume rule: start where the table stands.
            engine.insert_many("t", self.ROWS, start=engine.row_count("t"))
        assert registry.value("concealer_storage_rows_written_total") == 10
        assert self._view(engine) == self._view(expected)
        assert injector.fired == reference.fired == schedule
        assert (
            injector.consultations("storage.write.transient")
            == reference.consultations("storage.write.transient")
            == 11
        )

    def test_malformed_row_keeps_the_rows_before_it(self):
        engine = self._engine()
        with pytest.raises(StorageError):
            engine.insert_many("t", [*self.ROWS[:3], [b"too-short"], *self.ROWS[3:]])
        assert engine.row_count("t") == engine.index_size("t", "k") == 3
        assert len(engine.access_log) == 3

    def test_landing_invalidates_sidecars(self):
        engine = self._engine()
        engine.store_agg_tree("t", object())
        engine.insert_many("t", self.ROWS)
        assert not engine.has_agg_tree("t")
        engine.insert_many("t", [[b"p", b"k%02d" % i] for i in range(60)])
        assert engine.index_size("t", "k") == engine.row_count("t") == 70

    def test_create_index_and_install_use_the_same_loader(self):
        engine = self._engine()
        engine.insert_many("t", self.ROWS)
        engine.delete("t", 3)
        other = StorageEngine(btree_order=4)
        other.install(engine.image("t"))
        assert list(other._indexes[("t", "k")].items()) == list(
            engine._indexes[("t", "k")].items()
        )
        assert other.insert("t", [b"new", b"k03"]) == 10  # ids keep advancing
