"""The stored row representation: one column tuple per landed row, shared
by every replica; ``Row`` only as a read-time view; bare B+-tree values
for keys that carry one value."""

import gc

import pytest

from repro.replication.engine import ReplicatedStorageEngine
from repro.storage.btree import BPlusTree, _Dups
from repro.storage.engine import StorageEngine
from repro.storage.table import Row

from tests.conftest import stored_rows

COLUMNS = ("payload", "index_key")


def _rows(count: int) -> list[tuple]:
    return [
        (f"payload-{i}".encode(), f"key-{i:06d}".encode()) for i in range(count)
    ]


def _live(kind: type) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is kind)


class TestSharedColumnTuples:
    def test_every_replica_holds_the_landed_tuple_itself(self):
        replicas = [StorageEngine() for _ in range(3)]
        engine = ReplicatedStorageEngine(replicas)
        engine.create_table("t", COLUMNS)
        engine.create_index("t", "index_key")
        rows = _rows(200)
        engine.insert_many("t", rows)
        for replica in replicas:
            stored = replica._tables["t"]._rows
            assert len(stored) == len(rows)
            assert all(stored[row_id] is rows[row_id] for row_id in stored)

    def test_reads_build_views_over_the_stored_tuple(self):
        engine = StorageEngine()
        engine.create_table("t", COLUMNS)
        engine.create_index("t", "index_key")
        rows = _rows(10)
        engine.insert_many("t", rows)
        [row] = engine.lookup("t", "index_key", rows[3][1])
        assert row == Row(3, rows[3]) and row.columns is rows[3]
        assert [r.columns for r in stored_rows(engine, "t")] == rows
        with pytest.raises(AttributeError):
            row.__dict__  # slotted: no per-instance dict


class TestNoPerRowObjects:
    def test_landing_unique_keys_leaves_no_row_or_per_key_list_alive(self):
        rows = _rows(4_000)
        engine = StorageEngine()
        engine.create_table("t", COLUMNS)
        engine.create_index("t", "index_key")
        gc.collect()
        rows_before, lists_before = _live(Row), _live(list)
        engine.insert_many("t", rows)
        gc.collect()
        assert _live(Row) == rows_before
        assert _live(_Dups) == 0
        # Leaves and inner nodes own a few lists each (~64 keys per
        # leaf); one list per key would add 4,000.
        assert _live(list) - lists_before < len(rows) // 8
        assert engine.index_size("t", "index_key") == len(rows)


class TestDuplicateKeys:
    def test_insert_keeps_insertion_order(self):
        tree = BPlusTree(order=4)
        for key, value in [(1, "a"), (2, "x"), (1, "b"), (1, "c")]:
            tree.insert(key, value)
        assert tree.get(1) == ["a", "b", "c"]
        assert tree.get(2) == ["x"]
        assert list(tree.range(1, 2)) == [(1, ["a", "b", "c"]), (2, ["x"])]
        assert list(tree.items()) == [(1, ["a", "b", "c"]), (2, ["x"])]

    def test_bulk_load_keeps_insertion_order(self):
        tree = BPlusTree(order=4)
        tree.bulk_load([(1, "a"), (1, "b"), (2, "x"), (3, "y"), (3, "z")])
        assert list(tree.items()) == [
            (1, ["a", "b"]), (2, ["x"]), (3, ["y", "z"]),
        ]
        assert list(tree.range(2, 3)) == [(2, ["x"]), (3, ["y", "z"])]
        assert len(tree) == 5

    def test_delete_down_to_one_value_and_back(self):
        tree = BPlusTree(order=4)
        for value in ("a", "b", "c"):
            tree.insert(7, value)
        assert tree.delete(7, "b") == 1
        assert tree.get(7) == ["a", "c"]
        assert tree.delete(7, "a") == 1
        assert tree.get(7) == ["c"]
        assert list(tree.items()) == [(7, ["c"])]
        tree.insert(7, "d")
        assert tree.get(7) == ["c", "d"]
        assert tree.delete(7, "missing") == 0
        assert tree.delete(7) == 2
        assert tree.get(7) == [] and len(tree) == 0

    def test_returned_lists_are_copies(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        tree.get(1).append("zzz")
        next(tree.items())[1].clear()
        assert tree.get(1) == ["a", "b"]

    def test_list_values_stay_values(self):
        tree = BPlusTree(order=4)
        tree.insert(1, ["x"])
        tree.insert(2, ["y"])
        tree.insert(2, ["z"])
        assert tree.get(1) == [["x"]]
        assert tree.get(2) == [["y"], ["z"]]
