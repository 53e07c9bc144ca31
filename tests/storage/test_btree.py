"""Unit and property tests for the B+-tree."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.btree import BPlusTree, _bisect_left, _bisect_right


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert tree.get(1) == []
        assert not tree.contains(1)
        assert len(tree) == 0
        assert tree.height() == 1

    def test_single_insert(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "v")
        assert tree.get(5) == ["v"]
        assert tree.contains(5)
        assert len(tree) == 1

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == ["a", "b"]
        assert len(tree) == 2

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_bytes_keys(self):
        tree = BPlusTree(order=4)
        tree.insert(b"\x01", 1)
        tree.insert(b"\xff", 2)
        assert tree.get(b"\x01") == [1]
        assert [k for k, _ in tree.items()] == [b"\x01", b"\xff"]


class TestSplits:
    def test_many_inserts_sorted_items(self):
        tree = BPlusTree(order=4)
        keys = list(range(100))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert(key, f"v{key}")
        assert [k for k, _ in tree.items()] == list(range(100))
        assert tree.height() > 1

    def test_all_values_retrievable_after_splits(self):
        tree = BPlusTree(order=4)
        for key in range(500):
            tree.insert(key, key * 2)
        for key in range(500):
            assert tree.get(key) == [key * 2]

    def test_reverse_insert_order(self):
        tree = BPlusTree(order=3)
        for key in reversed(range(200)):
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == list(range(200))

    def test_node_reads_logarithmic(self):
        tree = BPlusTree(order=16)
        for key in range(10_000):
            tree.insert(key, key)
        before = tree.node_reads
        tree.get(5000)
        cost = tree.node_reads - before
        assert cost <= tree.height()


class TestRange:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for key in range(0, 100, 2):  # even keys only
            tree.insert(key, key)
        return tree

    def test_inclusive_bounds(self, tree):
        assert [k for k, _ in tree.range(10, 20)] == [10, 12, 14, 16, 18, 20]

    def test_bounds_between_keys(self, tree):
        assert [k for k, _ in tree.range(11, 19)] == [12, 14, 16, 18]

    def test_empty_range(self, tree):
        assert list(tree.range(11, 11)) == []

    def test_full_range(self, tree):
        assert len(list(tree.range(-10, 1000))) == 50

    def test_range_values_correct(self, tree):
        for key, values in tree.range(0, 98):
            assert values == [key]


class TestDelete:
    def test_delete_single_value(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.get(1) == ["b"]

    def test_delete_all_values_under_key(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1) == 2
        assert tree.get(1) == []
        assert len(tree) == 0

    def test_delete_missing_key(self):
        tree = BPlusTree(order=4)
        assert tree.delete(42) == 0

    def test_delete_missing_value(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        assert tree.delete(1, "zzz") == 0
        assert tree.get(1) == ["a"]

    def test_delete_then_reinsert(self):
        tree = BPlusTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        for key in range(0, 50, 2):
            tree.delete(key)
        for key in range(0, 50, 2):
            tree.insert(key, -key)
        for key in range(50):
            expected = [-key] if key % 2 == 0 and key else [key] if key % 2 else [0]
            assert tree.get(key) == expected


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300))
    def test_items_always_sorted(self, keys):
        tree = BPlusTree(order=5)
        for key in keys:
            tree.insert(key, key)
        listed = [k for k, _ in tree.items()]
        assert listed == sorted(set(keys))
        assert len(tree) == len(keys)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=200),
        st.data(),
    )
    def test_lookup_matches_reference_dict(self, keys, data):
        tree = BPlusTree(order=4)
        reference: dict[bytes, list[int]] = {}
        for index, key in enumerate(keys):
            tree.insert(key, index)
            reference.setdefault(key, []).append(index)
        probe = data.draw(st.sampled_from(keys))
        assert tree.get(probe) == reference[probe]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100), st.data())
    def test_range_matches_reference(self, keys, data):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        low = data.draw(st.integers(-5, 105))
        high = data.draw(st.integers(low, 110))
        got = [k for k, _ in tree.range(low, high)]
        expected = sorted({k for k in keys if low <= k <= high})
        assert got == expected


class TestBulkLoad:
    """``bulk_load(sorted pairs)`` is the tree sequential inserts build,
    under every read — and stays one under later mutation (rotation and
    §6 rewrites insert into and delete from a bulk-loaded index)."""

    @staticmethod
    def _same(loaded: BPlusTree, grown: BPlusTree, probes) -> None:
        assert list(loaded.items()) == list(grown.items())
        assert list(loaded.keys()) == list(grown.keys())
        assert len(loaded) == len(grown) == loaded.size
        for key in probes:
            assert loaded.get(key) == grown.get(key)
            assert loaded.contains(key) == grown.contains(key)
        low, high = min(probes, default=0), max(probes, default=0)
        for bounds in ((low, high), (low + 3, high - 3), (high, low)):
            assert list(loaded.range(*bounds)) == list(grown.range(*bounds))

    def test_empty_and_single(self):
        tree = BPlusTree(order=3)
        tree.bulk_load([])
        assert len(tree) == 0 and list(tree.items()) == [] and tree.get(1) == []
        tree.bulk_load([(7, "a")])
        assert tree.get(7) == ["a"] and tree.height() == 1

    def test_replaces_what_the_tree_held(self):
        tree = BPlusTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        tree.bulk_load([(100, "x"), (100, "y"), (101, "z")])
        assert list(tree.items()) == [(100, ["x", "y"]), (101, ["z"])]
        assert len(tree) == 3 and tree.get(3) == []

    @pytest.mark.parametrize("order", [3, 4, 64])
    def test_full_leaves_and_no_one_child_node(self, order):
        # (order + 1) full leaves + 1: the shape whose naive chunking
        # leaves a one-child inner node at the tail.
        count = order * (order + 2)
        tree = BPlusTree(order=order)
        tree.bulk_load((key, key) for key in range(count))
        level = [tree._root]
        while not level[0].is_leaf:
            assert all(len(node.children) >= 2 for node in level)
            assert all(len(node.keys) == len(node.children) - 1 for node in level)
            level = [child for node in level for child in node.children]
        assert [len(leaf.keys) for leaf in level[:-1]] == [order] * (len(level) - 1)
        assert tree.height() <= 3

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([3, 4, 7, 64]),
        st.lists(st.integers(0, 120), max_size=300),
        st.lists(
            st.tuples(st.booleans(), st.integers(-5, 125), st.integers(0, 400)),
            max_size=60,
        ),
    )
    def test_equals_sequential_inserts_and_stays_equal(self, order, keys, edits):
        # Duplicate keys on purpose: values keep the order given.
        pairs = sorted((key, value) for value, key in enumerate(keys))
        loaded, grown = BPlusTree(order=order), BPlusTree(order=order)
        loaded.bulk_load(iter(pairs))
        for key, value in pairs:
            grown.insert(key, value)
        probes = range(-6, 127)
        self._same(loaded, grown, probes)
        for insert, key, value in edits:
            if insert:
                loaded.insert(key, value)
                grown.insert(key, value)
            else:
                chosen = value if value % 3 else None  # one value, or the key
                assert loaded.delete(key, chosen) == grown.delete(key, chosen)
        self._same(loaded, grown, probes)


# ----------------------------------------------- differential, per key type


def reference_bisect_right(keys, key):
    """The tree's pure-Python bisection before it used the stdlib's."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < keys[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_bisect_left(keys, key):
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


KEY_MAKERS = {
    "bytes": lambda n: hashlib.sha256(str(n).encode()).digest()[: 1 + n % 7],
    "int": lambda n: (n * 7919) % 211 - 100,
    "str": lambda n: f"k{(n * 31) % 97:03d}"[: 2 + n % 3],
}
# ``node_reads`` after the fixed sequence below, captured with the
# pure-Python bisection: the stdlib's makes the same comparisons, so it
# visits the same nodes.
NODE_READS = {"bytes": 825, "int": 795, "str": 801}


@pytest.mark.parametrize("kind", sorted(KEY_MAKERS))
def test_a_fixed_sequence_matches_a_dict_model_and_pins_node_reads(kind):
    rng = random.Random(2026)
    make = KEY_MAKERS[kind]
    tree = BPlusTree(order=4)
    model: dict = {}
    keys = [make(rng.randrange(300)) for _ in range(400)]
    assert len(set(keys)) < len(keys)  # duplicates included
    for i, key in enumerate(keys):
        tree.insert(key, i)
        model.setdefault(key, []).append(i)
    for key in keys[::7]:
        assert tree.get(key) == model[key]
        assert tree.contains(key)
    lo, hi = sorted(rng.sample(keys, 2))
    assert [k for k, _ in tree.range(lo, hi)] == sorted(k for k in model if lo <= k <= hi)
    for key in keys[::5]:
        value = None if rng.random() < 0.5 else keys.index(key)
        stored = model.get(key, [])
        kept = [] if value is None else [v for v in stored if v != value]
        assert tree.delete(key, value) == len(stored) - len(kept)
        if kept:
            model[key] = kept
        else:
            model.pop(key, None)
    assert list(tree.items()) == sorted(model.items())
    assert tree.node_reads == NODE_READS[kind]


KEY_LISTS = st.one_of(
    st.lists(st.integers(-50, 50)),
    st.lists(st.binary(max_size=4)),
    st.lists(st.text(alphabet="abc", max_size=3)),
)


@given(keys=KEY_LISTS)
@settings(max_examples=200, deadline=None)
def test_stdlib_bisection_is_the_reference_bisection(keys):
    # The last key drawn is the probe: present in the rest or not.
    probe = keys[-1] if keys else 0
    keys = sorted(keys[:-1])
    assert _bisect_right(keys, probe) == reference_bisect_right(keys, probe)
    assert _bisect_left(keys, probe) == reference_bisect_left(keys, probe)
