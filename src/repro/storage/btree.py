"""A from-scratch B+-tree.

This is the stock DBMS index Concealer relies on.  The tree maps opaque
comparable keys (for Concealer: the ciphertext bytes of
``E_k(cid || counter)``) to row ids.  Design notes:

- Values live only in leaves; leaves are linked for ordered scans.
- Duplicate keys are supported (needed by the cleartext baseline, which
  indexes plaintext locations).  A leaf slot holds a key's lone value
  bare, and a :class:`_Dups` list only once a second value arrives, so a
  unique-key index allocates nothing per key; readers always get lists.
- Deletion removes values without rebalancing.  Concealer's §6 rewrite
  deletes a whole epoch's rows and re-inserts them under fresh
  ciphertexts, so underfull nodes are transient; a production engine
  would compact in the background.
"""

from __future__ import annotations

from bisect import bisect_left as _bisect_left
from bisect import bisect_right as _bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

DEFAULT_ORDER = 64


class _Dups(list):
    """A leaf slot holding two or more values of one key, in insertion order."""

    __slots__ = ()


def _values(slot: Any) -> list[Any]:
    """A leaf slot's values as a fresh list."""
    return list(slot) if type(slot) is _Dups else [slot]


def _add(slot: Any, value: Any) -> "_Dups":
    """``slot`` with ``value`` appended, as a :class:`_Dups`."""
    if type(slot) is _Dups:
        slot.append(value)
        return slot
    return _Dups((slot, value))


@dataclass
class _LeafNode:
    keys: list[Any] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)  # bare value or _Dups
    next_leaf: "_LeafNode | None" = None

    is_leaf = True


@dataclass
class _InnerNode:
    keys: list[Any] = field(default_factory=list)
    children: list[Any] = field(default_factory=list)

    is_leaf = False


class BPlusTree:
    """A B+-tree from keys to lists of values.

    ``order`` is the maximum number of keys per node; nodes split when
    they exceed it.

    >>> tree = BPlusTree(order=4)
    >>> for i in [5, 1, 9, 3, 7]:
    ...     tree.insert(i, f"row{i}")
    >>> tree.get(7)
    ['row7']
    >>> [k for k, _ in tree.range(3, 7)]
    [3, 5, 7]
    """

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 3:
            raise ValueError("B+-tree order must be at least 3")
        self._order = order
        self._root: _LeafNode | _InnerNode = _LeafNode()
        self._size = 0
        self._node_reads = 0

    # ------------------------------------------------------------------ stats

    @property
    def size(self) -> int:
        """Total number of stored values (duplicates counted)."""
        return self._size

    @property
    def node_reads(self) -> int:
        """Cumulative count of node visits — a cost model for index I/O."""
        return self._node_reads

    def height(self) -> int:
        """Tree height (1 for a lone leaf)."""
        depth = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth

    # ---------------------------------------------------------------- lookup

    def _find_leaf(self, key: Any) -> _LeafNode:
        node = self._root
        self._node_reads += 1
        while not node.is_leaf:
            index = _bisect_right(node.keys, key)
            node = node.children[index]
            self._node_reads += 1
        return node

    def get(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list if absent)."""
        leaf = self._find_leaf(key)
        index = _bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return _values(leaf.values[index])
        return []

    def contains(self, key: Any) -> bool:
        """Whether at least one value is stored under ``key``."""
        leaf = self._find_leaf(key)
        index = _bisect_left(leaf.keys, key)
        return index < len(leaf.keys) and leaf.keys[index] == key

    def range(self, low: Any, high: Any) -> Iterator[tuple[Any, list[Any]]]:
        """Yield ``(key, values)`` for all keys with ``low <= key <= high``."""
        leaf = self._find_leaf(low)
        index = _bisect_left(leaf.keys, low)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, _values(leaf.values[index])
                index += 1
            leaf = leaf.next_leaf
            index = 0
            if leaf is not None:
                self._node_reads += 1

    def items(self) -> Iterator[tuple[Any, list[Any]]]:
        """Yield every ``(key, values)`` pair in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        leaf: _LeafNode | None = node
        while leaf is not None:
            yield from zip(leaf.keys, map(_values, leaf.values))
            leaf = leaf.next_leaf

    def keys(self) -> Iterator[Any]:
        """Yield every distinct key in order."""
        for key, _ in self.items():
            yield key

    # ---------------------------------------------------------------- insert

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key`` (duplicates append)."""
        split = self._insert_into(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _InnerNode(keys=[separator], children=[self._root, right])
            self._root = new_root
        self._size += 1

    def bulk_load(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Replace the tree's contents from key-sorted ``(key, value)`` pairs.

        One pass, bottom-up (full leaves, then full inner levels), not a
        descent per pair.  Equal keys are adjacent; values keep their order.
        """
        leaves = [_LeafNode()]
        size = 0
        for key, value in pairs:
            leaf = leaves[-1]
            if leaf.keys and leaf.keys[-1] == key:
                leaf.values[-1] = _add(leaf.values[-1], value)
            else:
                if len(leaf.keys) == self._order:
                    leaves.append(_LeafNode())
                    leaf.next_leaf = leaves[-1]
                    leaf = leaves[-1]
                leaf.keys.append(key)
                leaf.values.append(value)
            size += 1
        # ``lows[i]`` is the smallest key under ``level[i]``: the
        # separator its parent files it under.
        level: list = leaves
        lows = [leaf.keys[0] for leaf in leaves] if size else []
        fan = self._order + 1
        while len(level) > 1:
            starts = list(range(0, len(level), fan))
            if len(level) - starts[-1] == 1:
                starts[-1] -= 1  # never a one-child node
            level = [
                _InnerNode(keys=lows[start + 1 : stop], children=level[start:stop])
                for start, stop in zip(starts, [*starts[1:], len(level)])
            ]
            lows = [lows[start] for start in starts]
        self._root = level[0]
        self._size = size

    def _insert_into(self, node, key: Any, value: Any):
        """Recursive insert; returns ``(separator, new_right_node)`` on split."""
        if node.is_leaf:
            index = _bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = _add(node.values[index], value)
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None

        index = _bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > self._order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _LeafNode):
        mid = len(leaf.keys) // 2
        right = _LeafNode(
            keys=leaf.keys[mid:],
            values=leaf.values[mid:],
            next_leaf=leaf.next_leaf,
        )
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_inner(self, node: _InnerNode):
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _InnerNode(
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return separator, right

    # ---------------------------------------------------------------- delete

    def delete(self, key: Any, value: Any | None = None) -> int:
        """Remove values under ``key``; returns how many were removed.

        With ``value=None`` all values under the key are removed;
        otherwise only matching values are.  Nodes are not rebalanced
        (see module docstring).
        """
        leaf = self._find_leaf(key)
        index = _bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return 0
        values = _values(leaf.values[index])
        kept = [] if value is None else [v for v in values if v != value]
        removed = len(values) - len(kept)
        if not kept:
            del leaf.keys[index]
            del leaf.values[index]
        elif removed:
            leaf.values[index] = kept[0] if len(kept) == 1 else _Dups(kept)
        self._size -= removed
        return removed

    def __len__(self) -> int:
        return self._size
