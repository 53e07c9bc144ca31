"""Append-only row store with stable row ids.

A :class:`Table` stores heterogeneous rows — for Concealer these are
the encrypted tuples of Table 2c: one ``bytes`` ciphertext per column.
Rows get monotonically increasing integer ids on insert; ids are stable
so secondary indexes can reference them and the access log can expose
them as the "physical addresses" an adversary observes.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.exceptions import StorageError


@dataclass(frozen=True, slots=True)
class Row:
    """One row as read: its physical id plus the column values.

    A read-time view: a :class:`Table` stores only the column tuple and
    builds a ``Row`` per ``fetch``/``scan``.
    """

    row_id: int
    columns: tuple

    def __getitem__(self, index: int):
        return self.columns[index]

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class TableImage:
    """One table whole: what checkpoint, restore, repair and key
    rotation move.  ``bins`` is each sealed bin's row ids in slot order
    (public layout, re-packed from ``rows`` on install) or ``None``;
    ``tree`` the aggregate-tree sidecar or ``None``.  Equal images
    install equal tables.
    """

    table: str
    column_names: tuple[str, ...]
    rows: dict[int, tuple]
    next_row_id: int
    indexed: tuple[str, ...]
    bins: dict[int, tuple[int, ...]] | None = None
    tree: object | None = None


class Table:
    """A named, schema-checked, append-only row store.

    ``column_names`` fixes the arity; inserts with the wrong number of
    columns are rejected.  Deletion marks a row id as dead (tombstone)
    without reusing it — matching how the §6 rewrite replaces an
    epoch's rows.
    """

    def __init__(self, name: str, column_names: Sequence[str]):
        if not column_names:
            raise StorageError("a table needs at least one column")
        self.name = name
        self.column_names = tuple(column_names)
        # row id → column tuple.  Replicas landing the same tuple share
        # it (``tuple(t) is t``), so a row's ciphertexts are held once.
        self._rows: dict[int, tuple] = {}
        self._next_row_id = 0
        # Columnar sidecar: bin_index → PackedBin, or None when absent.
        # Derived data — any row mutation drops it, so the packed read
        # path can never serve bytes that diverge from the row store
        # (tampering included: a mutator that touches rows behind the
        # engine's back still invalidates here).
        self.packed_bins: dict[int, object] | None = None
        # Aggregate-tree sidecar (repro.core.aggtree.AggTree), or None.
        # Same invalidation contract as ``packed_bins``: derived data,
        # dropped on any row mutation so the tree path can never serve
        # aggregates that diverge from the row store.
        self.agg_tree: object | None = None

    def column_index(self, column: str) -> int:
        """Position of a named column; raises if unknown."""
        try:
            return self.column_names.index(column)
        except ValueError:
            raise StorageError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def insert(self, columns: Sequence) -> int:
        """Append one row; returns its new row id."""
        if len(columns) != len(self.column_names):
            raise StorageError(
                f"table {self.name!r} expects {len(self.column_names)} columns, "
                f"got {len(columns)}"
            )
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = tuple(columns)
        self.packed_bins = None
        self.agg_tree = None
        return row_id

    def fetch(self, row_id: int) -> Row:
        """Read one row by id; raises on unknown/deleted ids."""
        try:
            return Row(row_id, self._rows[row_id])
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no row {row_id}"
            ) from None

    def overwrite(self, row_id: int, columns: Sequence) -> None:
        """Replace the columns of an existing row in place."""
        if row_id not in self._rows:
            raise StorageError(f"table {self.name!r} has no row {row_id}")
        if len(columns) != len(self.column_names):
            raise StorageError(
                f"table {self.name!r} expects {len(self.column_names)} columns"
            )
        self._rows[row_id] = tuple(columns)
        self.packed_bins = None
        self.agg_tree = None

    def delete(self, row_id: int) -> None:
        """Tombstone a row; its id is never reused."""
        if row_id not in self._rows:
            raise StorageError(f"table {self.name!r} has no row {row_id}")
        del self._rows[row_id]
        self.packed_bins = None
        self.agg_tree = None

    def scan(self) -> Iterator[Row]:
        """Yield all live rows in row-id order."""
        for row_id in sorted(self._rows):
            yield Row(row_id, self._rows[row_id])

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._rows
