"""Append-only row store with stable row ids.

A :class:`Table` stores heterogeneous rows — for Concealer these are
the encrypted tuples of Table 2c: one ``bytes`` ciphertext per column.
Rows get monotonically increasing integer ids on insert; ids are stable
so secondary indexes can reference them and the access log can expose
them as the "physical addresses" an adversary observes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

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
    rotation move.  ``rows`` holds the rows outside the sealed ``bins``
    (bin_index → :class:`~repro.core.packed.PackedBin`, shared by every
    table installing the image) or ``None``; ``sealed`` says whether
    the bins hold their rows or sit beside ``rows``, as the source
    table held them; ``tree`` the aggregate-tree sidecar or ``None``.
    Equal images install equal tables."""

    table: str
    column_names: tuple[str, ...]
    rows: dict[int, tuple]
    next_row_id: int
    indexed: tuple[str, ...]
    bins: dict[int, object] | None = None
    tree: object | None = None
    sealed: bool = False

    def all_rows(self) -> dict[int, tuple]:
        """Row id → column tuple of every row, in row-id order (a read)."""
        return Table.from_image(self).rows()


class Table:
    """A named, schema-checked, append-only row store.

    ``column_names`` fixes the arity; inserts with the wrong number of
    columns are rejected.  Deletion marks a row id as dead (tombstone)
    without reusing it — matching how the §6 rewrite replaces an
    epoch's rows.  A table moves whole as its :class:`TableImage`
    (:meth:`from_image`), its sealed bins as they are.
    """

    def __init__(self, name: str, column_names: Sequence[str]):
        if not column_names:
            raise StorageError("a table needs at least one column")
        self.name = name
        self.column_names = tuple(column_names)
        # row id → column tuple of each row outside the sealed bins.
        # Replicas landing the same tuple share it (``tuple(t) is t``).
        self._rows: dict[int, tuple] = {}
        self._next_row_id = 0
        # Sealed bins (bin_index → PackedBin) or None: immutable, and
        # shared with every image of the table and every table that
        # installs one.  They are the record of truth for the rows
        # they hold: while they hold any, row id → ``bin_index << 32 |
        # slot`` (-1: not in a bin), and a read slices the bin.  One
        # array, no Python object per row.
        self._bins: dict[int, object] | None = None
        self._slots = array("q")
        # Aggregate-tree sidecar (repro.core.aggtree.AggTree), or None.
        # Any row mutation drops it and the bins (their rows
        # materialised first), so neither can serve bytes the rows do
        # not hold — tampering behind the engine's back included.
        self.agg_tree: object | None = None

    @property
    def packed_bins(self) -> dict[int, object] | None:
        return self._bins

    @packed_bins.setter
    def packed_bins(self, bins: dict[int, object] | None) -> None:
        # Seal with ``bins`` (their rows leave ``_rows``), or drop them
        # (``None``: the rows come back as tuples).  Bins naming a row
        # the table lacks (a diverged replica) stay beside the rows.
        if self._slots:
            self._rows, self._slots = self.rows(), array("q")
        self._bins = bins
        if bins and all(r in self._rows for packed in bins.values() for r in packed.row_ids):
            self._seal()

    def _seal(self) -> None:
        """Hold the bins' rows as ``bin << 32 | slot``, not in ``_rows``."""
        self._slots = slots = array("q", [-1]) * self._next_row_id
        for index, packed in self._bins.items():
            for position, row_id in enumerate(packed.row_ids, index << 32):
                slots[row_id] = position
                self._rows.pop(row_id, None)

    @classmethod
    def from_image(cls, image: TableImage) -> "Table":
        """The table ``image`` was taken of: its loose rows copied, its
        bins and tree shared, sealed as the source was, nothing packed
        or unpacked."""
        table = cls(image.table, image.column_names)
        table._rows, table._next_row_id = dict(image.rows), image.next_row_id
        table._bins = bins = image.bins and dict(image.bins)
        table.agg_tree = image.tree
        if bins and image.sealed:
            table._seal()
        return table

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
        if self._bins is not None or self.agg_tree is not None:
            self.packed_bins = self.agg_tree = None
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = tuple(columns)
        return row_id

    def fetch(self, row_id: int) -> Row:
        """Read one row by id; raises on unknown/deleted ids."""
        try:
            return Row(row_id, self._rows[row_id])
        except KeyError:
            if row_id not in self:
                raise StorageError(f"table {self.name!r} has no row {row_id}") from None
        return self._bins[self._slots[row_id] >> 32][self._slots[row_id] & 0xFFFFFFFF]

    def rows(self) -> dict[int, tuple]:
        """Row id → column tuple of every live row, in row-id order."""
        rows = dict(self._rows)
        for packed in self._bins.values() if self._slots else ():
            columns = map(packed.column_cells, range(len(packed.columns)))
            rows.update(zip(packed.row_ids, zip(*columns)))
        return dict(sorted(rows.items()))

    def row_ids(self) -> list[int]:
        """Every live row id, ascending."""
        binned = (row_id for row_id, slot in enumerate(self._slots) if slot >= 0)
        return sorted(chain(self._rows, binned))

    def column(self, position: int) -> list[tuple[object, int]]:
        """``(cell at position, row id)`` of every live row, unordered."""
        pairs = [(columns[position], row_id) for row_id, columns in self._rows.items()]
        for packed in self._bins.values() if self._slots else ():
            pairs += zip(packed.column_cells(position), packed.row_ids)
        return pairs

    def overwrite(self, row_id: int, columns: Sequence) -> None:
        """Replace the columns of an existing row in place."""
        if row_id not in self:
            raise StorageError(f"table {self.name!r} has no row {row_id}")
        if len(columns) != len(self.column_names):
            raise StorageError(
                f"table {self.name!r} expects {len(self.column_names)} columns"
            )
        self.packed_bins = self.agg_tree = None
        self._rows[row_id] = tuple(columns)

    def delete(self, row_id: int) -> None:
        """Tombstone a row; its id is never reused."""
        if row_id not in self:
            raise StorageError(f"table {self.name!r} has no row {row_id}")
        self.packed_bins = self.agg_tree = None
        del self._rows[row_id]

    def scan(self) -> Iterator[Row]:
        """Yield all live rows in row-id order."""
        for row_id, columns in self.rows().items():
            yield Row(row_id, columns)

    def __len__(self) -> int:
        return len(self._rows) + len(self._slots) - self._slots.count(-1)

    def __contains__(self, row_id: int) -> bool:
        return row_id in self._rows or 0 <= row_id < len(self._slots) and self._slots[row_id] >= 0
