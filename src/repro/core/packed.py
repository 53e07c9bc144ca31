"""Columnar, bytes-backed bin layout: the one in-enclave form of a
fetched batch.

A :class:`PackedBin` is a batch of fetched rows flattened into
contiguous per-column byte arrays: for each storage column (filter
ciphertexts, DET payload, index key) all cells are concatenated into a
single ``bytes`` blob at a fixed per-column width.  STEP 4 then runs
verify→filter→decrypt→aggregate as whole-batch kernel calls
(``decrypt_many``, ``batch_chain_extend``, ``numpy`` tag compare) with
no per-row Python objects in the loop.

A batch gets here one of two ways (DESIGN.md §16).  The data provider
seals every Theorem-4.1 bin in this form and the engine serves slot runs
of the bins (the *sidecar* fetch); or the enclave submits trapdoors,
gets rows back and packs them at the fetch boundary (the *trapdoor*
fetch — the oblivious schedule, fake pools with rows outside the bins,
any table whose sidecar a rewrite dropped).  Rows inside a sealed bin
sit in *canonical slot order* — for each cell-id of the bin, counters
``1..c_tuple[cid]``, then the bin's fake ids ascending — exactly the
order the trapdoor fetch returns, so both ways produce the same bytes.

Every cell in a column has the same width (the schema pads plaintexts
and fakes are sized to match), so a bin's packed size is a public
function of |b| and the column widths — shipping and caching bins in
packed form leaks nothing beyond the row count the fixed-size argument
already makes public.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Sequence

from repro.storage.table import Row

_MAGIC = b"PBIN1"
_HEADER = struct.Struct("<5sIII")


@dataclass(frozen=True)
class PackedBin:
    """One bin as contiguous per-column ciphertext arrays."""

    bin_index: int
    row_count: int
    column_widths: tuple[int, ...]
    columns: tuple[bytes, ...]
    row_ids: tuple[int, ...]
    # The rows hash-chain verification authenticated as real (a boolean
    # mask), set only by ``EpochContext.verified_bin``; ``None`` on
    # anything the host hands over, and never on the wire.
    real_rows: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.columns) != len(self.column_widths):
            raise ValueError("column/width arity mismatch")
        if len(self.row_ids) != self.row_count:
            raise ValueError("row-id/row-count mismatch")
        for width, blob in zip(self.column_widths, self.columns):
            if len(blob) != width * self.row_count:
                raise ValueError(
                    f"column blob is {len(blob)} bytes, "
                    f"want {width}*{self.row_count}"
                )

    def __len__(self) -> int:
        return self.row_count

    @property
    def nbytes(self) -> int:
        """Actual enclave-resident size: column blobs + 8B per row id."""
        return sum(len(blob) for blob in self.columns) + 8 * self.row_count

    # --------------------------------------------------------------- packing

    @classmethod
    def pack(cls, bin_index: int, rows: Sequence[Row]) -> "PackedBin":
        """Pack storage rows (canonical slot order) into columnar form.

        Raises ``ValueError`` when there are no rows or they are ragged
        (unequal column counts, a cell of another width, a cell that is
        not bytes).  Every cell's width is checked, not the column
        total: one short and one long cell would cancel out there.
        """
        if not rows:
            raise ValueError("cannot pack an empty bin")
        arity = len(rows[0].columns)
        if any(len(row.columns) != arity for row in rows):
            raise ValueError("ragged rows: unequal column counts")
        by_column = list(zip(*[row.columns for row in rows]))
        try:
            widths = tuple(len(cells[0]) for cells in by_column)
            if any(
                set(map(len, cells)) != {width}
                for width, cells in zip(widths, by_column)
            ):
                raise ValueError("ragged rows: unequal column widths")
            columns = tuple(b"".join(cells) for cells in by_column)
        except TypeError as error:
            raise ValueError(f"ragged rows: a cell is not bytes ({error})") from error
        return cls(
            bin_index=bin_index,
            row_count=len(rows),
            column_widths=widths,
            columns=columns,
            row_ids=tuple(row.row_id for row in rows),
        )

    @classmethod
    def join_runs(cls, runs: Sequence[tuple["PackedBin", int, int]]) -> "PackedBin":
        """Rows ``[start, stop)`` of each ``(packed, start, stop)`` in
        turn, as one batch: a read of slot runs of sealed bins (a bin
        read whole is the bin itself)."""
        first = runs[0][0]
        if len(runs) == 1 and runs[0][1:] == (0, first.row_count):
            return first
        columns = tuple(
            b"".join(pb.columns[c][start * width : stop * width] for pb, start, stop in runs)
            for c, width in enumerate(first.column_widths)
        )
        row_ids = tuple(chain.from_iterable(pb.row_ids[start:stop] for pb, start, stop in runs))
        return cls(first.bin_index, len(row_ids), first.column_widths, columns, row_ids)

    def unpack(self) -> list[Row]:
        """The row list this bin was packed from, byte-for-byte."""
        columns = zip(*map(self.column_cells, range(len(self.columns))))
        return list(map(Row, self.row_ids, columns))

    def __iter__(self):
        """Row view, for the one row-at-a-time consumer (§4.3 oblivious
        filtering) and for tests."""
        return iter(self.unpack())

    def __getitem__(self, row: int) -> Row:
        row = range(self.row_count)[row]
        return Row(
            self.row_ids[row],
            tuple(self.cell(row, column) for column in range(len(self.columns))),
        )

    # --------------------------------------------------------------- slicing

    def cell(self, row: int, column: int) -> bytes:
        width = self.column_widths[column]
        blob = self.columns[column]
        return blob[row * width : (row + 1) * width]

    def column_cells(self, column: int) -> list[bytes]:
        """All cells of one column as per-row ``bytes`` slices."""
        width = self.column_widths[column]
        blob = self.columns[column]
        return [blob[j * width : (j + 1) * width] for j in range(self.row_count)]

    # ----------------------------------------------------------- wire format

    def to_bytes(self) -> bytes:
        """Self-delimiting binary encoding (ships on the shard wire)."""
        parts = [
            _HEADER.pack(_MAGIC, self.bin_index, self.row_count, len(self.columns)),
            struct.pack(f"<{len(self.column_widths)}I", *self.column_widths),
            struct.pack(f"<{self.row_count}Q", *self.row_ids),
        ]
        parts.extend(self.columns)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedBin":
        try:
            magic, bin_index, row_count, column_count = _HEADER.unpack_from(blob, 0)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            offset = _HEADER.size
            widths = struct.unpack_from(f"<{column_count}I", blob, offset)
            offset += 4 * column_count
            row_ids = struct.unpack_from(f"<{row_count}Q", blob, offset)
            offset += 8 * row_count
            columns = []
            for width in widths:
                span = width * row_count
                columns.append(blob[offset : offset + span])
                offset += span
            if offset != len(blob):
                raise ValueError("trailing bytes after packed bin")
        except struct.error as error:
            raise ValueError(f"truncated packed bin: {error}") from error
        return cls(
            bin_index=bin_index,
            row_count=row_count,
            column_widths=tuple(widths),
            columns=tuple(columns),
            row_ids=tuple(row_ids),
        )

    def digest(self) -> bytes:
        """Content digest for replica anti-entropy comparison."""
        return hashlib.sha256(self.to_bytes()).digest()

    # ------------------------------------------------- fault-channel helpers
    # Used by the storage/replica tamper sites so the chaos corpora
    # exercise the packed read path with the same adversary the scalar
    # path faces.  All are length-preserving per cell (corruption) or
    # whole-row (drop/duplicate) — the shapes verification must catch.

    def with_corrupted_cell(
        self, row: int, column: int, corrupt: Callable[[bytes], bytes]
    ) -> "PackedBin":
        width = self.column_widths[column]
        blob = self.columns[column]
        start = row * width
        tampered = corrupt(blob[start : start + width])
        if len(tampered) != width:
            raise ValueError("cell corruption must preserve length")
        columns = list(self.columns)
        columns[column] = blob[:start] + tampered + blob[start + width :]
        return replace(self, columns=tuple(columns))

    def without_row(self, row: int) -> "PackedBin":
        columns = tuple(
            blob[: row * width] + blob[(row + 1) * width :]
            for width, blob in zip(self.column_widths, self.columns)
        )
        row_ids = self.row_ids[:row] + self.row_ids[row + 1 :]
        return replace(self, row_count=self.row_count - 1, columns=columns, row_ids=row_ids)

    def with_duplicated_row(self, row: int) -> "PackedBin":
        columns = tuple(
            blob + blob[row * width : (row + 1) * width]
            for width, blob in zip(self.column_widths, self.columns)
        )
        row_ids = self.row_ids + (self.row_ids[row],)
        return replace(self, row_count=self.row_count + 1, columns=columns, row_ids=row_ids)
