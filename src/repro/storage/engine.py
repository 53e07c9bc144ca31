"""The storage engine façade: tables + indexes + adversary-visible log.

:class:`StorageEngine` plays the role MySQL plays in the paper.  The
service provider inserts the encrypted epoch rows here and the engine
maintains a B+-tree over the encrypted ``Index`` column; the enclave
then drives point lookups by handing the engine trapdoor ciphertexts.

Every read is recorded in the :class:`~repro.storage.pager.AccessLog`
— the log is the complete honest-but-curious view of storage that the
leakage experiments analyse.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, islice

from repro import telemetry
from repro.exceptions import (
    IndexNotFoundError,
    StorageError,
    TableNotFoundError,
    TransientStorageError,
)
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.storage.btree import BPlusTree
from repro.storage.pager import AccessKind, AccessLog
from repro.storage.table import Row, Table, TableImage


def _count_rows_written(rows: int) -> None:
    telemetry.counter(
        "concealer_storage_rows_written_total",
        "rows written to storage (inserts, deletes, overwrites)",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(rows)


def _count_rows_read(rows: int) -> None:
    telemetry.counter(
        "concealer_storage_rows_read_total",
        "rows read from storage, as the host observes them",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(rows)


class RewriteFence:
    """The epoch-rewrite fence of an engine or a replica group: key
    rotation and §6 bin rewrites bump the generation, and
    generation-stamped consumers (the enclave's tree state, anti-entropy
    repair) discard state captured under an older one."""

    rewrite_generation = 0
    rewrite_in_progress = False

    def begin_rewrite(self) -> int:
        """Mark an epoch rewrite in flight; stale-state consumers fence."""
        self.rewrite_generation += 1
        self.rewrite_in_progress = True
        return self.rewrite_generation

    def end_rewrite(self) -> int:
        """Lift the rewrite fence; bumps the generation so state captured
        pre-rewrite (a repair's source image) is discarded, not applied."""
        self.rewrite_generation += 1
        self.rewrite_in_progress = False
        return self.rewrite_generation


class StorageEngine(RewriteFence):
    """An embedded multi-table database with secondary B+-tree indexes.

    >>> engine = StorageEngine()
    >>> engine.create_table("t", ["k", "v"])
    >>> engine.create_index("t", "k")
    >>> _ = engine.insert("t", [b"alpha", b"one"])
    >>> [row[1] for row in engine.lookup("t", "k", b"alpha")]
    [b'one']
    """

    def __init__(
        self,
        btree_order: int = 64,
        rows_per_page: int = 64,
        fault_injector: FaultInjector | None = None,
    ):
        self._tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, str], BPlusTree] = {}
        self.btree_order = btree_order
        # A row read also logs its page (row id // rows_per_page), the
        # page-granular view a buffer pool gives an OS-level observer.
        self.rows_per_page = rows_per_page
        self.access_log = AccessLog()
        # Chaos hook: reads/writes may fail transiently, and lookup
        # *results* may be corrupted / dropped / duplicated — the
        # malicious-host tampering the hash chains are meant to detect.
        self.fault_injector = fault_injector or NULL_INJECTOR

    # ------------------------------------------------------------------- DDL

    def create_table(self, name: str, column_names: Sequence[str]) -> None:
        """Create an empty table; fails if the name is taken."""
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        self._tables[name] = Table(name, column_names)

    def drop_table(self, name: str) -> None:
        """Drop a table and all its indexes."""
        self._table(name)
        del self._tables[name]
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]

    def create_index(self, table: str, column: str) -> None:
        """Build a B+-tree over ``column``, indexing existing rows too."""
        tbl = self._table(table)
        position = tbl.column_index(column)
        if (table, column) in self._indexes:
            raise StorageError(f"index on {table}.{column} already exists")
        tree = BPlusTree(order=self.btree_order)
        self._load_index(tbl, tree, position)
        self._indexes[(table, column)] = tree

    @staticmethod
    def _load_index(tbl: Table, tree: BPlusTree, position: int) -> None:
        """Bulk-load ``tree`` from the table's column (a sealed bin's
        as slices of its blob), in one sort of its ``(key, row id)``
        pairs: equal keys keep row-id order, as after sequential
        inserts."""
        tree.bulk_load(sorted(tbl.column(position)))

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    # ------------------------------------------------------- whole tables

    def image(self, table: str) -> TableImage:
        """The table whole: its loose rows and sealed bins as they are
        held, nothing materialised.  A maintenance-plane bulk copy
        (checkpoint, repair source, rotation intent), not a query:
        unlogged."""
        tbl = self._table(table)
        return TableImage(
            table, tbl.column_names, dict(tbl._rows), tbl._next_row_id,
            tuple(sorted(col for name, col in self._indexes if name == table)),
            tbl._bins and dict(tbl._bins), tbl.agg_tree, bool(tbl._slots),
        )

    def install(self, image: TableImage, logged: bool = True) -> int:
        """Replace ``image.table`` wholesale by ``image``; returns its row
        count.  The image's sealed bins are installed as they are (every
        table installing one image shares them) and its indexes
        bulk-load from the loose rows plus the bins' column slices.
        The host sees one ``ROW_WRITE`` run over the row ids, and the
        rows-written counter moves; ``logged=False`` (a restore loading
        a fresh host's disk) records neither.
        """
        name = image.table
        if self.has_table(name):
            self.drop_table(name)
        self._tables[name] = tbl = Table.from_image(image)
        row_ids = tbl.row_ids()
        for column in image.indexed:
            self.create_index(name, column)
        if logged:
            self.access_log.record_run(
                name, None, (None,), (0,), row_ids, None, AccessKind.ROW_WRITE
            )
            _count_rows_written(len(row_ids))
        return len(row_ids)

    # ------------------------------------------------------------------- DML

    def insert(self, table: str, columns: Sequence) -> int:
        """Insert a row, maintain all indexes, log the write.

        An injected transient fault raises *before* any state change, so
        the caller's retry policy can safely repeat the insert.
        """
        if self.fault_injector.fire("storage.write.transient") is not None:
            raise TransientStorageError(
                f"transient write failure inserting into {table!r} (injected)"
            )
        tbl = self._table(table)
        row_id = tbl.insert(columns)
        for (tname, column), tree in self._indexes.items():
            if tname == table:
                tree.insert(columns[tbl.column_index(column)], row_id)
        self.access_log.record(AccessKind.ROW_WRITE, table, row_id)
        _count_rows_written(1)
        return row_id

    def insert_many(self, table: str, rows: Sequence[Sequence], start: int = 0) -> None:
        """Land ``rows[start:]`` as one bulk write: rows appended, every
        index bulk-loaded from its key-sorted column, one ``ROW_WRITE``
        run and one counter increment.

        The transient write fault is consulted before every row; when it
        (or a malformed row) stops the landing, the rows before it are
        landed, indexed and logged, and the caller resumes after them.
        """
        tbl = self._table(table)
        fire = self.fault_injector.fire
        first = tbl._next_row_id
        try:
            for columns in islice(rows, start, None):
                if fire("storage.write.transient") is not None:
                    raise TransientStorageError(
                        f"transient write failure inserting into {table!r} (injected)"
                    )
                tbl.insert(columns)
        finally:
            landed = range(first, tbl._next_row_id)
            if landed:
                for (tname, column), tree in self._indexes.items():
                    if tname == table:
                        self._load_index(tbl, tree, tbl.column_index(column))
                self.access_log.record_run(
                    table, None, (None,), (0,), landed, None, AccessKind.ROW_WRITE
                )
                _count_rows_written(len(landed))

    def delete(self, table: str, row_id: int) -> None:
        """Delete a row and its index entries."""
        tbl = self._table(table)
        row = tbl.fetch(row_id)
        for (tname, column), tree in self._indexes.items():
            if tname == table:
                tree.delete(row[tbl.column_index(column)], row_id)
        tbl.delete(row_id)
        self.access_log.record(AccessKind.ROW_WRITE, table, row_id)
        _count_rows_written(1)

    def overwrite(self, table: str, row_id: int, columns: Sequence) -> None:
        """Replace a row in place, keeping indexes consistent."""
        tbl = self._table(table)
        old = tbl.fetch(row_id)
        for (tname, column), tree in self._indexes.items():
            if tname == table:
                position = tbl.column_index(column)
                tree.delete(old[position], row_id)
                tree.insert(columns[position], row_id)
        tbl.overwrite(row_id, columns)
        self.access_log.record(AccessKind.ROW_WRITE, table, row_id)
        _count_rows_written(1)

    # ----------------------------------------------------------------- reads

    def lookup(self, table: str, column: str, key) -> list[Row]:
        """Index point lookup: all rows whose ``column`` equals ``key``."""
        tree = self._index(table, column)
        return self._read(table, AccessKind.INDEX_LOOKUP, (key,), tree.get)

    def lookup_many(self, table: str, column: str, keys: Sequence) -> list[Row]:
        """Batched point lookups — how the enclave submits trapdoors.

        This is the malicious-host response channel: armed tamper faults
        corrupt, drop, or duplicate rows *in the returned batch* (the
        stored data stays intact), exactly the misbehaviour the paper's
        hash-chain tags detect.
        """
        with telemetry.span("storage.lookup", table=table, keys=len(keys)):
            if not keys:  # nothing is looked up, so nothing is resolved either
                return []
            tree = self._index(table, column)
            return self._tamper(
                self._read(table, AccessKind.INDEX_LOOKUP, tuple(keys), tree.get)
            )

    def _read(
        self,
        table: str,
        head_kind: AccessKind | None,
        heads: Sequence,
        resolve: Callable[[object], Iterable[int]],
    ) -> list[Row]:
        """Serve one batched read: for each head, the rows ``resolve`` names.

        Rows are read one at a time, the way the host serves them — each
        consults ``storage.read.transient`` first, so a seeded fault
        schedule draws exactly as it does for single-row reads — but the
        bookkeeping happens once per call: one access-log run and one
        increment per counter, covering exactly the heads and rows read
        so far when a fault (or a missing row) aborts the batch.
        """
        tbl = self._table(table)
        fire = self.fault_injector.fire
        starts: list[int] = []
        row_ids: list[int] = []
        rows: list[Row] = []
        try:
            for head in heads:
                starts.append(len(rows))
                for row_id in resolve(head):
                    if fire("storage.read.transient") is not None:
                        raise TransientStorageError(
                            f"transient read failure on {table!r} row {row_id} "
                            "(injected)"
                        )
                    rows.append(tbl.fetch(row_id))
                    row_ids.append(row_id)
        finally:
            self.access_log.record_run(
                table,
                head_kind,
                heads,
                starts,
                row_ids,
                self.rows_per_page,
            )
            if head_kind is AccessKind.INDEX_LOOKUP:
                telemetry.counter(
                    "concealer_index_lookups_total",
                    "B+-tree point lookups submitted to storage",
                    secrecy=telemetry.PUBLIC_SIZE,
                ).inc(len(starts))
            if row_ids:
                _count_rows_read(len(row_ids))
        return rows

    # ------------------------------------------------------------ packed bins

    def store_packed_bins(self, table: str, packed_bins: Sequence) -> None:
        """Install the sealed bins of a table (one PackedBin per bin).

        They become the record of truth for the rows they hold (held
        once, read as slices of the bin).  Any later row mutation, even
        one behind the engine's back, materialises the rows and drops
        the bins, and readers fall back to trapdoor lookups.
        """
        self._table(table).packed_bins = {
            packed.bin_index: packed for packed in packed_bins
        }

    def has_packed_bins(self, table: str) -> bool:
        """Whether a columnar sidecar is installed for this table."""
        return self._table(table).packed_bins is not None

    def fetch_packed_bin(self, table: str, runs: Sequence[tuple[int, int, int]]):
        """Read slot runs ``(bin, start, stop)`` of the sealed bins (a bin
        whole is ``(bin, 0, |b|)``) as one columnar batch; ``None`` means
        fall back.

        The host-observable view is identical to the trapdoor fetch of
        the same rows: the same physical ROW_READ/PAGE_READ stream (one
        BIN_READ per unit, a whole bin's index or a run, in place of a
        lookup per row), the same rows-read counter, and the
        same malicious-host response channel — armed tamper faults
        corrupt, drop, or duplicate rows in the returned batch while
        stored bytes stay intact.  The bookkeeping for that view is one
        access-log run and one counter increment, whatever the size.
        """
        packed = self._table(table).packed_bins
        parts = [(packed.get(b), start, stop) for b, start, stop in runs] if packed else ()
        if not parts or any(pb is None for pb, _, _ in parts):
            return None
        chosen = parts[0][0].join_runs(parts)
        whole = chosen is parts[0][0]  # a stored bin, headed by its index
        heads = (runs[0][0],) if whole else tuple(runs)
        unit = f"bin {runs[0][0]}" if whole else f"{len(runs)} runs"
        starts = list(accumulate((stop - start for _, start, stop in runs[:-1]), initial=0))
        # Same span family as the scalar batched lookup, so trace trees
        # (and the trace-leakage audits over them) keep their shape.
        with telemetry.span("storage.lookup", table=table, keys=chosen.row_count):
            if self.fault_injector.fire("storage.read.transient") is not None:
                raise TransientStorageError(
                    f"transient read failure on {table!r} {unit} (injected)"
                )
            self.access_log.record_run(
                table,
                AccessKind.BIN_READ,
                heads,
                starts,
                chosen.row_ids,
                self.rows_per_page,
            )
            _count_rows_read(chosen.row_count)
            return self._tamper_packed(chosen)

    # ---------------------------------------------------------- aggregate tree

    def store_agg_tree(self, table: str, tree) -> None:
        """Install the aggregate-tree sidecar for a table; any row
        mutation drops it, as the bins, and readers fall back to them."""
        self._table(table).agg_tree = tree

    def has_agg_tree(self, table: str) -> bool:
        """Whether an aggregate-tree sidecar is installed for this table."""
        return self._table(table).agg_tree is not None

    def fetch_agg_tree_meta(self, table: str):
        """The tree's public shape + sealed directory; ``None`` = no tree.

        Everything in the returned :class:`~repro.core.aggtree.TreeMeta`
        is either public geometry (fanout, leaf count, entity count) or
        ciphertext (the E_nd-sealed directory and root tag), so handing
        it out is not a read the adversary learns anything new from.
        """
        tree = self._table(table).agg_tree
        return None if tree is None else tree.meta()

    def fetch_tree_nodes(self, table: str, coords: Sequence[tuple]):
        """Read encrypted tree nodes by (entity, level, index) coordinate.

        Returns one ciphertext per coordinate, or ``None`` when no tree
        sidecar is installed (callers fall back to the bin path).  The
        coordinates the host observes are public: they derive from the
        query's time range plus the tree's public shape (entity indices
        are keyed-PRF ranks, uniform like cell-ids).  The reproduction
        surfaces this observable stream through the rows-read counter —
        one "row" per fixed-size node — rather than per-node access-log
        entries.  Armed ``storage.tree.corrupt`` faults flip bytes in
        the returned batch (stored bytes stay intact): the malicious-
        host response channel the node MAC entries detect.
        """
        tree = self._table(table).agg_tree
        if tree is None:
            return None
        with telemetry.span("storage.lookup", table=table, keys=len(coords)):
            if self.fault_injector.fire("storage.read.transient") is not None:
                raise TransientStorageError(
                    f"transient read failure on {table!r} tree nodes (injected)"
                )
            nodes = [
                tree.node_at(entity, level, index)
                for entity, level, index in coords
            ]
            _count_rows_read(len(nodes))
            injector = self.fault_injector
            if nodes and injector.fire("storage.tree.corrupt") is not None:
                victim = injector.choose(len(nodes), "storage.tree.corrupt")
                nodes[victim] = injector.corrupt_bytes(nodes[victim])
            return nodes

    def _tamper_packed(self, chosen):
        """The packed-batch analogue of :meth:`_tamper`."""
        injector = self.fault_injector
        if chosen.row_count and injector.fire("storage.row.corrupt") is not None:
            victim = injector.choose(chosen.row_count, "storage.row.corrupt")
            column = injector.choose(len(chosen.columns), "storage.row.corrupt")
            chosen = chosen.with_corrupted_cell(
                victim, column, injector.corrupt_bytes
            )
        if chosen.row_count and injector.fire("storage.row.drop") is not None:
            chosen = chosen.without_row(
                injector.choose(chosen.row_count, "storage.row.drop")
            )
        if chosen.row_count and injector.fire("storage.row.duplicate") is not None:
            chosen = chosen.with_duplicated_row(
                injector.choose(chosen.row_count, "storage.row.duplicate")
            )
        return chosen

    def scan(self, table: str) -> Iterator[Row]:
        """Full table scan (what the Opaque baseline must do)."""
        tbl = self._table(table)
        # The run stays open while the generator is live: a row joins
        # the log when it is yielded, so an abandoned scan shows only
        # the rows it actually read.
        row_ids: list[int] = []
        self.access_log.record_run(
            table, AccessKind.TABLE_SCAN, (None,), (0,), row_ids, None
        )
        for row in tbl.scan():
            row_ids.append(row.row_id)
            yield row

    def row_count(self, table: str) -> int:
        """Live-row count (part of the paper's setup leakage L_s)."""
        return len(self._table(table))

    def index_size(self, table: str, column: str) -> int:
        """Number of entries in an index (also part of L_s)."""
        return self._index(table, column).size

    # -------------------------------------------------------------- internal

    def _tamper(self, rows: list[Row]) -> list[Row]:
        """Apply armed corrupt/drop/duplicate faults to a result batch."""
        if not rows:
            return rows
        injector = self.fault_injector
        if injector.fire("storage.row.corrupt") is not None:
            victim = injector.choose(len(rows), "storage.row.corrupt")
            row = rows[victim]
            column = injector.choose(len(row.columns), "storage.row.corrupt")
            columns = list(row.columns)
            if isinstance(columns[column], bytes):
                columns[column] = injector.corrupt_bytes(columns[column])
                rows[victim] = Row(row_id=row.row_id, columns=tuple(columns))
        if injector.fire("storage.row.drop") is not None:
            del rows[injector.choose(len(rows), "storage.row.drop")]
        if rows and injector.fire("storage.row.duplicate") is not None:
            rows.append(rows[injector.choose(len(rows), "storage.row.duplicate")])
        return rows

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"no table named {name!r}") from None

    def _index(self, table: str, column: str) -> BPlusTree:
        self._table(table)
        try:
            return self._indexes[(table, column)]
        except KeyError:
            raise IndexNotFoundError(
                f"no index on {table}.{column}"
            ) from None
