"""Page model and adversary-visible access log.

A real DBMS reads and writes fixed-size pages; what a curious server
administrator observes is the stream of page/row accesses.  Concealer's
security claims are claims *about that stream*: every query fetches the
same number of rows (output-size hiding) and the server cannot tell
which fetched rows satisfied the query (partial access-pattern hiding).

:class:`AccessLog` is that stream: one :class:`AccessEvent` per
operation the engine performs.  The leakage analysis
(:mod:`repro.analysis`) and the security test-suite treat it as the
honest-but-curious service provider's complete view of storage.

The stream is stored *run-length*: a single operation is a plain
``(kind, table, detail, query_id)`` tuple, and a batched read (a whole
packed bin, a trapdoor batch, a scan) or a bulk landing's writes is one
:class:`_Run` holding the observable arguments — the head events'
details and the row ids read (or written) under each — instead of one
object per row.  ``AccessEvent`` objects
are built only when somebody iterates the log; the volume and
access-pattern questions the analyses ask are answered from the runs
directly.  What the host is modelled to see does not change: iterating
yields exactly the events, in exactly the order, that per-row recording
produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class AccessKind(str, Enum):
    """The operation categories an observer can distinguish."""

    ROW_READ = "row_read"
    ROW_WRITE = "row_write"
    INDEX_LOOKUP = "index_lookup"
    INDEX_SCAN = "index_scan"
    TABLE_SCAN = "table_scan"
    PAGE_READ = "page_read"
    PAGE_WRITE = "page_write"
    # A columnar sidecar read: one event per whole bin or slot run
    # fetched, in addition to the per-row ROW_READ/PAGE_READ events the
    # fetch still emits (the adversary sees which physical rows left
    # storage either way; this event records the unit they left in).
    BIN_READ = "bin_read"


@dataclass(frozen=True)
class AccessEvent:
    """One observed storage operation.

    ``detail`` carries the observable argument — a physical row id, a
    page number, or the opaque ciphertext used as an index key (the
    adversary sees ciphertext bytes but cannot invert them).
    ``query_id`` groups events belonging to one query so per-query
    volumes can be computed.
    """

    kind: AccessKind
    table: str
    detail: bytes | int | None = None
    query_id: int | None = None


class _Run(NamedTuple):
    """One batched read (or bulk write), stored unexpanded.

    It stands for: each head event (``head_kind`` with ``heads[i]`` as
    its detail), followed by a ``row_kind`` event (``ROW_READ``, or
    ``ROW_WRITE`` for a landing) — and, when ``rows_per_page`` is set,
    a ``PAGE_READ`` — for every row under that head.  Head ``i`` owns
    ``row_ids[starts[i]:starts[i + 1]]``; the last head owns the rest,
    so a batch that stops early (a transient fault, a scan its consumer
    abandons) needs no fix-up.
    ``heads`` may be longer than ``starts``: only the first
    ``len(starts)`` heads were observed.

    The sequences are held by reference, never copied: a packed-bin
    run points at the bin's own ``row_ids`` tuple.
    """

    table: str
    query_id: int | None
    head_kind: AccessKind | None  # None: rows only (a bare row fetch)
    heads: Sequence
    starts: Sequence[int]
    row_ids: Sequence[int]
    rows_per_page: int | None  # None: no PAGE_READ per row (table scans)
    row_kind: AccessKind = AccessKind.ROW_READ

    def event_count(self) -> int:
        heads = 0 if self.head_kind is None else len(self.starts)
        per_row = 1 if self.rows_per_page is None else 2
        return heads + per_row * len(self.row_ids)

    def events(self) -> Iterator[AccessEvent]:
        table, query_id, head_kind, heads, starts, row_ids, rows_per_page, row_kind = self
        stops = (*starts[1:], len(row_ids))
        for head, start, stop in zip(heads, starts, stops):
            if head_kind is not None:
                yield AccessEvent(head_kind, table, head, query_id)
            for row_id in row_ids[start:stop]:
                yield AccessEvent(row_kind, table, row_id, query_id)
                if rows_per_page is not None:
                    yield AccessEvent(
                        AccessKind.PAGE_READ, table, row_id // rows_per_page, query_id
                    )


class AccessLog:
    """An append-only log of everything the storage engine did.

    The log supports *query scoping*: callers bracket a query with
    :meth:`begin_query` so that later analysis can ask "how many rows
    did query 17 fetch?" — the paper's output-size leakage is exactly
    that per-query count.
    """

    def __init__(self):
        # Single events as (kind, table, detail, query_id) tuples,
        # batched reads as _Run; see the module docstring.
        self._entries: list[tuple] = []
        # The same entries grouped by query scope, so per-query
        # questions cost the query's entries, not the whole log.
        self._by_query: dict[int, list[tuple]] = {}
        self._query_counter = 0
        self._active_query: int | None = None

    def begin_query(self) -> int:
        """Start a new query scope and return its id."""
        self._query_counter += 1
        self._active_query = self._query_counter
        return self._query_counter

    def end_query(self) -> None:
        """Close the current query scope."""
        self._active_query = None

    @property
    def last_query_id(self) -> int:
        """The id :meth:`begin_query` handed out most recently (0: none yet)."""
        return self._query_counter

    def record(self, kind: AccessKind, table: str, detail: bytes | int | None = None) -> None:
        """Append one event, tagged with the active query scope if any."""
        query_id = self._active_query
        self._append((kind, table, detail, query_id), query_id)

    def record_run(
        self,
        table: str,
        head_kind: AccessKind | None,
        heads: Sequence,
        starts: Sequence[int],
        row_ids: Sequence[int],
        rows_per_page: int | None,
        row_kind: AccessKind = AccessKind.ROW_READ,
    ) -> None:
        """Append one batched read or write (see :class:`_Run`) in a single step.

        The arguments are kept by reference.  A caller may keep
        appending to ``row_ids`` while its read is still in progress (a
        streaming scan); nothing else may change afterwards.
        """
        query_id = self._active_query
        self._append(
            _Run(table, query_id, head_kind, heads, starts, row_ids, rows_per_page, row_kind),
            query_id,
        )

    def _append(self, entry: tuple, query_id: int | None) -> None:
        self._entries.append(entry)
        if query_id is not None:
            self._by_query.setdefault(query_id, []).append(entry)

    def events(self, kind: AccessKind | None = None, query_id: int | None = None) -> list[AccessEvent]:
        """Return events, optionally filtered by kind and/or query scope."""
        entries = self._entries if query_id is None else self._by_query.get(query_id, ())
        return [
            event for event in _expand(entries) if kind is None or event.kind == kind
        ]

    def rows_fetched(self, query_id: int) -> int:
        """The adversary's output-size observation for one query."""
        return _rows_read(self._by_query.get(query_id, ()))

    def row_ids_fetched(self, query_id: int) -> list[int]:
        """The physical row ids a query touched — the access pattern."""
        row_ids: list[int] = []
        for entry in self._by_query.get(query_id, ()):
            if type(entry) is _Run:
                if entry.row_kind is AccessKind.ROW_READ:
                    row_ids.extend(entry.row_ids)
            elif entry[0] == AccessKind.ROW_READ and isinstance(entry[2], int):
                row_ids.append(entry[2])
        return row_ids

    def per_query_volumes(self) -> dict[int, int]:
        """Map every observed query id to its row-fetch volume."""
        volumes: dict[int, int] = {}
        for query_id, entries in self._by_query.items():
            volume = _rows_read(entries)
            if volume:
                volumes[query_id] = volume
        return volumes

    def clear(self) -> None:
        """Drop all recorded events (query counter keeps advancing)."""
        self._entries.clear()
        self._by_query.clear()

    def __len__(self) -> int:
        return sum(
            entry.event_count() if type(entry) is _Run else 1
            for entry in self._entries
        )

    def __iter__(self) -> Iterator[AccessEvent]:
        return _expand(self._entries)


def _expand(entries: Iterable[tuple]) -> Iterator[AccessEvent]:
    """Materialise the events a sequence of log entries stands for."""
    for entry in entries:
        if type(entry) is _Run:
            yield from entry.events()
        else:
            yield AccessEvent(*entry)


def _rows_read(entries: Iterable[tuple]) -> int:
    """How many ROW_READ events a sequence of log entries stands for."""
    return sum(
        len(entry.row_ids) * (entry.row_kind is AccessKind.ROW_READ)
        if type(entry) is _Run
        else entry[0] == AccessKind.ROW_READ
        for entry in entries
    )
