"""Tests for the access-log bookkeeping."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.pager import AccessEvent, AccessKind, AccessLog


class TestAccessLog:
    def test_record_and_filter(self):
        log = AccessLog()
        log.record(AccessKind.ROW_READ, "t", 1)
        log.record(AccessKind.ROW_WRITE, "t", 2)
        assert len(log.events(AccessKind.ROW_READ)) == 1
        assert len(log) == 2

    def test_query_scoping(self):
        log = AccessLog()
        q1 = log.begin_query()
        log.record(AccessKind.ROW_READ, "t", 1)
        log.end_query()
        log.record(AccessKind.ROW_READ, "t", 2)  # unscoped
        assert log.rows_fetched(q1) == 1
        assert log.row_ids_fetched(q1) == [1]

    def test_query_ids_monotonic(self):
        log = AccessLog()
        ids = [log.begin_query() for _ in range(3)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_volumes_ignore_writes(self):
        log = AccessLog()
        q = log.begin_query()
        log.record(AccessKind.ROW_WRITE, "t", 1)
        log.record(AccessKind.ROW_READ, "t", 2)
        log.end_query()
        assert log.per_query_volumes() == {q: 1}

    def test_iteration_yields_events(self):
        log = AccessLog()
        log.record(AccessKind.TABLE_SCAN, "t")
        events = list(log)
        assert isinstance(events[0], AccessEvent)
        assert events[0].kind == AccessKind.TABLE_SCAN

    def test_clear_preserves_query_counter(self):
        log = AccessLog()
        first = log.begin_query()
        log.end_query()
        log.clear()
        second = log.begin_query()
        assert second > first

    def test_last_query_id_follows_begin_query(self):
        log = AccessLog()
        assert log.last_query_id == 0
        qid = log.begin_query()
        log.end_query()
        assert log.last_query_id == qid

    def test_run_points_at_the_callers_row_ids(self):
        # A packed-bin run costs the same whatever the bin size: it keeps
        # the bin's own tuple instead of one object per row.
        log = AccessLog()
        row_ids = tuple(range(512))
        log.record_run("t", AccessKind.BIN_READ, (3,), (0,), row_ids, 64)
        assert len(log._entries) == 1
        assert log._entries[0].row_ids is row_ids
        assert len(log) == 1 + 2 * 512

    def test_write_run_is_one_entry_of_row_writes_and_no_reads(self):
        log = AccessLog()
        qid = log.begin_query()
        log.record_run("t", None, (None,), (0,), range(5, 9), None, AccessKind.ROW_WRITE)
        log.end_query()
        assert len(log._entries) == 1 and len(log) == 4
        assert [(e.kind, e.detail, e.query_id) for e in log] == [
            (AccessKind.ROW_WRITE, row_id, qid) for row_id in range(5, 9)
        ]
        # Writes are not fetch volume: the leakage analyses never see them.
        assert log.rows_fetched(qid) == 0
        assert log.row_ids_fetched(qid) == []
        assert log.per_query_volumes() == {}
        assert log.events(AccessKind.ROW_READ) == []

    def test_open_scan_run_grows_with_the_scan(self):
        log = AccessLog()
        qid = log.begin_query()
        seen: list[int] = []
        log.record_run("t", AccessKind.TABLE_SCAN, (None,), (0,), seen, None)
        assert [e.kind for e in log] == [AccessKind.TABLE_SCAN]
        seen.extend([4, 9])
        assert [(e.kind, e.detail) for e in log] == [
            (AccessKind.TABLE_SCAN, None),
            (AccessKind.ROW_READ, 4),
            (AccessKind.ROW_READ, 9),
        ]
        assert log.rows_fetched(qid) == 2


class _ReferenceLog:
    """The log as it was before runs: one AccessEvent per operation."""

    def __init__(self):
        self.events: list[AccessEvent] = []
        self.query_counter = 0
        self.active: int | None = None

    def begin_query(self):
        self.query_counter += 1
        self.active = self.query_counter

    def end_query(self):
        self.active = None

    def record(self, kind, table, detail=None):
        self.events.append(AccessEvent(kind, table, detail, self.active))

    def read_row(self, table, row_id, rows_per_page):
        self.record(AccessKind.ROW_READ, table, row_id)
        if rows_per_page is not None:
            self.record(AccessKind.PAGE_READ, table, row_id // rows_per_page)


_TABLES = st.sampled_from(["epoch_0", "epoch_1"])
_ROW_IDS = st.lists(st.integers(0, 500), max_size=6)
_ROWS_PER_PAGE = st.sampled_from([1, 4, 64])
_SINGLE_KINDS = st.sampled_from(
    [
        AccessKind.ROW_READ,
        AccessKind.ROW_WRITE,
        AccessKind.PAGE_READ,
        AccessKind.INDEX_LOOKUP,
        AccessKind.TABLE_SCAN,
    ]
)
_OPERATIONS = st.one_of(
    st.tuples(st.just("begin")),
    st.tuples(st.just("end")),
    st.tuples(st.just("clear")),
    st.tuples(
        st.just("record"),
        _SINGLE_KINDS,
        _TABLES,
        st.one_of(st.none(), st.integers(0, 500), st.binary(max_size=4)),
    ),
    st.tuples(st.just("bin"), _TABLES, st.integers(0, 9), _ROW_IDS, _ROWS_PER_PAGE),
    # A lookup batch: the rows each key resolved to, and how many rows
    # were read before a fault cut the batch short (None: ran to the end).
    st.tuples(
        st.just("lookup"),
        _TABLES,
        st.lists(st.tuples(st.binary(min_size=1, max_size=4), _ROW_IDS), max_size=5),
        st.one_of(st.none(), st.integers(0, 30)),
        _ROWS_PER_PAGE,
    ),
    st.tuples(st.just("scan"), _TABLES, _ROW_IDS),
    st.tuples(st.just("row"), _TABLES, st.integers(0, 500), _ROWS_PER_PAGE),
    # A bulk landing: the ids of the rows it appended (none, if a fault
    # stopped it at its first row — then nothing is logged at all).
    st.tuples(st.just("land"), _TABLES, st.integers(0, 500), st.integers(0, 40)),
)


def _apply(op, log: AccessLog, ref: _ReferenceLog) -> None:
    name = op[0]
    if name == "begin":
        log.begin_query()
        ref.begin_query()
    elif name == "end":
        log.end_query()
        ref.end_query()
    elif name == "clear":
        log.clear()
        ref.events.clear()
    elif name == "record":
        log.record(*op[1:])
        ref.record(*op[1:])
    elif name == "bin":
        _, table, bin_index, row_ids, rows_per_page = op
        log.record_run(
            table, AccessKind.BIN_READ, (bin_index,), (0,), tuple(row_ids), rows_per_page
        )
        ref.record(AccessKind.BIN_READ, table, bin_index)
        for row_id in row_ids:
            ref.read_row(table, row_id, rows_per_page)
    elif name == "lookup":
        _, table, resolved, budget, rows_per_page = op
        if not resolved:
            return
        # Replay the engine's loop: note the key, then read its rows
        # until the batch ends or the fault budget runs out.
        starts, read = [], []
        for key, row_ids in resolved:
            starts.append(len(read))
            ref.record(AccessKind.INDEX_LOOKUP, table, key)
            cut = False
            for row_id in row_ids:
                if budget is not None and len(read) >= budget:
                    cut = True
                    break
                read.append(row_id)
                ref.read_row(table, row_id, rows_per_page)
            if cut:
                break
        keys = tuple(key for key, _ in resolved)
        log.record_run(
            table, AccessKind.INDEX_LOOKUP, keys, starts, read, rows_per_page
        )
    elif name == "scan":
        _, table, row_ids = op
        seen: list[int] = []
        log.record_run(table, AccessKind.TABLE_SCAN, (None,), (0,), seen, None)
        ref.record(AccessKind.TABLE_SCAN, table)
        for row_id in row_ids:
            seen.append(row_id)
            ref.read_row(table, row_id, None)
    elif name == "row":
        _, table, row_id, rows_per_page = op
        log.record_run(table, None, (None,), (0,), (row_id,), rows_per_page)
        ref.read_row(table, row_id, rows_per_page)
    elif name == "land":
        _, table, first, count = op
        landed = range(first, first + count)
        if landed:  # the engine's rule: an empty landing writes no run
            log.record_run(
                table, None, (None,), (0,), landed, None, AccessKind.ROW_WRITE
            )
        for row_id in landed:
            ref.record(AccessKind.ROW_WRITE, table, row_id)


class TestRunLengthLogMatchesPerEventLog:
    """The run-length log is the per-event log, observably.

    Random interleavings of every way the engine writes the log are
    applied to an ``AccessLog`` and to a plain list of ``AccessEvent``
    built one event at a time (what the log used to store); every
    public question must get the same answer from both.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPERATIONS, max_size=25))
    def test_every_view_agrees_with_the_reference(self, operations):
        log, ref = AccessLog(), _ReferenceLog()
        for op in operations:
            _apply(op, log, ref)

        assert list(log) == ref.events
        assert len(log) == len(ref.events)
        assert log.events() == ref.events
        assert log.last_query_id == ref.query_counter

        query_ids = [None, *range(1, ref.query_counter + 2)]
        for kind in [None, *AccessKind]:
            for query_id in query_ids:
                assert log.events(kind, query_id) == [
                    e
                    for e in ref.events
                    if (kind is None or e.kind == kind)
                    and (query_id is None or e.query_id == query_id)
                ]

        volumes: dict[int, int] = {}
        for query_id in query_ids[1:]:
            reads = [
                e
                for e in ref.events
                if e.query_id == query_id and e.kind == AccessKind.ROW_READ
            ]
            assert log.rows_fetched(query_id) == len(reads)
            assert log.row_ids_fetched(query_id) == [
                e.detail for e in reads if isinstance(e.detail, int)
            ]
            if reads:
                volumes[query_id] = len(reads)
        assert log.per_query_volumes() == volumes
        assert list(log.per_query_volumes()) == list(volumes)
