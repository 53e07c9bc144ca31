"""The Byzantine response channel, per read kind × fault site.

``ByzantineReplica`` perturbs trapdoor rows, packed bins and tree nodes
through one channel.  For every (kind, site) pair the enclave's own
verifier for that kind must reject the perturbed answer with the
violation kind it has always reported (``replica.slow`` perturbs time,
not bytes: the replicated engine's attempt budget turns it into a
``timeout`` failover).  eBPB- and winSecRange-shaped trapdoor fetches
ride the same channel as kinds of their own, verified by the slot
request that fetched them, and as whole queries on a plain engine (a
bent batch is a typed violation, a duplicated row is deduplicated away)
and on a replica group (a failover to the honest answer).  The ``run``
kind reads an eBPB-shaped request as slot runs of the sealed bins: the
same sites as every kind on a replica, another request's runs replayed,
and a plain engine's tamper, drop and duplicate.  A further
site sits where trapdoor rows are
packed into the enclave's columnar form: an answer that is not a table
of fixed-width byte cells must end in a typed violation there — on a
plain engine with or without verification, and as one failover plus a
quarantine on a replica group — never in a crash.  The sidecar boundary
is held to the same: a packed bin with too few columns or columns of
another width than the table's ends in the same typed violation.  The
last test pins the order in which the channel consults its sites: a
seeded schedule over a mixed rows/packed/tree read sequence must replay
to the bytes captured before the three hand-copied channels became one.
Every test then runs once more with the verifier's memos (tags, and each
bin's index-key digest for verification by position) warm.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import telemetry
from repro.core.context import RunRequest, SlotRequest
from repro.core.packed import PackedBin
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.exceptions import IntegrityViolation
from repro.faults.injector import FaultInjector, FaultSpec
from repro.storage.table import Row

from tests.conftest import make_stack
from tests.replication.conftest import (
    MASTER_KEY,
    SPEC,
    make_replicated_stack,
    replication_records,
)

NEW_MASTER = bytes(range(32, 64))
KINDS = ("rows", "packed", "tree")
# Trapdoor fetches shaped like eBPB's and winSecRange's, verified by the
# slot request that fetched them.
SLOT_KINDS = ("ebpb", "winsecrange")
# The same eBPB-shaped request read as slot runs of the sealed bins.
RUN_KIND = "run"
# The violation kind each perturbation has always been rejected with.
TAMPER_KIND = {
    "rows": "chain-mismatch", "packed": "chain-mismatch", "tree": "undecryptable",
    "ebpb": "chain-mismatch", "winsecrange": "chain-mismatch", RUN_KIND: "chain-mismatch",
}
DROP_KIND = {
    "rows": "counter-gap", "packed": "counter-gap", "tree": "missing-node",
    "ebpb": "counter-gap", "winsecrange": "counter-gap", RUN_KIND: "counter-gap",
}


class Channel:
    """Replica 0's armed channel over a sealed epoch, plus what the
    enclave needs to ask for — and check — one unit of each kind."""

    # Set by the ``warm_memo`` fixture: every sealed tag is opened before
    # an answer is checked.
    warm = False

    def __init__(self, *specs, seed=5, replicas=2):
        self.injector = FaultInjector(seed, list(specs))
        _, self.service, self.engine, members, self.clock = make_replicated_stack(
            replication_records(), replicas=replicas, injector=self.injector
        )
        self.replica = members[0]
        self.context = self.service.context_for(0)
        self.table = self.context.table_name
        self.meta, _ = self.context.tree_state(self.engine)
        self.coords = [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def full_bin(self, skip=()):
        """A bin holding real rows (so every check has something to bite)."""
        return next(
            b for b in self.context.layout.bins
            if b.real_tuples and b.index not in skip
        )

    def slot_request(self, kind, chosen, context) -> SlotRequest | RunRequest:
        """The fetch a slot kind makes around ``chosen``: eBPB's cells of
        two bins with fakes cycling past the pool — by trapdoor, or as
        slot runs for the run kind — or winSecRange's fullest window
        (the budget's, so every slot is a real row a perturbation must
        be caught on)."""
        executor = self.service._range_executor
        if kind == "winsecrange":
            cells = executor._window_cell_ids(context, 0)
            real = sum(context.c_tuple[cid] for cid in cells)
            fakes = executor._pad_fakes(context, executor._window_budget(context) - real)
        else:
            cells = [*chosen.cell_ids, *self.full_bin(skip={chosen.index}).cell_ids]
            fakes = executor._pad_fakes(context, context.fake_pool_size + 2)
        if kind == RUN_KIND:
            return context.slot_runs(cells, fakes)
        return SlotRequest(cells, context.trapdoors_for_cell_ids(cells, fakes))

    def read(self, kind, chosen, source=None):
        source = source or self.replica
        if kind == "rows":
            return source.lookup_many(
                self.table, "index_key", self.context.trapdoors_for_bin(chosen)
            )
        if kind in SLOT_KINDS:
            request = self.slot_request(kind, chosen, self.service.context_for(0))
            return source.lookup_many(self.table, "index_key", request.trapdoors)
        if kind == RUN_KIND:
            request = self.slot_request(kind, chosen, self.service.context_for(0))
            return source.fetch_packed_bin(self.table, list(request.runs))
        if kind == "packed":
            return source.fetch_packed_bin(self.table, chosen.runs)
        return source.fetch_tree_nodes(self.table, self.coords)

    def verify(self, kind, chosen, answer):
        """What the enclave runs on an answer of this kind — a whole bin
        checked as the bin it asked for, a trapdoor fetch as the slot
        request it was, by request first."""
        context = self.service.context_for(0)
        if self.warm:
            _warm(context, self.engine.replicas[-1].inner)
        if kind == "rows":
            context.verified_bin(context.pack_rows(answer), chosen.cell_ids, chosen)
        elif kind in SLOT_KINDS:
            request = self.slot_request(kind, chosen, context)
            context.verified_bin(context.pack_rows(answer), request.cell_ids, request)
        elif kind == RUN_KIND:
            request = self.slot_request(kind, chosen, context)
            context.verified_bin(context._admit(answer), request.cell_ids, request)
        elif kind == "packed":
            context.verified_bin(context._admit(answer), chosen.cell_ids, chosen)
        else:
            context.decode_tree_nodes(self.meta, self.coords, answer)


def _warm(context, source):
    """Open and keep every sealed tag, and have the context accept an
    honest read from ``source`` of every cell-id, bin and padded bin's
    fake range, as a context that has been serving verified reads for a
    while has: its memo holds each one's digest."""
    table = context.table_name
    for cid, population in enumerate(context.c_tuple):
        if population:
            context._tag_digests(cid)
            trapdoors = context.trapdoors_for_cell_ids([cid])
            rows = source.lookup_many(table, "index_key", trapdoors)
            context.verified_bin(context.pack_rows(rows), [cid], SlotRequest([cid], trapdoors))
    for chosen in context.layout.bins:
        rows = source.lookup_many(table, "index_key", context.trapdoors_for_bin(chosen))
        context.verified_bin(context.pack_rows(rows), chosen.cell_ids, chosen)
        fakes = chosen.fake_count and context.slot_runs((), chosen.fake_ids())
        packed = fakes and source.fetch_packed_bin(table, list(fakes.runs))
        if packed:  # none without a sidecar: its fakes are read by trapdoor
            context.verified_bin(context._admit(packed), (), fakes)


def always(site):
    return FaultSpec(site, probability=1.0, max_fires=None)


@pytest.mark.parametrize("kind", KINDS + SLOT_KINDS + (RUN_KIND,))
class TestEveryKindThroughTheChannel:
    def test_honest_channel_answers_verify(self, kind):
        channel = Channel()
        chosen = channel.full_bin()
        channel.verify(kind, chosen, channel.read(kind, chosen))

    def test_tamper_is_rejected(self, kind):
        channel = Channel(always("replica.tamper"))
        chosen = channel.full_bin()
        with pytest.raises(IntegrityViolation) as caught:
            channel.verify(kind, chosen, channel.read(kind, chosen))
        # With this seed the flipped byte lands in a chained cell of a
        # bin; every byte of a tree node is authenticated ciphertext.
        assert caught.value.kind == TAMPER_KIND[kind]
        assert channel.injector.consultations("replica.tamper") == 1

    def test_dropped_unit_is_rejected(self, kind):
        channel = Channel(always("replica.bin.drop"))
        chosen = channel.full_bin()
        with pytest.raises(IntegrityViolation) as caught:
            channel.verify(kind, chosen, channel.read(kind, chosen))
        assert caught.value.kind == DROP_KIND[kind]

    def test_stale_replay_across_a_rotation_is_rejected(self, kind):
        channel = Channel()
        chosen = channel.full_bin()
        honest = channel.read(kind, chosen)
        rotate_service_keys(
            channel.service, NEW_MASTER, rotation_token(MASTER_KEY, NEW_MASTER)
        )
        channel.injector.arm(always("replica.replay.stale"))
        replayed = channel.read(kind, chosen)
        assert replayed == honest  # pre-rotation bytes, engine not asked
        with pytest.raises(IntegrityViolation) as caught:
            channel.verify(kind, chosen, replayed)
        assert caught.value.kind == "undecryptable"

    def test_slow_answer_costs_a_timeout_failover(self, kind):
        channel = Channel(FaultSpec("replica.slow", probability=1.0, max_fires=1))
        chosen = channel.full_bin()
        with telemetry.scoped_registry() as registry:
            answer = channel.read(kind, chosen, source=channel.engine)
        channel.verify(kind, chosen, answer)
        assert channel.engine.last_read_failovers == 1
        assert registry.value(
            "concealer_replica_failovers_total", reason="timeout"
        ) == 1


def _with_cell(rows, victim, column, cell):
    columns = list(rows[victim].columns)
    columns[column] = cell
    return rows[:victim] + [Row(rows[victim].row_id, tuple(columns))] + rows[victim + 1:]


# What a host can hand back in place of a table of fixed-width byte
# cells, and the violation kind the pack boundary reports it as.
MALFORMED = {
    "ragged-rows": (
        lambda rows: [Row(rows[0].row_id, rows[0].columns[:-1])] + rows[1:],
        "malformed-batch",
    ),
    "wrong-width-cell": (
        lambda rows: _with_cell(rows, 0, 0, rows[0][0] + b"\x00"),
        "malformed-batch",
    ),
    # The column's total length is right; only a per-cell check sees it.
    "one-short-one-long-cell": (
        lambda rows: _with_cell(
            _with_cell(rows, 0, 1, rows[0][1][:-1]), 1, 1, rows[1][1] + b"\x00"
        ),
        "malformed-batch",
    ),
    "non-bytes-cell": (
        lambda rows: _with_cell(rows, len(rows) - 1, 0, rows[-1][0].decode("latin-1")),
        "malformed-batch",
    ),
    "empty-batch": (lambda rows: [], "missing-cell"),
}
# Well-formed tables of fixed-width cells, only not this table's: what
# becomes of each row's columns.
WRONG_SHAPES = {
    "two-columns": lambda c: c[:2],
    "index-width-0": lambda c: (*c[:-1], b""),
    "index-width-16": lambda c: (*c[:-1], c[-1][:16]),
    "index-width-80": lambda c: (*c[:-1], c[0]),
    "filter-width-79": lambda c: (c[0][:-1], *c[1:]),
}


def _with_columns(rows, reshape):
    return [Row(row.row_id, tuple(reshape(row.columns))) for row in rows]


MALFORMED.update({
    shape: (lambda rows, reshape=reshape: _with_columns(rows, reshape), "malformed-batch")
    for shape, reshape in WRONG_SHAPES.items()
})
# The same at the sidecar boundary, where the host answers with a whole
# packed bin, and two shapes only a bin can have.
MALFORMED_BINS = {
    **{
        shape: (
            lambda packed, reshape=reshape: PackedBin.pack(
                packed.bin_index, _with_columns(packed.unpack(), reshape)
            ),
            "malformed-batch",
        )
        for shape, reshape in WRONG_SHAPES.items()
    },
    # What ``pack_rows`` used to emit for no rows at all.
    "zero-rows-width-1": (
        lambda packed: PackedBin(
            packed.bin_index, 0, (1,) * len(packed.columns),
            (b"",) * len(packed.columns), (),
        ),
        "malformed-batch",
    ),
    "zero-rows": (
        lambda packed: PackedBin(
            packed.bin_index, 0, packed.column_widths,
            (b"",) * len(packed.columns), (),
        ),
        "missing-cell",
    ),
}
LOCATION, TIMESTAMP, _ = replication_records()[0]
TRAPDOOR_READS = {
    "point": lambda service: service.execute_point(
        PointQuery(
            index_values=(LOCATION,), timestamp=TIMESTAMP,
            aggregate=Aggregate.COLLECT,
        )
    ),
    "ebpb": lambda service: service.execute_range(
        RangeQuery(index_values=(LOCATION,), time_start=0, time_end=299),
        method="ebpb",
    ),
}
TRAPDOOR_READS["winsecrange"] = lambda service: service.execute_range(
    RangeQuery(index_values=(LOCATION,), time_start=0, time_end=299),
    method="winsecrange",
)
SIDECAR_READS = {
    "point": TRAPDOOR_READS["point"],
    "multipoint": lambda service: service.execute_range(
        RangeQuery(index_values=(LOCATION,), time_start=0, time_end=299),
        method="multipoint",
    ),
    # On a sealed epoch these read slot runs of the sidecar bins.
    "ebpb": TRAPDOOR_READS["ebpb"],
    "winsecrange": TRAPDOOR_READS["winsecrange"],
}


def _malform(source, monkeypatch, method, bend):
    """Have ``source`` answer every ``method`` read malformed."""
    honest = getattr(source, method)
    monkeypatch.setattr(
        source, method, lambda *args, **kwargs: bend(honest(*args, **kwargs))
    )


class _MalformedAnswers:
    """An answer that is not the table's shape, at one fetch boundary:
    ``method`` is the read the host bends, ``shapes`` how, ``reads`` the
    queries that make it, ``sidecar`` whether the epoch keeps one."""

    warm = False  # see ``warm_memo``: an honest read opens the tags first
    # One failover takes the replica out for the table, however many
    # reads the query goes on to make; the exceptions, by (shape, read).
    failovers: dict = {}

    @pytest.mark.parametrize("verify", [False, True], ids=["unverified", "verified"])
    def test_plain_engine_reports_a_typed_violation(
        self, monkeypatch, shape, read, verify
    ):
        _, service = make_stack(
            SPEC, replication_records(), verify=verify, sidecar=self.sidecar
        )
        if self.warm:
            _warm(service.context_for(0), service.engine)
        bend, kind = self.shapes[shape]
        _malform(service.engine, monkeypatch, self.method, bend)
        with pytest.raises(IntegrityViolation) as caught:
            self.reads[read](service)
        assert caught.value.kind == kind

    def test_replica_group_fails_over_and_quarantines(
        self, monkeypatch, shape, read
    ):
        channel = Channel()
        if not self.sidecar:  # read by trapdoor
            for member in channel.engine.replicas:
                member.inner._tables[channel.table].packed_bins = None
        honest_answer, _ = self.reads[read](channel.service)
        _malform(channel.replica, monkeypatch, self.method, self.shapes[shape][0])
        answer, stats = self.reads[read](channel.service)
        assert answer == honest_answer
        assert stats.failovers == self.failovers.get((shape, read), 1)
        assert stats.verified
        assert channel.engine.tables_needing_repair() == [(0, channel.table)]


@pytest.mark.parametrize("read", sorted(TRAPDOOR_READS))
@pytest.mark.parametrize("shape", sorted(MALFORMED))
class TestMalformedAnswersAtThePackBoundary(_MalformedAnswers):
    method, shapes, reads, sidecar = "lookup_many", MALFORMED, TRAPDOOR_READS, False


@pytest.mark.parametrize("read", sorted(SIDECAR_READS))
@pytest.mark.parametrize("shape", sorted(MALFORMED_BINS))
class TestMalformedAnswersAtTheSidecarBoundary(_MalformedAnswers):
    method, shapes, reads, sidecar = (
        "fetch_packed_bin", MALFORMED_BINS, SIDECAR_READS, True
    )
    # An absent cell is held against that cell only, so each of the
    # three bins this range reads costs its own failover.
    failovers = {("zero-rows", "multipoint"): 3}


# ------------------------------ eBPB and winSecRange, query by query


RANGE_READS = {
    method: (
        lambda service, start=0, method=method: service.execute_range(
            RangeQuery(
                index_values=(LOCATION,), time_start=start, time_end=start + 299,
                aggregate=Aggregate.COLLECT,
            ),
            method=method,
        )
    )
    for method in SLOT_KINDS
}
# What the host bends on a plain engine (the batch a lookup returns).
PLAIN_SITES = ("storage.row.corrupt", "storage.row.drop", "storage.row.duplicate")
BYZANTINE_SITES = ("replica.tamper", "replica.bin.drop", "replica.replay.stale", "replica.slow")


@pytest.mark.parametrize("read", SLOT_KINDS)
class TestRangeReadsThroughTheChannel:
    """eBPB and winSecRange, verified by the slot request of each fetch:
    a bent batch is never a silently wrong answer — a typed violation on
    a plain engine, a failover to an honest replica in a group."""

    @pytest.mark.parametrize("site", PLAIN_SITES)
    def test_plain_engine_never_answers_wrong(self, read, site):
        from repro.storage.engine import StorageEngine

        _, honest = make_stack(SPEC, replication_records(), verify=True)
        want, _ = RANGE_READS[read](honest)
        outcomes = []
        for seed in range(6):
            engine = StorageEngine(fault_injector=FaultInjector(seed, []))
            _, service = make_stack(
                SPEC, replication_records(), verify=True, engine=engine
            )
            engine.fault_injector.arm(always(site))  # once landed
            try:
                got, stats = RANGE_READS[read](service)
            except IntegrityViolation as violation:
                outcomes.append(violation.kind)
            else:
                assert (got, stats.verified) == (want, True)
                outcomes.append(None)
        if site == "storage.row.duplicate":
            # STEP 4 drops the copy by its index key before anything looks.
            assert outcomes == [None] * 6
        else:
            assert set(outcomes) - {None} <= {
                "chain-mismatch", "undecryptable", "counter-gap", "missing-cell"
            }
            assert any(outcomes)

    @pytest.mark.parametrize("site", BYZANTINE_SITES)
    def test_replica_group_fails_over_to_the_honest_answer(self, read, site):
        want = [RANGE_READS[read](Channel().service, start)[0] for start in (0, 300)]
        channel = Channel()
        RANGE_READS[read](channel.service)  # replica 0 remembers an answer
        channel.injector.arm(
            FaultSpec(site, probability=1.0, max_fires=1)
            if site == "replica.slow" else always(site)
        )
        got, stats = RANGE_READS[read](channel.service, 300)
        assert (got, stats.verified) == (want[1], True)
        assert stats.failovers >= 1
        if site != "replica.slow":
            assert channel.engine.tables_needing_repair() == [(0, channel.table)]


def test_row_replay_of_another_bin_is_rejected_within_an_epoch():
    """Rows are remembered per table, so a replay can substitute another
    bin's (internally consistent) batch; the cell binding catches it."""
    channel = Channel()
    first = channel.full_bin()
    second = channel.full_bin(skip={first.index})
    channel.read("rows", first)
    channel.injector.arm(always("replica.replay.stale"))
    with pytest.raises(IntegrityViolation) as caught:
        channel.verify("rows", second, channel.read("rows", second))
    assert caught.value.kind == "missing-cell"


def test_a_replayed_run_read_of_another_request_is_rejected():
    """Run reads are remembered per table, like row batches, so a replay
    can hand one request's authentic runs to another: the column is not
    the one asked for, and the grouping path finds the absent cells."""
    channel = Channel()
    first = channel.full_bin()
    second = channel.full_bin(skip={first.index})
    third = channel.full_bin(skip={first.index, second.index})
    channel.read(RUN_KIND, first)  # the cells of ``first`` and ``second``
    channel.injector.arm(always("replica.replay.stale"))
    replayed = channel.read(RUN_KIND, third)  # asks ``third`` and ``first``
    with pytest.raises(IntegrityViolation) as caught:
        channel.verify(RUN_KIND, third, replayed)
    assert caught.value.kind == "missing-cell"
    assert caught.value.cell_id in third.cell_ids


@pytest.mark.parametrize("warm", [False, True], ids=["memo-cold", "memo-warm"])
@pytest.mark.parametrize("site", PLAIN_SITES)
def test_a_bent_run_read_on_a_plain_engine_never_passes_a_bent_real_row(site, warm):
    """A plain engine's own response channel on a run read: a typed
    violation, or — when the bent row was a fake — an accepted batch
    whose verified real rows are exactly the honest ones."""
    from repro.storage.engine import StorageEngine

    outcomes = []
    for seed in range(6):
        engine = StorageEngine(fault_injector=FaultInjector(seed, []))
        _, service = make_stack(SPEC, replication_records(), verify=True, engine=engine)
        context = service.context_for(0)
        if warm:
            _warm(context, engine)
        full = [b for b in context.layout.bins if b.real_tuples][:2]
        cells = [cid for chosen in full for cid in chosen.cell_ids]
        fakes = service._range_executor._pad_fakes(context, context.fake_pool_size + 2)
        request = context.slot_runs(cells, fakes)
        honest = engine.fetch_packed_bin(context.table_name, list(request.runs))
        want = context.verified_bin(context._admit(honest), cells, request)
        engine.fault_injector.arm(always(site))
        bent = engine.fetch_packed_bin(context.table_name, list(request.runs))
        try:
            got = context.verified_bin(context._admit(bent), cells, request)
        except IntegrityViolation as violation:
            outcomes.append(violation.kind)
            continue
        outcomes.append(None)
        real = [row for row, is_real in zip(got, got.real_rows) if is_real]
        assert real == [row for row, is_real in zip(want, want.real_rows) if is_real]
    assert set(outcomes) - {None} <= {"chain-mismatch", "undecryptable", "counter-gap"}
    assert any(outcomes)


# Captured at the commit before the three channels were merged (PR 14,
# 6cddcad): sha256 of ``encode_schedule()``, fired-fault count, sha256 of
# every answer served, and the virtual seconds stalled.
GOLDEN_SCHEDULE = "eabdaef20b11e268149f2904c23bbee0000db0784fbfda9498b2ed2cc4cc19f4"
GOLDEN_FIRED = 38
GOLDEN_ANSWERS = "9da68d02756e59ffb11c4af31d3640b1292d4796b6e70306e8c55c910dc789b7"
GOLDEN_STALLED = 25.0


def test_seeded_schedule_over_mixed_reads_replays_to_the_golden_bytes():
    channel = Channel(
        FaultSpec("replica.slow", 0.2, None),
        FaultSpec("replica.replay.stale", 0.3, None),
        FaultSpec("replica.tamper", 0.3, None),
        FaultSpec("replica.bin.drop", 0.3, None),
        seed=20260930,
    )
    bins = channel.context.layout.bins
    answers = hashlib.sha256()
    for step in range(40):
        chosen = bins[step % len(bins)]
        kind = KINDS[step % 3]
        channel.coords = [
            (step % channel.meta.entity_count, 0, j) for j in range(3)
        ]
        answer = channel.read(kind, chosen)
        if kind == "rows":
            answers.update(repr([(r.row_id, r.columns) for r in answer]).encode())
        elif kind == "packed":
            answers.update(answer.to_bytes())
        else:
            answers.update(repr(answer).encode())
    schedule = channel.injector.encode_schedule()
    assert len(schedule.splitlines()) == GOLDEN_FIRED
    assert hashlib.sha256(schedule).hexdigest() == GOLDEN_SCHEDULE
    assert answers.hexdigest() == GOLDEN_ANSWERS
    assert channel.clock.now() == GOLDEN_STALLED


# ------------------------------------------------- the suite, memo warm


@pytest.fixture
def warm_memo(monkeypatch):
    """Every check above decides the same once the context has opened
    and kept every sealed tag (what a serving enclave's state is)."""
    monkeypatch.setattr(Channel, "warm", True)
    monkeypatch.setattr(_MalformedAnswers, "warm", True)


@pytest.mark.usefixtures("warm_memo")
class TestEveryKindWithTheTagMemoWarm(TestEveryKindThroughTheChannel):
    pass


@pytest.mark.usefixtures("warm_memo")
class TestMalformedPackAnswersWithTheTagMemoWarm(TestMalformedAnswersAtThePackBoundary):
    pass


@pytest.mark.usefixtures("warm_memo")
class TestMalformedSidecarAnswersWithTheTagMemoWarm(
    TestMalformedAnswersAtTheSidecarBoundary
):
    pass


@pytest.mark.usefixtures("warm_memo")
class TestReplaysWithTheTagMemoWarm:
    test_row_replay = staticmethod(
        test_row_replay_of_another_bin_is_rejected_within_an_epoch
    )
    test_run_replay = staticmethod(
        test_a_replayed_run_read_of_another_request_is_rejected
    )
    test_seeded_schedule = staticmethod(
        test_seeded_schedule_over_mixed_reads_replays_to_the_golden_bytes
    )
