"""Unit tests for the replicated read/write paths.

Failover, verify-then-failover quarantine, circuit breakers, deadline
budgets, hedged ordering, degraded-mode flagging, and write-divergence
handling — all on raw engines with small adversarial wrappers, no
full query stack.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.packed import PackedBin
from repro.exceptions import (
    DeadlineExceeded,
    IntegrityViolation,
    NoHealthyReplica,
    ReplicaTimeout,
    TransientError,
    TransientStorageError,
)
from repro.faults.clock import VirtualClock
from repro.faults.injector import FaultEvent, FaultInjector
from repro.replication import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    ReplicatedStorageEngine,
    ReplicationPolicy,
)
from repro.storage.engine import StorageEngine
from repro.storage.table import Row

from tests.conftest import stored_rows

TABLE = "t"
POISON = b"TAMPERED"


class FlakyReplica:
    """Reads fail transiently while ``fail_reads`` is positive."""

    def __init__(self, inner=None):
        self.inner = inner or StorageEngine()
        self.fail_reads = 0

    def lookup_many(self, table, column, keys):
        if self.fail_reads:
            self.fail_reads -= 1
            raise TransientStorageError("injected transient read fault")
        return self.inner.lookup_many(table, column, keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class LyingReplica:
    """Serves rows whose payload column was replaced wholesale."""

    def __init__(self, inner=None):
        self.inner = inner or StorageEngine()

    def lookup_many(self, table, column, keys):
        rows = self.inner.lookup_many(table, column, keys)
        return [
            Row(row_id=r.row_id, columns=(POISON,) + tuple(r.columns[1:]))
            for r in rows
        ]

    def __getattr__(self, name):
        return getattr(self.inner, name)


class SlowReplica:
    """Stalls the injectable clock before answering."""

    def __init__(self, clock, stall=5.0, inner=None):
        self.inner = inner or StorageEngine()
        self.clock = clock
        self.stall = stall

    def lookup_many(self, table, column, keys):
        self.clock.sleep(self.stall)
        return self.inner.lookup_many(table, column, keys)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class DivergentWriteReplica:
    """Inserts fail while ``fail_writes`` is positive (reads are fine)."""

    def __init__(self, inner=None):
        self.inner = inner or StorageEngine()
        self.fail_writes = 0

    def insert(self, table, columns):
        if self.fail_writes:
            self.fail_writes -= 1
            raise TransientStorageError("injected write fault")
        return self.inner.insert(table, columns)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def reject_poison(rows):
    """Stand-in for the enclave's hash-chain check."""
    for row in rows:
        if row.columns[0] == POISON:
            raise IntegrityViolation(
                "poisoned payload", cell_id=7, table=TABLE
            )


def build(replicas, policy=None, clock=None, rows=4):
    """A replicated engine over ``replicas`` with one indexed table."""
    clock = clock or VirtualClock()
    engine = ReplicatedStorageEngine(list(replicas), clock=clock, policy=policy)
    engine.create_table(TABLE, ["payload", "k"])
    engine.create_index(TABLE, "k")
    for i in range(rows):
        engine.insert(TABLE, [b"payload-%d" % i, b"k%d" % i])
    return engine, clock


class TestWritePath:
    def test_writes_fan_out_to_every_replica(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        assert [r.row_count(TABLE) for r in engine.replicas] == [4, 4, 4]

    def test_write_divergence_quarantines_the_straggler(self):
        divergent = DivergentWriteReplica()
        engine, _ = build([StorageEngine(), divergent])
        divergent.fail_writes = 1
        engine.insert(TABLE, [b"payload-9", b"k9"])
        assert engine.replicas[0].row_count(TABLE) == 5
        assert divergent.row_count(TABLE) == 4
        assert engine.quarantine.blocks(1, TABLE)
        assert engine.tables_needing_repair() == [(1, TABLE)]

    def test_write_fails_loudly_when_no_replica_applies(self):
        first, second = DivergentWriteReplica(), DivergentWriteReplica()
        engine, _ = build([first, second])
        first.fail_writes = second.fail_writes = 1
        with pytest.raises(TransientStorageError):
            engine.insert(TABLE, [b"payload-9", b"k9"])
        # Nothing changed anywhere: safe to retry, nothing to repair.
        assert len(engine.quarantine) == 0


def _landing_group(schedule, replicas=3, rows=0):
    """A group whose replica 0 carries a scheduled injector (the fleet's
    wiring: peers stay clean), over an empty indexed table."""
    injector = FaultInjector.from_schedule(
        [FaultEvent("storage.write.transient", index) for index in schedule]
    )
    members = [
        StorageEngine(fault_injector=injector if rid == 0 else None)
        for rid in range(replicas)
    ]
    engine, _ = build(members, rows=rows)
    return engine, injector


EPOCH = [[b"payload-%d" % i, b"k%02d" % ((i * 7) % 12)] for i in range(12)]


class TestBulkLanding:
    """``insert_many`` is the per-row write fan-out, one landing per replica."""

    def _fanned_out(self, schedule, replicas=3):
        """The parent's path: one ``insert`` fan-out per row."""
        engine, injector = _landing_group(schedule, replicas)
        for row in EPOCH:
            engine.insert(TABLE, row)
        return engine, injector

    @staticmethod
    def _stored(engine):
        return [
            [(row.row_id, row.columns) for row in stored_rows(replica, TABLE)]
            for replica in engine.replicas
        ]

    def test_clean_landing_is_one_run_per_replica(self):
        engine, _ = _landing_group([])
        with telemetry.scoped_registry() as registry:
            assert engine.insert_many(TABLE, EPOCH) is None
        assert registry.value("concealer_storage_rows_written_total") == 36
        for replica in engine.replicas:
            assert len(replica.access_log._entries) == 1
            assert replica.row_count(TABLE) == replica.index_size(TABLE, "k") == 12
        assert len(engine.quarantine) == 0

    @pytest.mark.parametrize("schedule", [[0], [5], [11], [3, 4], [2, 9]])
    def test_faulting_replica_diverges_and_peers_hold_the_epoch(self, schedule):
        with telemetry.scoped_registry() as reference:
            expected, expected_injector = self._fanned_out(schedule)
        engine, injector = _landing_group(schedule)
        with telemetry.scoped_registry() as registry:
            engine.insert_many(TABLE, EPOCH)

        # The injector-carrying replica missed exactly the faulted rows
        # and is quarantined for the table; its peers hold every row.
        assert engine.replicas[0].row_count(TABLE) == 12 - len(schedule)
        assert [r.row_count(TABLE) for r in engine.replicas[1:]] == [12, 12]
        assert engine.quarantine.blocks(0, TABLE)
        assert [(e.replica_id, e.kind) for e in engine.quarantine.entries] == [
            (0, "write-divergence:insert")
        ] * len(schedule)
        assert engine.tables_needing_repair() == [(0, TABLE)]
        assert engine.row_count(TABLE) == 12  # maintenance reads skip replica 0

        # ...which is, byte for byte and count for count, what one
        # fan-out per row left behind.
        assert self._stored(engine) == self._stored(expected)
        assert [list(r.access_log) for r in engine.replicas] == [
            list(r.access_log) for r in expected.replicas
        ]
        assert injector.fired == expected_injector.fired
        assert injector.consultations(
            "storage.write.transient"
        ) == expected_injector.consultations("storage.write.transient") == 12
        for name in (
            "concealer_storage_rows_written_total",
            "concealer_faults_fired_total",
        ):
            assert registry.label_values(name) == reference.label_values(name)
        assert failovers_by_reason(registry) == failovers_by_reason(reference)
        assert failovers_by_reason(registry) == {"write-divergence": len(schedule)}
        assert engine.breakers[0].state == expected.breakers[0].state

    @pytest.mark.parametrize("k", [0, 6, 11])
    def test_row_no_replica_lands_raises_and_resumes(self, k):
        # A one-replica group cannot absorb the fault: it surfaces, with
        # the rows before it landed, and the caller resumes from there.
        engine, injector = _landing_group([k], replicas=1)
        with pytest.raises(TransientStorageError):
            engine.insert_many(TABLE, EPOCH)
        assert engine.row_count(TABLE) == k
        assert len(engine.quarantine) == 0  # nothing diverged
        engine.insert_many(TABLE, EPOCH, start=engine.row_count(TABLE))
        stored = [row.columns for row in stored_rows(engine, TABLE)]
        assert stored == [tuple(row) for row in EPOCH]  # each row exactly once
        assert injector.consultations("storage.write.transient") == 13

    def test_replicas_stalled_at_different_rows(self):
        # Replica 0 refuses row 2 and replica 1 row 7; replica 2 lands
        # everything, so both diverge, each missing only its own row.
        class RefusesRow:
            def __init__(self, row):
                self.inner, self.row = StorageEngine(), row

            def insert_many(self, table, rows, start=0):
                stop = self.row if start <= self.row else len(rows)
                self.inner.insert_many(table, rows[:stop], start)
                if stop < len(rows):
                    self.row = -1
                    raise TransientStorageError("refused")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        engine, _ = build([RefusesRow(2), RefusesRow(7), StorageEngine()], rows=0)
        engine.insert_many(TABLE, EPOCH)
        assert [r.row_count(TABLE) for r in engine.replicas] == [11, 11, 12]
        assert engine.tables_needing_repair() == [(0, TABLE), (1, TABLE)]
        keys = [
            [row.columns[1] for row in stored_rows(replica, TABLE)]
            for replica in engine.replicas
        ]
        want = [row[1] for row in EPOCH]
        assert keys == [want[:2] + want[3:], want[:7] + want[8:], want]

    def test_lost_table_on_one_replica_diverges_at_the_first_row(self):
        engine, _ = _landing_group([])
        engine.replicas[2].drop_table(TABLE)
        engine.insert_many(TABLE, EPOCH)
        assert [r.row_count(TABLE) for r in engine.replicas[:2]] == [12, 12]
        assert not engine.replicas[2].has_table(TABLE)
        assert len(engine.quarantine.entries) == 12  # one per row, as per-row did
        assert engine.quarantine.blocks(2, TABLE)


class TestReadFailover:
    def test_transient_fault_fails_over_transparently(self):
        flaky = FlakyReplica()
        engine, _ = build([flaky, StorageEngine()])
        flaky.fail_reads = 1
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert [r.columns[0] for r in rows] == [b"payload-1"]
        assert engine.last_read_failovers == 1
        assert engine.breakers[0].state == "closed"  # 1 failure < threshold

    def test_tampered_answer_is_quarantined_and_failed_over(self):
        engine, _ = build([LyingReplica(), StorageEngine()])
        rows = engine.lookup_many(
            TABLE, "k", [b"k2"], verifier=reject_poison, cells=[7]
        )
        assert rows[0].columns[0] == b"payload-2"
        assert engine.last_read_failovers == 1
        # Quarantine is scoped to the bad cell-id…
        assert engine.quarantine.blocks(0, TABLE, [7])
        assert not engine.quarantine.blocks(0, TABLE, [8])
        # …but conservatively blocks unhinted reads for the table.
        assert engine.quarantine.blocks(0, TABLE)
        assert engine.candidate_replicas(TABLE, [7]) == [1]

    def test_all_replicas_tampered_raises_integrity_violation(self):
        engine, _ = build([LyingReplica(), LyingReplica()])
        with pytest.raises(IntegrityViolation):
            engine.lookup_many(
                TABLE, "k", [b"k0"], verifier=reject_poison, cells=[7]
            )

    def test_slow_replica_converts_to_timeout_and_fails_over(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), StorageEngine()],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        rows = engine.lookup_many(TABLE, "k", [b"k3"])
        assert rows[0].columns[0] == b"payload-3"
        assert engine.last_read_failovers == 1

    def test_lone_slow_replica_surfaces_the_timeout(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock)],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        with pytest.raises(NoHealthyReplica) as excinfo:
            engine.lookup_many(TABLE, "k", [b"k0"])
        assert isinstance(excinfo.value.__cause__, ReplicaTimeout)

    def test_exhausted_replicas_raise_a_retryable_error(self):
        flaky = FlakyReplica()
        engine, _ = build([flaky])
        flaky.fail_reads = 99
        with pytest.raises(NoHealthyReplica) as excinfo:
            engine.lookup_many(TABLE, "k", [b"k0"])
        # NoHealthyReplica is the one replication error the service's
        # retry policy targets: backoff lets breakers reach half-open.
        assert isinstance(excinfo.value, TransientStorageError)


class TestCircuitBreakers:
    def test_breaker_opens_after_consecutive_failures_then_recovers(self):
        flaky = FlakyReplica()
        flaky.fail_reads = 99
        policy = ReplicationPolicy(
            breaker=BreakerConfig(failure_threshold=3, reset_timeout=30.0)
        )
        engine, clock = build([flaky], policy=policy)
        for _ in range(3):
            with pytest.raises(NoHealthyReplica):
                engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.breakers[0].state == "open"
        # Inside the cool-down no attempt reaches the replica at all.
        with pytest.raises(NoHealthyReplica):
            engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.last_read_failovers == 0
        # Past the cool-down one half-open probe is admitted; a healthy
        # answer closes the breaker again.
        clock.sleep(30.0)
        flaky.fail_reads = 0
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert rows
        assert engine.breakers[0].state == "closed"

    def test_half_open_admits_exactly_one_probe_and_reopens_on_failure(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.sleep(5.0)
        assert breaker.allow()
        assert breaker.state == "half-open"
        assert not breaker.allow()  # the probe is outstanding
        breaker.record_failure()
        assert breaker.state == "open"


class TestDeadlines:
    def test_expired_deadline_raises_before_any_attempt(self):
        engine, clock = build([StorageEngine()])
        deadline = Deadline.after(clock, 1.0)
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceeded):
            engine.lookup_many(TABLE, "k", [b"k0"], deadline=deadline)

    def test_slow_failovers_burn_the_budget(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), SlowReplica(clock)],
            policy=ReplicationPolicy(attempt_timeout=2.0),
            clock=clock,
        )
        # First attempt stalls 5s; the second attempt's gate finds the
        # 4s budget already spent.
        deadline = Deadline.after(clock, 4.0)
        with pytest.raises(DeadlineExceeded):
            engine.lookup_many(TABLE, "k", [b"k0"], deadline=deadline)

    def test_deadline_is_transient_but_not_a_storage_retry_target(self):
        assert issubclass(DeadlineExceeded, TransientError)
        assert not issubclass(DeadlineExceeded, TransientStorageError)


class TestHedging:
    def test_known_straggler_is_demoted_in_read_order(self):
        policy = ReplicationPolicy(hedge=True, hedge_threshold=0.5)
        engine, _ = build([StorageEngine() for _ in range(3)], policy=policy)
        engine._latency[0] = 2.0
        assert engine.candidate_replicas(TABLE) == [1, 2, 0]
        rows = engine.lookup_many(TABLE, "k", [b"k1"])
        assert rows[0].columns[0] == b"payload-1"
        assert engine.last_read_failovers == 0  # straggler never asked

    def test_latency_ewma_learns_from_timed_attempts(self):
        clock = VirtualClock()
        engine, _ = build(
            [SlowReplica(clock), StorageEngine()],
            policy=ReplicationPolicy(
                attempt_timeout=2.0, hedge=True, hedge_threshold=1.0
            ),
            clock=clock,
        )
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine._latency[0] >= 5.0
        assert engine.candidate_replicas(TABLE) == [1, 0]


class TestDegradedMode:
    def test_reads_below_min_healthy_are_flagged_degraded(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        engine.quarantine.record(0, TABLE, None, "test")
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert engine.degraded  # 2 healthy < default min_healthy = 3

    def test_min_healthy_policy_relaxes_the_flag(self):
        engine, _ = build(
            [StorageEngine() for _ in range(3)],
            policy=ReplicationPolicy(min_healthy=2),
        )
        engine.quarantine.record(0, TABLE, None, "test")
        engine.lookup_many(TABLE, "k", [b"k0"])
        assert not engine.degraded

    def test_maintenance_reads_avoid_a_quarantined_primary(self):
        engine, _ = build([StorageEngine(), StorageEngine()])
        engine.quarantine.record(0, TABLE, None, "test")
        assert engine._primary(TABLE) is engine.replicas[1]

    def test_healthy_count_reflects_breakers_and_quarantine(self):
        engine, _ = build([StorageEngine() for _ in range(3)])
        assert engine.healthy_replica_count() == 3
        engine.quarantine.record(1, TABLE, None, "test")
        for _ in range(3):
            engine.breakers[2].record_failure()
        assert engine.healthy_replica_count() == 1


# ---------------------------------------------------------------------------
# The same loop serves three blob kinds.  Everything above drives it through
# trapdoor rows; the class below drives every behaviour through each kind and
# asserts the accounting is the same, plus the two rules that differ by kind.

LIE = object()

READS = {
    "rows": ("lookup_many", ("k", [b"k1"])),
    "packed": ("fetch_packed_bin", ([(0, 0, 1)],)),
    "tree": ("fetch_tree_nodes", ([(0, 0, 1), (0, 1, 0)],)),
}


class TinyTree:
    """The slice of an aggregate tree the storage engine reads."""

    def node_at(self, entity, level, index):
        return b"node-%d-%d-%d" % (entity, level, index)


class PerturbedReplica:
    """A real engine whose ``method`` read can fail, stall or lie."""

    def __init__(self, method, clock=None):
        self.inner = StorageEngine()
        self.method = method
        self.clock = clock
        self.fail_reads = 0
        self.stall = 0.0
        self.lie = False
        self.reads = 0

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if name != self.method:
            return target
        return lambda *args: self._read(target, args)

    def _read(self, target, args):
        self.reads += 1
        if self.stall:
            self.clock.sleep(self.stall)
        if self.fail_reads:
            self.fail_reads -= 1
            raise TransientStorageError("injected transient read fault")
        return LIE if self.lie else target(*args)


def reject_lies(answer):
    if answer is LIE:
        raise IntegrityViolation("poisoned answer", cell_id=7, table=TABLE)


def build_kinds(kind, replicas=2, policy=None):
    """A group of perturbable replicas over one tiny table that carries
    rows, a packed bin and a tree; returns (engine, clock, members)."""
    clock = VirtualClock()
    members = [PerturbedReplica(READS[kind][0], clock) for _ in range(replicas)]
    engine, _ = build(members, policy=policy, clock=clock)
    # Sidecars land after the rows: every insert invalidates them.
    rows = stored_rows(members[0], TABLE)
    engine.store_packed_bins(TABLE, [PackedBin.pack(0, rows)])
    engine.store_agg_tree(TABLE, TinyTree())
    return engine, clock, members


def read(engine, kind, **kwargs):
    method, args = READS[kind]
    return getattr(engine, method)(TABLE, *args, **kwargs)


def honest(kind):
    engine, _, _ = build_kinds(kind, replicas=1)
    return read(engine, kind)


def failovers_by_reason(registry):
    return {
        key[0]: value
        for key, value in registry.label_values(
            "concealer_replica_failovers_total"
        ).items()
    }


@pytest.fixture
def registry():
    with telemetry.scoped_registry() as scoped:
        yield scoped


@pytest.mark.parametrize("kind", list(READS))
class TestEveryReadKind:
    def test_transient_fault_fails_over(self, kind, registry):
        engine, _, members = build_kinds(kind)
        members[0].fail_reads = 1
        assert read(engine, kind) == honest(kind)
        assert engine.last_read_failovers == 1
        assert [b.state for b in engine.breakers] == ["closed", "closed"]
        assert len(engine.quarantine) == 0
        assert failovers_by_reason(registry) == {"transient": 1}

    def test_tampered_answer_is_quarantined_and_failed_over(self, kind, registry):
        engine, _, members = build_kinds(kind)
        members[0].lie = True
        answer = read(engine, kind, verifier=reject_lies, cells=[7])
        assert answer == honest(kind)
        assert engine.last_read_failovers == 1
        assert engine.quarantine.blocks(0, TABLE, [7])
        assert not engine.quarantine.blocks(0, TABLE, [8])
        assert engine.candidate_replicas(TABLE, [7]) == [1]
        assert failovers_by_reason(registry) == {"integrity": 1}

    def test_slow_replica_times_out_and_fails_over(self, kind, registry):
        engine, _, members = build_kinds(
            kind, policy=ReplicationPolicy(attempt_timeout=2.0)
        )
        members[0].stall = 5.0
        assert read(engine, kind) == honest(kind)
        assert engine.last_read_failovers == 1
        assert engine._latency[0] >= 5.0
        assert failovers_by_reason(registry) == {"timeout": 1}

    def test_breaker_opens_then_a_half_open_probe_closes_it(self, kind, registry):
        policy = ReplicationPolicy(
            breaker=BreakerConfig(failure_threshold=3, reset_timeout=30.0)
        )
        engine, clock, members = build_kinds(kind, replicas=1, policy=policy)
        members[0].fail_reads = 99
        for _ in range(3):
            self.assert_exhausted(engine, kind, NoHealthyReplica)
        assert engine.breakers[0].state == "open"
        # Inside the cool-down no attempt reaches the replica at all.
        asked = members[0].reads
        self.assert_exhausted(engine, kind, NoHealthyReplica)
        assert members[0].reads == asked
        assert engine.last_read_failovers == 0
        clock.sleep(30.0)
        members[0].fail_reads = 0
        assert read(engine, kind) == honest(kind)
        assert engine.breakers[0].state == "closed"
        assert failovers_by_reason(registry) == {"transient": 3}

    def test_expired_deadline_raises_before_any_attempt(self, kind, registry):
        engine, clock, members = build_kinds(kind)
        deadline = Deadline.after(clock, 1.0)
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceeded):
            read(engine, kind, deadline=deadline)
        assert members[0].reads == 0

    def test_slow_failovers_burn_the_budget(self, kind, registry):
        engine, clock, members = build_kinds(
            kind, policy=ReplicationPolicy(attempt_timeout=2.0)
        )
        members[0].stall = members[1].stall = 5.0
        with pytest.raises(DeadlineExceeded):
            read(engine, kind, deadline=Deadline.after(clock, 4.0))
        assert members[1].reads == 0

    def test_hedge_demotes_a_known_straggler(self, kind, registry):
        policy = ReplicationPolicy(hedge=True, hedge_threshold=0.5)
        engine, _, members = build_kinds(kind, replicas=3, policy=policy)
        engine._latency[0] = 2.0
        assert read(engine, kind) == honest(kind)
        assert [m.reads for m in members] == [0, 1, 0]
        assert engine.last_read_failovers == 0
        assert registry.total("concealer_hedged_reads_total") == 1

    def test_reads_below_min_healthy_are_flagged_degraded(self, kind, registry):
        engine, _, _ = build_kinds(kind, replicas=3)
        read(engine, kind)
        assert not engine.degraded
        engine.quarantine.record(0, TABLE, None, "test")
        read(engine, kind)
        assert engine.degraded
        assert registry.total("concealer_degraded_reads_total") == 1

    def test_quarantined_replicas_serve_as_a_verified_last_resort(
        self, kind, registry
    ):
        engine, _, members = build_kinds(kind)
        for rid in (0, 1):
            engine.quarantine.record(rid, TABLE, None, "test")
        assert engine.candidate_replicas(TABLE) == []
        assert read(engine, kind, verifier=reject_lies) == honest(kind)
        assert [m.reads for m in members] == [1, 0]
        assert registry.total("concealer_replica_last_resort_reads_total") == 1

    # The two rules that differ by kind.

    def assert_exhausted(self, engine, kind, error, **kwargs):
        """Rows are authoritative and raise; a sidecar kind answers
        ``None`` and its caller falls back to the rows."""
        if kind == "rows":
            with pytest.raises(error):
                read(engine, kind, **kwargs)
        else:
            assert read(engine, kind, **kwargs) is None

    def test_exhaustion_policy(self, kind, registry):
        engine, _, members = build_kinds(kind)
        members[0].lie = members[1].lie = True
        self.assert_exhausted(
            engine, kind, IntegrityViolation, verifier=reject_lies, cells=[7]
        )
        assert engine.last_read_failovers == 2
        assert engine.tables_needing_repair() == [(0, TABLE), (1, TABLE)]
        assert failovers_by_reason(registry) == {"integrity": 2}


@pytest.mark.parametrize("kind", ["packed", "tree"])
def test_a_replica_without_the_sidecar_ends_the_read_uncharged(kind, registry):
    policy = ReplicationPolicy(breaker=BreakerConfig(failure_threshold=1))
    engine, _, members = build_kinds(kind, policy=policy)
    stored = members[0].inner._tables[TABLE]
    stored.packed_bins = stored.agg_tree = None
    assert read(engine, kind) is None
    assert [m.reads for m in members] == [1, 0]
    assert engine.breakers[0].state == "closed"
    assert engine.last_read_failovers == 0
    assert len(engine.quarantine) == 0
    assert failovers_by_reason(registry) == {}


class TestPolicyValidation:
    def test_rejects_bad_tunables(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(min_healthy=0)
        with pytest.raises(ValueError):
            ReplicationPolicy(attempt_timeout=0.0)
        with pytest.raises(ValueError):
            ReplicationPolicy(hedge_threshold=0.0)
        with pytest.raises(ValueError):
            ReplicatedStorageEngine([])
