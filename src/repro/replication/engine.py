"""The replicated bin store: verify-then-failover over N replicas.

:class:`ReplicatedStorageEngine` fronts N independent
:class:`~repro.storage.engine.StorageEngine` replicas (optionally
wrapped in :class:`~repro.replication.byzantine.ByzantineReplica`
response channels) and presents the same interface the enclave already
speaks — so the query executors work unchanged against one engine or
five.

The read path is the point of the layer, and it is one loop:
:meth:`ReplicatedStorageEngine._verified_read`.  The three blob kinds
the enclave reads — trapdoor rows (``lookup_many``), packed bins
(``fetch_packed_bin``) and aggregate-tree nodes (``fetch_tree_nodes``)
— are declarations of it (replica call, span attributes, verifier,
exhaustion policy); DESIGN.md §9 "Verified read" has the table.  A read
is attempted against replicas in health order; each attempt is

1. gated by the replica's circuit breaker and the read's deadline,
2. timed against the per-attempt budget (a stalling replica becomes a
   typed :class:`~repro.exceptions.ReplicaTimeout`, not a hang), and
3. *verified before acceptance* when the caller supplies a verifier
   (the enclave's hash-chain check, or the authenticated node decode)
   — a replica whose answer fails verification is treated exactly like
   one that crashed.

A failed attempt quarantines the replica for the affected (table,
cell-id), records a breaker failure, and fails over to the next
replica.  Only when every replica is exhausted does a row read raise:
:class:`~repro.exceptions.IntegrityViolation` if *all* answers were
tampered (loud, permanent), else
:class:`~repro.exceptions.NoHealthyReplica` (transient — the service's
retry policy backs off, breakers reach half-open, and the read probes
again).  The two sidecar kinds return ``None`` instead, and the caller
falls back to trapdoor reads of the rows.

Writes fan out to every replica.  Replica-local write failures do not
fail the operation while at least one replica applied it; divergent
replicas are quarantined for the table and re-synced later by the
:class:`~repro.replication.repair.AntiEntropyRepairer`.

All health signals exported here — breaker states, failover and
degraded-read counters, healthy-replica gauge — are public-size: they
are functions of fault behaviour and request arrival, never of the
plaintext data.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro import telemetry
from repro.exceptions import (
    IntegrityViolation,
    NoHealthyReplica,
    RepairFenced,
    ReplicaTimeout,
    StorageError,
    TransientStorageError,
)
from repro.faults.clock import SystemClock
from repro.replication.breaker import BreakerConfig, CircuitBreaker
from repro.replication.deadline import Deadline
from repro.storage.engine import RewriteFence
from repro.storage.table import Row, TableImage

# EWMA smoothing for per-replica attempt latency (hedged-read ordering).
_LATENCY_ALPHA = 0.3


def _stored_rows(replica, table: str) -> int:
    return replica.row_count(table) if replica.has_table(table) else 0


@dataclass(frozen=True)
class ReplicationPolicy:
    """Tunables for the replicated read/write paths.

    ``min_healthy`` is the replica count below which reads are flagged
    *degraded* (default: all replicas — any unhealthy peer degrades).
    ``attempt_timeout`` bounds one replica attempt on the injectable
    clock; ``None`` disables the budget.  With ``hedge`` enabled, read
    order prefers replicas whose smoothed latency is below
    ``hedge_threshold`` seconds, demoting known stragglers before their
    breakers trip.
    """

    min_healthy: int | None = None
    attempt_timeout: float | None = 2.0
    hedge: bool = False
    hedge_threshold: float = 1.0
    breaker: BreakerConfig = field(default_factory=BreakerConfig)

    def __post_init__(self):
        if self.min_healthy is not None and self.min_healthy < 1:
            raise ValueError("min_healthy must be >= 1")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")
        if self.hedge_threshold <= 0:
            raise ValueError("hedge_threshold must be positive")


@dataclass(frozen=True)
class QuarantineEntry:
    """One quarantined scope: a replica's (table, cell-id or whole table)."""

    replica_id: int
    table: str
    cell_id: int | None
    kind: str


class ReplicaQuarantine:
    """Per-replica, per-cell-id read quarantine.

    A replica that served a bad bin is quarantined for that (table,
    cell-id): reads hinted with those cell-ids skip it, and reads with
    no hint skip it for the whole table (conservative — an unhinted
    read might touch the bad bin).  ``cell_id=None`` quarantines the
    whole table (write divergence, stored-state tampering).
    """

    def __init__(self):
        # (replica_id, table) -> set of cell_ids; None means whole table.
        self._scopes: dict[tuple[int, str], set[int | None]] = {}
        self.entries: list[QuarantineEntry] = []

    def record(
        self, replica_id: int, table: str, cell_id: int | None, kind: str
    ) -> None:
        """Quarantine one replica scope and log the structured entry."""
        self._scopes.setdefault((replica_id, table), set()).add(cell_id)
        self.entries.append(QuarantineEntry(replica_id, table, cell_id, kind))
        self._export(replica_id)

    def blocks(
        self,
        replica_id: int,
        table: str,
        cells: Iterable[int] | None = None,
    ) -> bool:
        """Whether this replica should be skipped for a read.

        With a cell hint, only intersecting quarantines (or a
        whole-table quarantine) block; without one, any quarantine on
        the table blocks.
        """
        scoped = self._scopes.get((replica_id, table))
        if not scoped:
            return False
        if None in scoped or cells is None:
            return True
        return any(cell in scoped for cell in cells)

    def tables(self) -> list[tuple[int, str]]:
        """All quarantined (replica_id, table) pairs, sorted — the
        anti-entropy repairer's worklist."""
        return sorted(self._scopes)

    def clear(self, replica_id: int, table: str) -> None:
        """Lift the quarantine for one replica's table (post-repair)."""
        self._scopes.pop((replica_id, table), None)
        self._export(replica_id)

    def _export(self, replica_id: int) -> None:
        telemetry.gauge(
            "concealer_replica_quarantined_scopes",
            "quarantined (table, cell) scopes per replica",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("replica",),
        ).labels(replica=str(replica_id)).set(
            sum(
                len(cells)
                for (rid, _), cells in self._scopes.items()
                if rid == replica_id
            )
        )

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._scopes.values())


class ReplicatedStorageEngine(RewriteFence):
    """N-replica storage with verify-then-failover reads.

    Drop-in for :class:`~repro.storage.engine.StorageEngine` on every
    interface the service and enclave use; the enclave detects the
    richer read contract via :attr:`supports_replicated_reads` and
    passes its verifier and deadline down.
    """

    supports_replicated_reads = True

    def __init__(
        self,
        replicas: Sequence,
        clock=None,
        policy: ReplicationPolicy | None = None,
    ):
        if not replicas:
            raise ValueError("at least one replica is required")
        self.replicas = list(replicas)
        self.clock = clock if clock is not None else SystemClock()
        self.policy = policy or ReplicationPolicy()
        self.quarantine = ReplicaQuarantine()
        self.breakers = [
            CircuitBreaker(
                self.clock,
                failure_threshold=self.policy.breaker.failure_threshold,
                reset_timeout=self.policy.breaker.reset_timeout,
                name=str(rid),
            )
            for rid in range(len(self.replicas))
        ]
        # Smoothed per-replica attempt latency, for hedged read order.
        self._latency = [0.0] * len(self.replicas)
        # Read-path health flags the executors surface in QueryStats.
        self.degraded = False
        self.last_read_failovers = 0

    # ---------------------------------------------------------------- health

    @property
    def min_healthy(self) -> int:
        """Replica count below which reads are flagged degraded."""
        if self.policy.min_healthy is None:
            return len(self.replicas)
        return min(self.policy.min_healthy, len(self.replicas))

    def candidate_replicas(
        self, table: str, cells: Iterable[int] | None = None
    ) -> list[int]:
        """Replica ids eligible for a read, in preference order.

        Excludes quarantined and hard-open breakers (a breaker past its
        cool-down still qualifies — ``allow()`` decides at attempt
        time).  With hedging, stragglers sort after fast replicas.
        """
        cells = list(cells) if cells is not None else None
        eligible = [
            rid
            for rid in range(len(self.replicas))
            if not self.quarantine.blocks(rid, table, cells)
        ]
        if self.policy.hedge:
            eligible.sort(
                key=lambda rid: (self._latency[rid] > self.policy.hedge_threshold,)
            )
        return eligible

    def healthy_replica_count(self) -> int:
        """Replicas with a closed breaker and no quarantine at all."""
        quarantined = {rid for rid, _ in self.quarantine.tables()}
        healthy = sum(
            1
            for rid, breaker in enumerate(self.breakers)
            if breaker.state == "closed" and rid not in quarantined
        )
        telemetry.gauge(
            "concealer_replicas_healthy",
            "replicas with a closed breaker and no quarantined scopes",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(healthy)
        return healthy

    # ------------------------------------------------------------------- DDL

    def create_table(self, name: str, column_names: Sequence[str]) -> None:
        self._fanout("create_table", name, lambda r: r.create_table(name, column_names))

    def drop_table(self, name: str) -> None:
        self._fanout("drop_table", name, lambda r: r.drop_table(name))

    def create_index(self, table: str, column: str) -> None:
        self._fanout("create_index", table, lambda r: r.create_index(table, column))

    def has_table(self, name: str) -> bool:
        return self._primary().has_table(name)

    def table_names(self) -> list[str]:
        return self._primary().table_names()

    # ------------------------------------------------------- whole tables

    def image(self, table: str) -> TableImage:
        """The table whole, from the first replica eligible to serve it
        (stored state: a Byzantine response channel is not consulted)."""
        return self._primary(table).image(table)

    def install(self, image: TableImage) -> int:
        """Install ``image`` on every replica, by the write fan-out's
        rule: a replica that fails it is quarantined for the table."""
        return self._fanout("install", image.table, lambda r: r.install(image))

    # ------------------------------------------------------------------- DML

    def insert(self, table: str, columns: Sequence) -> int:
        return self._fanout("insert", table, lambda r: r.insert(table, columns))

    def insert_many(self, table: str, rows: Sequence[Sequence], start: int = 0) -> None:
        """Land ``rows[start:]`` on every replica: one bulk landing each.

        Row for row the write fan-out's rule: a replica that stops at a
        row a peer lands has diverged — quarantined, it skips the row
        and resumes after it, so it is still put every row.  A row *no*
        replica lands raises the first replica's error; the rows before
        it are landed, and the caller resumes from it.
        """
        position = [start] * len(self.replicas)  # the row each replica is at
        stalled: dict[int, Exception] = {}       # ...and why it stopped there
        while True:
            for rid, replica in enumerate(self.replicas):
                if rid not in stalled and position[rid] < len(rows):
                    before = _stored_rows(replica, table)
                    try:
                        replica.insert_many(table, rows, position[rid])
                        position[rid] = len(rows)
                    except StorageError as error:
                        position[rid] += _stored_rows(replica, table) - before
                        stalled[rid] = error
            frontier = max(position)  # the furthest any replica got
            behind = [rid for rid in stalled if position[rid] < frontier]
            if not behind:
                if stalled:
                    raise stalled[min(stalled)]
                return
            for rid in behind:
                self._diverged(rid, table, "insert")
                position[rid] += 1
                del stalled[rid]

    def overwrite(self, table: str, row_id: int, columns: Sequence) -> None:
        self._fanout(
            "overwrite", table, lambda r: r.overwrite(table, row_id, columns)
        )

    # ----------------------------------------------------------------- reads

    def lookup_many(
        self,
        table: str,
        column: str,
        keys: Sequence,
        verifier: Callable[[list[Row]], None] | None = None,
        deadline: Deadline | None = None,
        cells: Iterable[int] | None = None,
    ) -> list[Row]:
        """Batched bin fetch (rows by trapdoor) through :meth:`_verified_read`.

        ``verifier`` (the enclave's pack-then-verify) runs against each
        replica's answer *before* it is accepted; ``cells`` hints which
        cell-ids the trapdoors cover so quarantine can be skipped at
        bin granularity; ``deadline`` is checked before every attempt.
        Rows are the authoritative kind: an exhausted group raises.
        """
        return self._verified_read(
            table, "lookup_many", (table, column, keys), {"keys": len(keys)},
            verifier, deadline, cells, sidecar=False,
        )

    def store_packed_bins(self, table: str, packed_bins: Sequence) -> None:
        """Install the columnar sidecar on every replica."""
        self._fanout(
            "store_packed_bins",
            table,
            lambda r: r.store_packed_bins(table, packed_bins),
        )

    def has_packed_bins(self, table: str) -> bool:
        return self._primary(table).has_packed_bins(table)

    def fetch_packed_bin(
        self,
        table: str,
        runs: Sequence[tuple[int, int, int]],
        verifier: Callable | None = None,
        deadline: Deadline | None = None,
        cells: Iterable[int] | None = None,
    ):
        """Slot-run (or whole-bin) columnar read through :meth:`_verified_read`.

        A sidecar kind: ``None`` (a replica without the sidecar, or an
        exhausted group) sends the caller to the scalar row fetch.
        """
        return self._verified_read(
            table, "fetch_packed_bin", (table, runs),
            {"keys": sum(stop - start for _, start, stop in runs)},
            verifier, deadline, cells, sidecar=True,
        )

    def store_agg_tree(self, table: str, tree) -> None:
        """Install the aggregate-tree sidecar on every replica."""
        self._fanout(
            "store_agg_tree", table, lambda r: r.store_agg_tree(table, tree)
        )

    def has_agg_tree(self, table: str) -> bool:
        return self._primary(table).has_agg_tree(table)

    def fetch_agg_tree_meta(self, table: str):
        """The tree's public shape + sealed directory from a healthy peer.

        Maintenance-plane read: everything in the meta is public shape
        or E_nd ciphertext whose authenticated decryption (inside the
        enclave) is itself the tamper check, so no failover loop is
        needed — a tampered meta fails loudly at decryption time.
        """
        return self._primary(table).fetch_agg_tree_meta(table)

    def fetch_tree_nodes(
        self,
        table: str,
        coords: Sequence[tuple],
        verifier: Callable | None = None,
        deadline: Deadline | None = None,
        cells: Iterable[int] | None = None,
    ):
        """Tree-node batch read through :meth:`_verified_read`.

        A sidecar kind: ``None`` sends the caller to the bin path.  The
        verifier is the enclave's authenticated node decode, bound to
        the requested coordinates.
        """
        return self._verified_read(
            table, "fetch_tree_nodes", (table, coords), {"keys": len(coords)},
            verifier, deadline, cells, sidecar=True,
        )

    def _verified_read(
        self,
        table: str,
        method: str,
        args: tuple,
        span_attrs: dict,
        verifier: Callable | None,
        deadline: Deadline | None,
        cells: Iterable[int] | None,
        sidecar: bool,
    ):
        """The verify-then-failover loop, once, for every blob kind.

        A kind is data: the replica ``method`` to call with ``args``
        (looked up on the replica at call time), the ``span_attrs`` its
        ``replication.lookup`` span carries, its ``verifier``, and
        whether it is a ``sidecar``.  Rows are authoritative — an
        exhausted group raises.  Sidecar kinds (packed bins, tree
        nodes) are accelerators over those rows: a replica answering
        ``None`` has no sidecar (post-repair, post-rotation) and
        short-circuits the whole read to ``None`` without charging its
        breaker, and an exhausted group also returns ``None``; the
        caller then falls back to the row fetch, which re-runs this
        loop and raises the authoritative error if the table is truly
        unserveable.
        """
        self.last_read_failovers = 0
        candidates = self.candidate_replicas(table, cells)
        self.degraded = self.healthy_replica_count() < self.min_healthy
        if self.degraded:
            telemetry.counter(
                "concealer_degraded_reads_total",
                "reads served below the healthy-replica threshold",
                secrecy=telemetry.PUBLIC_SIZE,
            ).inc()
        if self.policy.hedge and candidates and candidates[0] != min(candidates):
            telemetry.counter(
                "concealer_hedged_reads_total",
                "reads whose replica order was hedged away from a straggler",
                secrecy=telemetry.PUBLIC_SIZE,
            ).inc()
        with telemetry.span(
            "replication.lookup", table=table, **span_attrs,
            candidates=len(candidates),
        ):
            last_error: Exception | None = None
            failures = 0
            violations = 0
            # Quarantine and breakers express *preference*, not safety:
            # every answer is verified against the tag chain before it
            # is accepted, so when the eligible pool is exhausted the
            # quarantined replicas are tried as a verified last resort
            # rather than failing a read whose data may be perfectly
            # intact (a tampered *response channel* leaves stored rows
            # untouched).
            eligible = set(candidates)
            excluded = [
                rid for rid in range(len(self.replicas)) if rid not in eligible
            ]
            for last_resort, pool in ((False, candidates), (True, excluded)):
                for rid in pool:
                    if deadline is not None:
                        deadline.check("replication.attempt")
                    breaker = self.breakers[rid]
                    if not last_resort and not breaker.allow():
                        continue
                    started = self.clock.now()
                    try:
                        answer = getattr(self.replicas[rid], method)(*args)
                        elapsed = self.clock.now() - started
                        timeout = self.policy.attempt_timeout
                        if timeout is not None and elapsed > timeout:
                            raise ReplicaTimeout(
                                f"replica {rid} answered in {elapsed:.3f}s, "
                                f"over the {timeout:.3f}s attempt budget"
                            )
                        if answer is not None and verifier is not None:
                            verifier(answer)
                    except (IntegrityViolation, StorageError) as error:
                        self._observe_latency(rid, started)
                        scope = None
                        if isinstance(error, IntegrityViolation):
                            reason = "integrity"
                            scope = (error.cell_id, error.kind)
                            violations += 1
                        elif isinstance(error, ReplicaTimeout):
                            reason = "timeout"
                        elif isinstance(error, TransientStorageError):
                            reason = "transient"
                        else:
                            # Permanent storage failure on this replica —
                            # a host that lost its disk (missing table,
                            # torn page).  Fail over like any other
                            # replica fault, and quarantine the whole
                            # table so anti-entropy repair re-installs
                            # it from a healthy peer rather than every
                            # future read re-discovering the loss.
                            reason = "storage-error"
                            scope = (None, f"storage-error:{type(error).__name__}")
                        self._record_failure(rid, breaker, reason)
                        if scope is not None:
                            self.quarantine.record(rid, table, *scope)
                        last_error = error
                        failures += 1
                        continue
                    self._observe_latency(rid, started)
                    self.last_read_failovers = failures
                    if answer is None:
                        return None
                    breaker.record_success()
                    if last_resort:
                        telemetry.counter(
                            "concealer_replica_last_resort_reads_total",
                            "verified reads served by a quarantined or "
                            "breaker-open replica after the eligible "
                            "pool was exhausted",
                            secrecy=telemetry.PUBLIC_SIZE,
                        ).inc()
                    return answer
            self.last_read_failovers = failures
            if sidecar:
                return None
            if violations and violations == failures and last_error is not None:
                # Every replica that answered answered with tampered
                # rows — surface the integrity violation itself so the
                # service quarantines the cell and refuses to guess.
                raise last_error
            raise NoHealthyReplica(
                f"no replica could serve {table!r} "
                f"({len(candidates)} candidates, {failures} failed, "
                f"{len(self.replicas) - len(candidates)} quarantined/skipped)"
            ) from last_error

    def row_count(self, table: str) -> int:
        return self._primary(table).row_count(table)

    @property
    def access_log(self):
        """Replica 0's access log — one host's honest-but-curious view.

        The leakage experiments analyse a single adversary's vantage
        point; each replica host sees only its own accesses.
        """
        return self.replicas[0].access_log

    # ---------------------------------------------------------------- repair

    def tables_needing_repair(self) -> list[tuple[int, str]]:
        """The anti-entropy worklist: quarantined (replica, table) pairs."""
        return self.quarantine.tables()

    def resync_replica(
        self, replica_id: int, image: TableImage, expected_generation: int
    ) -> int:
        """Install a source image on one replica, behind the fence.

        Refuses with :class:`RepairFenced` if an epoch rewrite started
        (or completed) since the image was taken — applying would
        resurrect pre-rotation ciphertexts.
        """
        if self.rewrite_in_progress or self.rewrite_generation != expected_generation:
            raise RepairFenced(
                f"repair of replica {replica_id} table {image.table!r} fenced: "
                f"rewrite generation moved {expected_generation} -> "
                f"{self.rewrite_generation}"
                + (" (rewrite in progress)" if self.rewrite_in_progress else "")
            )
        return self.replicas[replica_id].install(image)

    def checkpoint_source(self):
        """The unwrapped engine checkpoints should be cut from.

        Prefers a healthy replica; unwraps any Byzantine response
        channel so the checkpoint captures stored state, not served
        state.
        """
        quarantined = {rid for rid, _ in self.quarantine.tables()}
        for rid, replica in enumerate(self.replicas):
            if self.breakers[rid].state == "closed" and rid not in quarantined:
                return getattr(replica, "inner", replica)
        return getattr(self.replicas[0], "inner", self.replicas[0])

    # -------------------------------------------------------------- internal

    def _primary(self, table: str | None = None):
        """First replica eligible to serve maintenance-plane reads."""
        quarantined = {rid for rid, _ in self.quarantine.tables()}
        for rid, replica in enumerate(self.replicas):
            if rid in quarantined:
                continue
            if table is not None and self.quarantine.blocks(rid, table):
                continue
            if self.breakers[rid].state != "open":
                return replica
        return self.replicas[0]

    def _fanout(self, op: str, table: str, apply: Callable) -> object:
        """Apply a write/DDL to every replica; quarantine divergence.

        If *no* replica applied the operation the first error is
        re-raised (nothing changed — safe to retry).  If some replicas
        diverged, the operation succeeds and the stragglers are
        quarantined for the table until repair re-syncs them.
        """
        result: object = None
        succeeded = False
        errors: list[tuple[int, Exception]] = []
        for rid, replica in enumerate(self.replicas):
            try:
                value = apply(replica)
            except StorageError as error:
                errors.append((rid, error))
                continue
            if not succeeded:
                result = value
                succeeded = True
        if not succeeded:
            raise errors[0][1]
        for rid, _ in errors:
            self._diverged(rid, table, op)
        return result

    def _diverged(self, rid: int, table: str, op: str) -> None:
        self._record_failure(rid, self.breakers[rid], "write-divergence")
        self.quarantine.record(rid, table, None, f"write-divergence:{op}")

    def _record_failure(self, rid: int, breaker: CircuitBreaker, reason: str) -> None:
        breaker.record_failure()
        telemetry.counter(
            "concealer_replica_failovers_total",
            "replica attempts abandoned for the next peer, by reason",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("reason",),
        ).labels(reason=reason).inc()

    def _observe_latency(self, rid: int, started: float) -> None:
        elapsed = self.clock.now() - started
        previous = self._latency[rid]
        self._latency[rid] = (
            elapsed
            if previous == 0.0
            else (1.0 - _LATENCY_ALPHA) * previous + _LATENCY_ALPHA * elapsed
        )
