"""The sharded service: N fault-isolated Concealer stacks, one front door.

Each :class:`Shard` is a *complete* service stack — its own enclave,
storage engine, admission controller, circuit breaker, quarantine log,
and :class:`~repro.faults.recovery.RecoveryCoordinator` with a private
checkpoint path — holding only the records whose cell-ids hash to it.
Every shard's epoch package is a full Algorithm-1 package over its
partition: non-owned cell-ids still get their fake-only bins (the bin
packer always materialises every cell-id), so the unmodified §4/§5
executors and the hash-chain verifier run per shard without knowing
sharding exists.

:class:`ShardedService` is the synchronous scatter-gather core:

- **point queries** route to the single owning shard (the topology map
  is public, so routing leaks nothing beyond the L_q cell-id);
- **range queries** scatter the *same* query to every shard owning a
  covered cell-id and merge the sub-answers in ascending shard id —
  each record lives on exactly one shard, so COUNT/SUM add, MIN/MAX
  combine, COLLECT concatenates;
- an isolated shard (crashed enclave, open breaker, spent deadline)
  is *skipped, not fatal*: point queries to healthy shards still
  succeed, and range queries return a typed
  :class:`~repro.sharding.results.PartialResult` naming the missing
  shards instead of failing closed;
- :meth:`ShardedService.heal` re-admits isolated shards only after
  re-attestation (+ checkpoint restore when storage was lost) and a
  successful per-epoch context probe.

The asyncio front door (:mod:`repro.sharding.router`) wraps this core;
the chaos harness drives it directly so schedules stay deterministic.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.core.provider import DataProvider
from repro.core.queries import (
    Aggregate, PointQuery, QueryStats, RangeQuery, check_against_schema,
)
from repro.core.range_query import RangeExecutor
from repro.core.service import RANGE_METHODS, ServiceConfig, ServiceProvider
from repro.enclave.enclave import Enclave, EnclaveConfig
from repro.exceptions import (
    ConcealerError,
    EnclaveCrashed,
    NoHealthyShard,
    QueryError,
    RouterFenced,
    ShardMisrouted,
    ShardUnavailable,
)
from repro.faults.clock import SystemClock, VirtualClock
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.recovery import RecoveryCoordinator
from repro.replication.breaker import CircuitBreaker
from repro.replication.deadline import Deadline
from repro.replication.engine import ReplicatedStorageEngine, ReplicationPolicy
from repro.sharding.results import PartialResult, ShardedQueryStats, merged_stats
from repro.sharding.topology import ShardTopology
from repro.storage.engine import StorageEngine

# Aggregates whose sub-answers merge losslessly across disjoint record
# partitions.  AVG / TOP_K / DISTINCT_COUNT cannot be reconstructed
# from per-shard answers alone (they need cross-shard multiplicities),
# so multi-shard queries with them fail with a typed QueryError up
# front — single-shard ones still work.
MERGEABLE_AGGREGATES = frozenset(
    {
        Aggregate.COUNT,
        Aggregate.SUM,
        Aggregate.MIN,
        Aggregate.MAX,
        Aggregate.COLLECT,
    }
)

# Consecutive soft failures (deadline, transient exhaustion) before a
# shard's breaker isolates it; crashes isolate immediately.
SHARD_BREAKER_THRESHOLD = 2

# What a non-blocking plan or dispatch returns instead of waiting: the
# shard's lock was held, or the work would have built an epoch context.
# The async router then runs it on a thread instead of its event loop.
SHARD_BUSY = object()


def _count_dispatch(shard_id: int, kind: str) -> None:
    telemetry.counter(
        "concealer_shard_dispatch_total",
        "sub-queries dispatched to shards, by shard and query kind",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("shard", "kind"),
    ).labels(shard=shard_id, kind=kind).inc()


def _count_isolated(shard_id: int, reason: str) -> None:
    telemetry.counter(
        "concealer_shard_isolated_total",
        "dispatches skipped or failed because a shard was isolated",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("shard", "reason"),
    ).labels(shard=shard_id, reason=reason).inc()


def build_replica_group(
    replicas: int,
    clock=None,
    fault_injector: FaultInjector | None = None,
) -> ReplicatedStorageEngine:
    """A shard-local replica group of plain storage engines.

    Replica 0 carries the fault injector so the classic storage fault
    sites (transient read/write, row corrupt/drop/duplicate) keep
    firing inside a replicated shard exactly as they would against a
    single engine; peers stay clean so verify-then-failover has
    somewhere to go.  Byzantine response-channel faults are layered on
    by the chaos harness's engine factory, not here.
    """
    members = [
        StorageEngine(fault_injector=fault_injector if rid == 0 else None)
        for rid in range(replicas)
    ]
    return ReplicatedStorageEngine(members, clock=clock, policy=ReplicationPolicy())


@dataclass
class ShardedConfig:
    """Fleet-level knobs; per-shard ServiceConfig fields pass through."""

    shards: int = 2
    # Storage replicas *inside* each shard.  With replicas > 1 every
    # shard fronts its own ReplicatedStorageEngine: verify-then-failover
    # reads, per-replica breakers, quarantine, and anti-entropy repair
    # all run below the router — a single tampered or crashed storage
    # node never surfaces as a degraded shard.
    replicas: int = 1
    verify: bool = True
    oblivious: bool = False
    # Per-shard dispatch budget in seconds (None = unbounded).  Minted
    # router-side per sub-query, so one slow shard burns only its own
    # budget, never the whole request's.
    deadline_seconds: float | None = None
    # Range queries over a degraded fleet return PartialResult when
    # True; fail with ShardUnavailable when False (fail-closed mode).
    allow_partial: bool = True
    breaker_reset_seconds: float = 30.0
    max_inflight: int = 64
    admission_queue: int = 128
    retry_jitter: float = 0.0


@dataclass
class Shard:
    """One enclave + storage + recovery stack owning a cell-id slice."""

    shard_id: int
    service: ServiceProvider
    coordinator: RecoveryCoordinator
    breaker: CircuitBreaker
    topology: ShardTopology
    # Serializes query execution on this shard: the async router runs
    # shards on separate threads (that's the fault isolation), but one
    # ServiceProvider's caches and context dicts are not re-entrant.
    # Cross-shard work still runs genuinely concurrently.
    lock: threading.Lock = field(default_factory=threading.Lock)
    # When set, spans opened while this shard executes record into this
    # dedicated buffer (the ``--serve`` ops plane serves and merges the
    # per-shard buffers); when None the shard shares the ambient tracer
    # and its spans attach to the caller's tree directly.
    tracer: object | None = None

    def healthy(self) -> bool:
        """Whether the router may dispatch to this shard right now.

        A replicated shard is additionally unhealthy when its *whole*
        replica group is exhausted — every replica breaker hard-open —
        because no read could be served anyway.  One bad replica never
        isolates the shard; that is the point of the group.
        """
        return (
            not self.service.enclave.crashed
            and self.service.enclave.provisioned
            and self.breaker.allow()
            and not self.replicas_exhausted()
        )

    def replicated_engine(self):
        """The shard's replica group, or ``None`` for a single engine."""
        engine = self.service.engine
        if getattr(engine, "supports_replicated_reads", False):
            return engine
        return None

    def replicas_exhausted(self) -> bool:
        """True when no replica in the group may be read from at all."""
        engine = self.replicated_engine()
        if engine is None:
            return False
        return not any(breaker.allow() for breaker in engine.breakers)

    def isolation_detail(self) -> dict:
        """Structured health causes — no fixed precedence masks anything.

        Chaos reports and the ops-plane ``health`` op surface this dict
        so an operator sees *every* contributing cause (a crashed
        enclave AND two quarantined replicas), not just the first one a
        precedence order happened to pick.  All fields are public-size:
        functions of fault behaviour and request arrival, never data.
        """
        engine = self.replicated_engine()
        detail = {
            "crashed": self.service.enclave.crashed,
            "unprovisioned": not self.service.enclave.provisioned,
            "breaker_open": self.breaker.state == "open",
            "replicas": len(engine.replicas) if engine is not None else 1,
            "replica_breakers_open": (
                sum(1 for b in engine.breakers if b.state == "open")
                if engine is not None
                else 0
            ),
            "replicas_quarantined": (
                len({rid for rid, _ in engine.quarantine.tables()})
                if engine is not None
                else 0
            ),
            "quarantined_scopes": len(engine.quarantine) if engine is not None else 0,
        }
        if detail["crashed"]:
            detail["primary"] = "enclave-crashed"
        elif detail["unprovisioned"]:
            detail["primary"] = "unprovisioned"
        elif detail["breaker_open"]:
            detail["primary"] = "breaker-open"
        elif engine is not None and detail["replica_breakers_open"] >= detail["replicas"]:
            detail["primary"] = "replicas-exhausted"
        elif self.breaker.state != "closed":
            # A half-open breaker with its probe outstanding still
            # blocks dispatch; report it rather than claiming health.
            detail["primary"] = "breaker-open"
        else:
            detail["primary"] = "healthy"
        return detail

    def isolation_reason(self) -> str:
        """The primary cause, for metric labels and error messages."""
        return self.isolation_detail()["primary"]

    def assert_owns(self, cell_ids) -> None:
        """Shard-side guard: single-shard work must match the public map.

        The shard re-checks the router's routing decision against its
        own copy of the topology — a buggy (or hostile) router sending
        a point query to the wrong shard would otherwise get a
        confidently wrong answer from fake-only bins.
        """
        strays = [
            cell_id
            for cell_id in cell_ids
            if self.topology.shard_of(cell_id) != self.shard_id
        ]
        if strays:
            raise ShardMisrouted(
                f"shard {self.shard_id} does not own cell-ids {strays}; "
                "router and shard disagree on the topology"
            )

    def context_warm(self, epoch_id: int) -> bool:
        """Whether the epoch's context is built already (a dict lookup;
        ``context_for`` would build a missing one)."""
        return epoch_id in self.service._contexts

    def probe(self) -> None:
        """Readmission self-check: every ingested epoch's context builds.

        Rebuilding a context decrypts the epoch's metadata vectors and
        grid key inside the (re-attested) enclave — if the wrong master
        was provisioned or storage restore left torn state, this fails
        loudly instead of re-admitting a shard that would answer
        queries wrongly.
        """
        for epoch_id in self.service.ingested_epochs():
            self.service.context_for(epoch_id)


class ShardedService:
    """Scatter-gather over N shards with per-shard fault isolation."""

    def __init__(
        self,
        provider: DataProvider,
        topology: ShardTopology,
        shards: list[Shard],
        clock: SystemClock | VirtualClock | None = None,
        config: ShardedConfig | None = None,
        fault_injector: FaultInjector | None = None,
    ):
        if len(shards) != topology.shard_count:
            raise ValueError(
                f"topology expects {topology.shard_count} shards, "
                f"got {len(shards)}"
            )
        self.provider = provider
        self.topology = topology
        self.shards = shards
        self.clock = clock if clock is not None else SystemClock()
        self.config = config or ShardedConfig(shards=topology.shard_count)
        self.injector = fault_injector if fault_injector is not None else NULL_INJECTOR
        # The two-phase coordinator's query fence ("ingest"/"rotation").
        self._fence: str | None = None

    # ------------------------------------------------------------ construction

    @classmethod
    def build(
        cls,
        provider: DataProvider,
        config: ShardedConfig,
        workdir: str | Path,
        clock: SystemClock | VirtualClock | None = None,
        fault_injector: FaultInjector | None = None,
        retry_rng_seed: str | None = None,
        engine_factory=None,
    ) -> "ShardedService":
        """Build a provisioned N-shard fleet sharing one data provider.

        Each shard gets its own enclave (attested + provisioned by the
        provider), its own storage engine (``engine_factory(shard_id)``
        when given — e.g. a Byzantine-wrapped replica group for chaos),
        and a private checkpoint path under ``workdir``.  All shards
        share ``clock`` and ``fault_injector`` so chaos schedules
        replay.  With ``config.replicas > 1`` and no factory, every
        shard fronts its own :class:`ReplicatedStorageEngine` of plain
        replicas (replica 0 carries the fault injector so classic
        storage faults keep firing).
        """
        clock = clock if clock is not None else SystemClock()
        topology = ShardTopology(config.shards)
        workdir = Path(workdir)
        shards: list[Shard] = []
        for shard_id in range(config.shards):
            if engine_factory is not None:
                engine = engine_factory(shard_id)
            elif config.replicas > 1:
                engine = build_replica_group(
                    config.replicas, clock=clock, fault_injector=fault_injector
                )
            else:
                engine = StorageEngine(fault_injector=fault_injector)
            service = ServiceProvider(
                provider.schema,
                ServiceConfig(
                    verify=config.verify,
                    oblivious=config.oblivious,
                    deadline_seconds=config.deadline_seconds,
                    max_inflight=config.max_inflight,
                    admission_queue=config.admission_queue,
                    retry_jitter=config.retry_jitter,
                    batch_workers=1,
                ),
                engine=engine,
                enclave=Enclave(EnclaveConfig(), fault_injector=fault_injector),
                clock=clock,
                retry_rng=(
                    random.Random(f"{retry_rng_seed}-shard-{shard_id}")
                    if retry_rng_seed is not None
                    else None
                ),
            )
            provider.provision_enclave(service.enclave)
            service.install_registry(provider.sealed_registry())
            shards.append(
                Shard(
                    shard_id=shard_id,
                    service=service,
                    coordinator=RecoveryCoordinator(
                        provider, service, workdir / f"shard-{shard_id}.ckpt"
                    ),
                    breaker=CircuitBreaker(
                        clock,
                        failure_threshold=SHARD_BREAKER_THRESHOLD,
                        reset_timeout=config.breaker_reset_seconds,
                        name=f"shard-{shard_id}",
                    ),
                    topology=topology,
                )
            )
        return cls(
            provider,
            topology,
            shards,
            clock=clock,
            config=config,
            fault_injector=fault_injector,
        )

    # ----------------------------------------------------------------- fences

    def fence(self, operation: str) -> None:
        """Block queries while a cross-shard two-phase operation runs."""
        self._fence = operation

    def unfence(self) -> None:
        self._fence = None

    def _check_fence(self) -> None:
        if self._fence is not None:
            raise RouterFenced(
                f"cross-shard {self._fence} in flight; queries are fenced "
                "until it commits or rolls back"
            )

    # --------------------------------------------------------------- planning

    def healthy_shards(self) -> list[Shard]:
        return [shard for shard in self.shards if shard.healthy()]

    def _plan_context(self, epoch_id: int, blocking: bool = True):
        """An epoch context on any healthy shard, for query planning.

        Planning (cell-id identification) needs a provisioned enclave;
        every shard's package carries the same grid-wide metadata, so
        any healthy shard can plan for the whole fleet.  ``context_for``
        mutates the shard's context cache, so planning takes the shard's
        lock — the router may be running a sub-query there — but only a
        free one, in shard order: a busy or stalled shard never delays
        requests that do not touch it.  A shard found busy is retried
        blocking once every other shard was tried (single-threaded
        callers never find one busy, so they always plan on the first).

        ``blocking=False`` is the event loop's mode: it never waits and
        never builds.  The first free shard that already holds the
        epoch's context plans; with none, :data:`SHARD_BUSY` comes back
        and the caller plans on a thread instead.
        """
        last_error: ConcealerError | None = None
        attempts = [(shard, False) for shard in self.healthy_shards()]
        for shard, wait in attempts:  # grows while iterated: busy ones last
            if not shard.lock.acquire(blocking=wait):
                if blocking:
                    attempts.append((shard, True))
                continue
            try:
                if not blocking and not shard.context_warm(epoch_id):
                    continue
                return shard.service.context_for(epoch_id)
            except ConcealerError as error:
                last_error = error
            finally:
                shard.lock.release()
        if not blocking:
            return SHARD_BUSY
        if last_error is not None:
            raise last_error
        raise NoHealthyShard(
            "no healthy shard available to plan the query against"
        )

    def _epoch_of(self, timestamp: int) -> int:
        for shard in self.healthy_shards():
            return shard.service._epoch_of(timestamp)
        raise NoHealthyShard("no healthy shard available to resolve the epoch")

    # --------------------------------------------------------------- dispatch

    def _dispatch(
        self,
        shard: Shard,
        kind: str,
        thunk,
        blocking: bool = True,
        epoch_id: int | None = None,
    ):
        """Run one sub-query on one shard under its own budget.

        Success closes the shard's breaker; a deadline or transient
        failure records a breaker strike; an enclave crash isolates
        the shard immediately (health checks see ``enclave.crashed``).
        The ``shard.slow`` fault models a stalled shard: it burns this
        dispatch's entire budget on the virtual clock before the work
        starts, so the typed failure is a DeadlineExceeded attributed
        to exactly this shard.

        ``blocking=False`` is the async router's event-loop mode, which
        must never wait: the shard's lock is taken only if it is free
        and the shard already holds ``epoch_id``'s context (the loop
        never builds one).  Otherwise :data:`SHARD_BUSY` comes back
        before any counter, span or deadline exists.  Once taken, the
        lock is held through the same bookkeeping as a blocking
        dispatch; it is never released and taken again.
        """
        if blocking:
            return self._dispatch_under(shard, kind, thunk, shard.lock)
        if not shard.lock.acquire(blocking=False):
            return SHARD_BUSY
        try:
            if not shard.context_warm(epoch_id):
                return SHARD_BUSY
            return self._dispatch_under(
                shard, kind, thunk, contextlib.nullcontext()
            )
        finally:
            shard.lock.release()

    def _dispatch_under(self, shard: Shard, kind: str, thunk, guard):
        """:meth:`_dispatch`'s body; ``guard`` holds the shard's lock
        around the work (or is a no-op when the caller holds it)."""
        _count_dispatch(shard.shard_id, kind)
        deadline = (
            Deadline.after(self.clock, self.config.deadline_seconds)
            if self.config.deadline_seconds is not None
            else None
        )
        try:
            # The dispatch span records into the shard's own tracer when
            # one is set (a local root the ops plane re-assembles); its
            # parent — the router's query span — is linked by parent_id.
            with telemetry.bind_tracer(shard.tracer), telemetry.span(
                "shard.dispatch", shard=shard.shard_id, kind=kind
            ) as dispatch_span:
                with guard:
                    if not shard.service.enclave.crashed:
                        shard.service.enclave.kill_point("shard.kill")
                    if (
                        self.injector.fire("shard.slow") is not None
                        and deadline is not None
                    ):
                        self.clock.sleep(self.config.deadline_seconds * 2)
                    if deadline is not None:
                        deadline.check("shard.dispatch")
                    answer = thunk()
                self._note_replica_health(shard, answer, dispatch_span)
        except ConcealerError:
            if shard.service.enclave.crashed:
                _count_isolated(shard.shard_id, "enclave-crashed")
            else:
                shard.breaker.record_failure()
                if not shard.breaker.allow():
                    _count_isolated(shard.shard_id, "breaker-open")
            raise
        shard.breaker.record_success()
        return answer

    def _note_replica_health(self, shard: Shard, answer, dispatch_span) -> None:
        """Surface in-shard failovers the router otherwise never sees.

        The whole point of per-shard replica groups is that a tampered
        or dead replica is absorbed *below* the router — so without
        this annotation the event would be invisible: no PartialResult,
        no isolation counter, nothing.  The dispatch span and a
        public-size per-shard counter record that the answer was served
        through failover (how many attempts were abandoned) and whether
        the group is running below its healthy minimum.  Counts are
        functions of fault behaviour, never of data.
        """
        stats = answer[1] if isinstance(answer, tuple) and len(answer) == 2 else None
        failovers = getattr(stats, "failovers", 0)
        degraded = bool(getattr(stats, "degraded", False))
        if failovers:
            dispatch_span.set(replica_failovers=failovers)
            telemetry.counter(
                "concealer_shard_replica_failovers_total",
                "in-shard replica failovers absorbed below the router",
                secrecy=telemetry.PUBLIC_SIZE,
                labels=("shard",),
            ).labels(shard=shard.shard_id).inc(failovers)
        if degraded and shard.replicated_engine() is not None:
            dispatch_span.set(replica_degraded=True)
            telemetry.counter(
                "concealer_shard_degraded_served_total",
                "dispatches served by a shard whose replica group was "
                "below its healthy minimum",
                secrecy=telemetry.PUBLIC_SIZE,
                labels=("shard",),
            ).labels(shard=shard.shard_id).inc()

    # ---------------------------------------------------------------- queries

    def _check_request(self, query, method: str | None = None) -> None:
        """Refuse, before any dispatch, a request every shard would
        refuse: an unknown target or filter group, or a ``"tree"``
        method the query shape or the fleet rules out.

        A shard finds these only inside its dispatch, where the failure
        counts as a breaker strike, so bad input alone would isolate
        healthy shards.  The schema and config are public.
        """
        schema = self.provider.schema
        check_against_schema(query, schema)
        if method == "tree":
            RangeExecutor.check_tree(query, schema, self.config.oblivious)

    def _planned(
        self, kind: str, timestamp: int, epoch_id: int | None, blocking: bool,
        plan,
    ):
        """``plan(epoch_id, context, span)`` inside the ``router.plan``
        span, given the request's epoch and a planning context.

        Blocking, both resolve inside the span.  Non-blocking, they
        resolve first, so a fleet with no free warm shard opens no span
        and gets :data:`SHARD_BUSY` back.
        """
        if not blocking:
            eid = epoch_id if epoch_id is not None else self._epoch_of(timestamp)
            context = self._plan_context(eid, blocking=False)
            if context is SHARD_BUSY:
                return SHARD_BUSY
        with telemetry.span("router.plan", stage="plan", kind=kind) as span:
            if blocking:
                eid = epoch_id if epoch_id is not None else self._epoch_of(timestamp)
                context = self._plan_context(eid)
            return plan(eid, context, span)

    def plan_point(
        self,
        query: PointQuery,
        epoch_id: int | None = None,
        blocking: bool = True,
    ) -> tuple[int, int, int]:
        """Resolve a point query to ``(epoch_id, cell_id, owner_shard)``.

        ``blocking=False`` returns :data:`SHARD_BUSY` rather than wait
        for a shard's lock or build an epoch context
        (:meth:`_plan_context`).  A query the public schema shows is
        malformed fails here (:meth:`_check_request`).
        """
        self._check_request(query)

        def plan(eid, context, span):
            cell_id = context.grid.place_values(
                query.index_values, query.timestamp
            )
            span.set(epoch=eid)
            return eid, cell_id, self.topology.shard_of(cell_id)

        return self._planned("point", query.timestamp, epoch_id, blocking, plan)

    def plan_range(
        self,
        query: RangeQuery,
        method: str = "ebpb",
        epoch_id: int | None = None,
        blocking: bool = True,
    ) -> tuple[int, str, tuple[int, ...]]:
        """Resolve a range query to ``(epoch_id, method, participants)``.

        Participants are the shards owning any covered cell-id, in
        ascending shard id.  Raises a typed :class:`QueryError` for
        aggregates that cannot be merged across a multi-shard
        participant set, and for a query the public schema shows is
        malformed (:meth:`_check_request`).  ``blocking=False`` returns
        :data:`SHARD_BUSY` rather than wait for a shard's lock or build
        an epoch context (:meth:`_plan_context`).
        """
        if method not in RANGE_METHODS:
            raise QueryError(
                f"unknown range method {method!r}; choose from {RANGE_METHODS}"
            )
        self._check_request(query, method)

        def plan(eid, context, span):
            cells = context.grid.cell_ids_for_combinations(
                query.candidate_combinations(), query.time_start, query.time_end
            )
            owners = self.topology.shards_for(cells)
            if len(owners) > 1 and query.aggregate not in MERGEABLE_AGGREGATES:
                raise QueryError(
                    f"aggregate {query.aggregate.value!r} cannot be merged "
                    f"across {len(owners)} shards; supported cross-shard: "
                    f"{sorted(a.value for a in MERGEABLE_AGGREGATES)}"
                )
            chosen = method
            if chosen == "auto":
                chosen = self.shards[
                    next(iter(owners))
                ].service.choose_range_method(query, context)
            span.set(
                epoch=eid,
                method=chosen,
                cells=len(cells),
                participants=len(owners),
            )
            return eid, chosen, tuple(owners)

        return self._planned("range", query.time_start, epoch_id, blocking, plan)

    def finish_range(
        self,
        query: RangeQuery,
        participants: tuple[int, ...],
        answers: dict[int, object],
        per_shard: dict[int, QueryStats],
        errors: dict[int, str],
    ) -> tuple[object, ShardedQueryStats]:
        """Merge gathered sub-answers into the request-level result.

        Shared by the sync path and the async router so partial-result
        semantics (and their telemetry) cannot drift between the two.
        """
        missing = tuple(sorted(errors))
        with telemetry.span(
            "router.merge",
            stage="merge",
            participants=len(participants),
            served=len(answers),
            missing=len(missing),
        ):
            if not answers:
                raise ShardUnavailable(
                    f"all {len(participants)} participating shards are "
                    f"isolated ({errors})",
                    shard_ids=missing,
                )
            merged_answer = merge_answers(query.aggregate, answers)
            stats = ShardedQueryStats(
                merged=merged_stats(per_shard, missing=missing),
                per_shard=per_shard,
            )
        if missing:
            if not self.config.allow_partial:
                raise ShardUnavailable(
                    f"shards {list(missing)} isolated and partial results "
                    "are disabled",
                    shard_ids=missing,
                )
            telemetry.counter(
                "concealer_partial_results_total",
                "range queries answered from a strict subset of shards",
                secrecy=telemetry.PUBLIC_SIZE,
            ).inc()
            partial = PartialResult(
                answer=merged_answer,
                served_shards=tuple(sorted(answers)),
                missing_shards=missing,
                errors=errors,
            )
            return partial, stats
        return merged_answer, stats

    def execute_point(
        self, query: PointQuery, epoch_id: int | None = None
    ) -> tuple[object, ShardedQueryStats]:
        """Route a point query to the single shard owning its cell-id.

        An isolated owner raises a typed :class:`ShardUnavailable`
        naming the shard — queries whose owners are healthy are
        unaffected, which is the point of partitioning.
        """
        self._check_fence()
        with telemetry.span("router.query", kind="point"):
            eid, cell_id, owner_id = self.plan_point(query, epoch_id)
            owner = self.shards[owner_id]
            if not owner.healthy():
                _count_isolated(owner.shard_id, owner.isolation_reason())
                raise ShardUnavailable(
                    f"shard {owner.shard_id} owning cell-id {cell_id} is "
                    f"isolated ({owner.isolation_reason()})",
                    shard_ids=(owner.shard_id,),
                )
            owner.assert_owns((cell_id,))
            answer = self._dispatch(
                owner,
                "point",
                lambda: owner.service.execute_point(query, epoch_id=eid),
            )
            result, stats = answer
            sharded = ShardedQueryStats(
                merged=merged_stats({owner.shard_id: stats}),
                per_shard={owner.shard_id: stats},
            )
            return result, sharded

    def execute_range(
        self,
        query: RangeQuery,
        method: str = "ebpb",
        epoch_id: int | None = None,
    ) -> tuple[object, ShardedQueryStats]:
        """Scatter a range query to every owning shard; gather and merge.

        Participants are visited in ascending shard id (deterministic
        merge order for chaos replay).  When some participants are
        isolated and the aggregate merges, the answer is a
        :class:`PartialResult` over the served shards; when *every*
        participant is isolated, a typed :class:`ShardUnavailable` is
        raised instead (there is nothing to answer from).
        """
        self._check_fence()
        with telemetry.span("router.query", kind="range"):
            eid, method, participants = self.plan_range(query, method, epoch_id)

            answers: dict[int, object] = {}
            per_shard: dict[int, QueryStats] = {}
            errors: dict[int, str] = {}
            for shard_id in participants:
                shard = self.shards[shard_id]
                if not shard.healthy():
                    _count_isolated(shard_id, shard.isolation_reason())
                    errors[shard_id] = "ShardUnavailable"
                    continue
                try:
                    answer, stats = self._dispatch(
                        shard,
                        "range",
                        lambda s=shard: s.service.execute_range(
                            query, method=method, epoch_id=eid
                        ),
                    )
                except ConcealerError as error:
                    errors[shard_id] = type(error).__name__
                    continue
                answers[shard_id] = answer
                per_shard[shard_id] = stats

            return self.finish_range(
                query, participants, answers, per_shard, errors
            )

    # ---------------------------------------------------------------- healing

    def heal(self) -> dict[int, dict]:
        """Recover and re-admit every isolated shard; returns actions.

        Re-admission requires, in order: a fresh enclave re-attested
        and re-provisioned by the data provider; storage restored from
        the shard's checkpoint when tables were lost; an anti-entropy
        repair pass over the shard's replica group (quarantined
        replicas re-sync from healthy peers or the DP's packages, and
        replicas whose quarantine cleared get their breakers reset —
        re-admitting a shard must re-admit its replicas, not just
        re-attest the enclave); and a successful per-epoch context
        probe.  Only then does the shard breaker reset — a shard that
        fails any step stays isolated.

        A *healthy* shard whose replica group is merely degraded
        (quarantined replicas, open replica breakers) also gets the
        repair pass — in-shard damage is healed before it can
        accumulate into replica exhaustion — but is not counted as a
        readmission.
        """
        actions: dict[int, dict] = {}
        for shard in self.shards:
            was_healthy = shard.healthy()
            if was_healthy and not self._replicas_degraded(shard):
                continue
            action = {
                "enclave": False,
                "storage": False,
                "replicas_repaired": 0,
                "readmitted": False,
            }
            try:
                with shard.lock:
                    if (
                        shard.service.enclave.crashed
                        or not shard.service.enclave.provisioned
                    ):
                        shard.coordinator.recover_enclave()
                        action["enclave"] = True
                    if self._storage_lost(shard):
                        shard.coordinator.recover_storage()
                        action["storage"] = True
                    action["replicas_repaired"] = self._heal_replicas(shard)
                    shard.probe()
            except ConcealerError:
                # Probe or recovery failed: stay isolated; a later heal
                # (or the breaker's half-open window) tries again.
                actions[shard.shard_id] = action
                continue
            if not was_healthy:
                shard.breaker.reset()
                action["readmitted"] = True
                telemetry.counter(
                    "concealer_shard_readmissions_total",
                    "shards re-admitted after re-attestation + probe",
                    secrecy=telemetry.PUBLIC_SIZE,
                    labels=("shard",),
                ).labels(shard=shard.shard_id).inc()
            actions[shard.shard_id] = action
        return actions

    @staticmethod
    def _replicas_degraded(shard: Shard) -> bool:
        """Whether the shard's replica group needs an anti-entropy pass."""
        engine = shard.replicated_engine()
        if engine is None:
            return False
        return bool(engine.quarantine.tables()) or any(
            breaker.state != "closed" for breaker in engine.breakers
        )

    def _heal_replicas(self, shard: Shard) -> int:
        """Repair the shard's replica group; re-admit cleared replicas.

        Runs one fenced anti-entropy pass (quarantined tables re-sync
        from peer majority or the DP master source), then resets the
        breaker of every replica with no remaining quarantine — a
        replica whose read failures tripped its breaker without any
        quarantined table (e.g. pure slowness) is also given a fresh
        start, since heal() is the operator saying "the fault condition
        is over".  Replicas still quarantined (repair fenced or
        source-less) keep their breakers untouched.  Returns the number
        of successful repairs.
        """
        engine = shard.replicated_engine()
        if engine is None:
            return 0
        outcomes = shard.coordinator.repair_replicas(
            fence=lambda: self._fence is not None
        )
        repaired = sum(1 for o in outcomes if o.outcome == "repaired")
        still_quarantined = {rid for rid, _ in engine.quarantine.tables()}
        for replica_id, breaker in enumerate(engine.breakers):
            if replica_id not in still_quarantined and breaker.state != "closed":
                breaker.reset()
        if repaired:
            telemetry.counter(
                "concealer_shard_replica_repairs_total",
                "replica tables repaired during shard heal, by shard",
                secrecy=telemetry.PUBLIC_SIZE,
                labels=("shard",),
            ).labels(shard=shard.shard_id).inc(repaired)
        return repaired

    def repair_replicas(self) -> dict[int, list]:
        """One fenced anti-entropy pass over every shard's replica group.

        The periodic-repair entry point (the chaos harness and an
        operator cron both drive it): each shard's quarantined replicas
        re-sync from healthy peers or the DP's retained packages.
        Every repair consults the *cross-shard* two-phase fence — while
        any shard of a fleet-wide ingest or rotation sits between
        prepare and commit, repairs decline with a "fenced" outcome
        rather than racing the journal (a phase-2 crash would
        reverse-rotate state the repair just overwrote).  Returns
        per-shard :class:`~repro.replication.repair.RepairOutcome`
        lists for shards that had work.
        """
        outcomes: dict[int, list] = {}
        for shard in self.shards:
            if shard.replicated_engine() is None:
                continue
            with shard.lock:
                batch = shard.coordinator.repair_replicas(
                    fence=lambda: self._fence is not None
                )
            if batch:
                outcomes[shard.shard_id] = batch
        return outcomes

    @staticmethod
    def _storage_lost(shard: Shard) -> bool:
        """Whether the shard's engine is missing ingested epoch tables."""
        tables = set(shard.service.engine.table_names())
        return any(
            shard.service._table_name(epoch_id) not in tables
            for epoch_id in shard.service.ingested_epochs()
        )

    def checkpoint_all(self) -> list[Path]:
        """Checkpoint every shard's storage (durability point)."""
        return [shard.coordinator.checkpoint() for shard in self.shards]

    def ingested_epochs(self) -> list[int]:
        """Epochs every *healthy* shard agrees it has ingested."""
        healthy = self.healthy_shards()
        if not healthy:
            return []
        common = set(healthy[0].service.ingested_epochs())
        for shard in healthy[1:]:
            common &= set(shard.service.ingested_epochs())
        return sorted(common)


def merge_answers(aggregate: Aggregate, answers: dict[int, object]):
    """Merge per-shard sub-answers (disjoint record partitions).

    ``answers`` is keyed by shard id; iteration is in ascending shard
    id so COLLECT output order is deterministic across runs.  SUM /
    MIN / MAX sub-answers are ``None`` when a shard matched no rows;
    those shards contribute nothing.
    """
    ordered = [answers[shard_id] for shard_id in sorted(answers)]
    if aggregate is Aggregate.COUNT:
        return sum(ordered)
    if aggregate is Aggregate.COLLECT:
        merged: list = []
        for sub in ordered:
            merged.extend(sub)
        return merged
    present = [sub for sub in ordered if sub is not None]
    if not present:
        return None
    if aggregate is Aggregate.SUM:
        return sum(present)
    if aggregate is Aggregate.MIN:
        return min(present)
    if aggregate is Aggregate.MAX:
        return max(present)
    if len(ordered) == 1:
        # Single-shard AVG/TOP_K/DISTINCT_COUNT: nothing to merge.
        return ordered[0]
    raise QueryError(
        f"aggregate {aggregate.value!r} cannot be merged across shards"
    )
