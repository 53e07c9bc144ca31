"""The asyncio front door: fault-isolated scatter-gather over shards.

The router owns one small thread pool *per shard*, so a shard that
stalls (slow storage, injected ``shard.slow``, a wedged enclave call)
blocks only its own threads — sub-queries to every other shard keep
flowing.  Work that costs about one lookup skips the hop and runs on
the event loop itself, through the same sync-core code: the plan, when
a free shard already holds the epoch's context, and a range sub-query
planned to the aggregate tree (one sealed node), when its shard's lock
is free, its epoch context is built and no hedge is configured.  The
loop only ever *tries* a shard lock, so a stalled shard — which holds
its lock — is never waited on: its sub-query takes the hop.  On top of
that isolation it adds:

- **asyncio admission**, the fleet's only gate: at most
  ``ShardedConfig.max_inflight`` requests execute at once and at most
  ``ShardedConfig.admission_queue`` more may wait; everything beyond
  is shed with a typed :class:`~repro.exceptions.ServiceOverloaded`
  before any shard work starts (counts are public-size — functions of
  arrival, never of plaintext).  Behind it a shard runs one request at
  a time, under its lock.
- **hedged dispatch**: when a sub-query has not returned within
  ``hedge_delay`` seconds, a duplicate attempt is launched on the same
  shard's second thread; the first success wins.  Because a shard's
  execution is serialized by its lock, the hedge acts as an immediate
  retry when the primary dies to a transient — it cannot double-apply
  work.  Both failing raises the *primary's* error (the hedge's is
  recorded as telemetry only).
- **graceful drain**: :meth:`AsyncShardRouter.drain` stops admitting,
  waits for in-flight requests under a deadline, and reports whether
  the fleet went idle; :meth:`AsyncShardRouter.shutdown` drains, then
  checkpoints every shard and tears the pools down — the SIGTERM path
  of ``python -m repro --serve``.

Per-shard deadline budgets and breaker bookkeeping live in
:meth:`ShardedService._dispatch` (shared with the sync path), so a
hedged attempt is governed by exactly the same budget as a primary.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor

from repro import telemetry
from repro.telemetry import tracing
from repro.core.queries import PointQuery, QueryStats, RangeQuery
from repro.exceptions import ConcealerError, RouterFenced, ServiceOverloaded
from repro.sharding.results import ShardedQueryStats
from repro.sharding.service import (
    SHARD_BUSY,
    Shard,
    ShardedService,
    _count_isolated,
)


def _count_shed(kind: str) -> None:
    telemetry.counter(
        "concealer_router_shed_total",
        "requests shed by the async router's admission gate, by kind",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kind",),
    ).labels(kind=kind).inc()


def _count_hedge(shard_id: int, outcome: str) -> None:
    telemetry.counter(
        "concealer_hedged_dispatch_total",
        "hedged (duplicate) sub-query attempts, by shard and outcome",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("shard", "outcome"),
    ).labels(shard=shard_id, outcome=outcome).inc()


class AsyncShardRouter:
    """Async scatter-gather over a :class:`ShardedService`.

    The router never touches bins or keys itself: planning and
    execution run through the sync core — on the event loop when the
    work is a lookup and the shard is free, else on shard threads — so
    the verification, leakage, and partial-result semantics are byte-
    for-byte those of :class:`ShardedService`; this class only decides
    *where and when* the work runs.
    """

    def __init__(
        self,
        sharded: ShardedService,
        hedge_delay: float | None = None,
        slo=None,
    ):
        self.sharded = sharded
        self.hedge_delay = hedge_delay
        # Optional SLOMonitor: every admitted query's latency + outcome
        # feeds the availability and latency objectives.
        self.slo = slo
        # Two workers per shard: one for the primary attempt, one so a
        # hedge (or a plan probe) is never stuck behind it in the pool.
        self._executors = {
            shard.shard_id: ThreadPoolExecutor(
                max_workers=2, thread_name_prefix=f"shard-{shard.shard_id}"
            )
            for shard in sharded.shards
        }
        self._inflight = 0
        self._queued = 0
        self._slots: asyncio.Semaphore | None = None
        self._idle: asyncio.Event | None = None
        self._draining = False
        self._closed = False

    # -------------------------------------------------------------- admission

    def _lazy_async_state(self) -> None:
        # Created on first use so the router can be constructed outside
        # a running event loop (e.g. by the server before asyncio.run).
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.sharded.config.max_inflight)
            self._idle = asyncio.Event()
            self._idle.set()

    async def _admit(self, kind: str):
        self._lazy_async_state()
        if self._draining or self._closed:
            _count_shed(kind)
            raise RouterFenced(
                "router is draining; new queries are rejected — retry "
                "against the restarted service"
            )
        if self._slots.locked() and self._queued >= self.sharded.config.admission_queue:
            _count_shed(kind)
            raise ServiceOverloaded(
                f"router admission queue full ({self._inflight} inflight, "
                f"{self._queued} queued); {kind!r} request shed"
            )
        self._queued += 1
        try:
            await self._slots.acquire()
        finally:
            self._queued -= 1
        self._inflight += 1
        self._idle.clear()

    def _release(self) -> None:
        self._inflight -= 1
        self._slots.release()
        if self._inflight == 0:
            self._idle.set()

    def _observe_slo(self, started: float, ok: bool) -> None:
        if self.slo is not None:
            self.slo.record(self.sharded.clock.now() - started, ok=ok)

    # --------------------------------------------------------------- dispatch

    async def _run_on(self, shard: Shard, fn):
        """Run a callable on the shard's own thread pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executors[shard.shard_id], fn)

    def _dispatch_inline(self, shard: Shard, thunk, epoch_id: int):
        """One tree sub-query on the loop thread itself, or
        :data:`SHARD_BUSY` when the shard's lock is held or its epoch
        context is cold (the caller then hops to :meth:`_dispatch`).

        The same ``ShardedService._dispatch`` body runs, so budget,
        breaker, fault points, spans and counters are unchanged.  An
        error comes back as a value, as ``gather(return_exceptions=True)``
        returns the hopped ones.
        """
        try:
            return self.sharded._dispatch(
                shard, "range", thunk, blocking=False, epoch_id=epoch_id
            )
        except Exception as error:
            return error

    async def _dispatch(self, shard: Shard, kind: str, thunk):
        """One sub-query on the shard's thread, with optional hedging;
        same budget semantics as the sync path (``ShardedService
        ._dispatch`` does the breaker and deadline work on the shard
        thread).

        Thread pools do not carry context variables, so both attempts
        are wrapped with :func:`tracing.propagate` — the shard-side
        spans join this request's trace instead of starting their own.
        Unhedged, the attempt is awaited in the caller's task (``gather``
        already gave each sub-query one) rather than in a task of its own.
        """
        captured = tracing.capture()

        def attempt(label: str):
            return self._run_on(
                shard,
                tracing.propagate(
                    functools.partial(self.sharded._dispatch, shard, label, thunk),
                    captured,
                ),
            )

        if self.hedge_delay is None:
            return await attempt(kind)
        primary = asyncio.ensure_future(attempt(kind))
        done, _ = await asyncio.wait({primary}, timeout=self.hedge_delay)
        if primary in done:
            return primary.result()
        _count_hedge(shard.shard_id, "launched")
        tracing.annotate(**{f"hedge_shard_{shard.shard_id}": "launched"})
        hedge = asyncio.ensure_future(attempt(f"{kind}-hedge"))
        pending = {primary, hedge}
        failures: list[tuple[bool, BaseException]] = []
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                error = future.exception()
                if error is None:
                    outcome = "hedge-won" if future is hedge else "primary-won"
                    _count_hedge(shard.shard_id, outcome)
                    tracing.annotate(
                        **{f"hedge_shard_{shard.shard_id}": outcome}
                    )
                    # The loser finishes on the shard thread; retrieve
                    # its eventual exception so it never surfaces as an
                    # un-consumed future warning.
                    for late in pending:
                        late.add_done_callback(lambda f: f.exception())
                    return future.result()
                failures.append((future is primary, error))
        _count_hedge(shard.shard_id, "both-failed")
        tracing.annotate(**{f"hedge_shard_{shard.shard_id}": "both-failed"})
        failures.sort(key=lambda pair: not pair[0])  # primary's error first
        raise failures[0][1]

    # ---------------------------------------------------------------- queries

    async def execute_point(
        self, query: PointQuery, epoch_id: int | None = None
    ) -> tuple[object, ShardedQueryStats]:
        """Admission-gated async point query (single owning shard)."""
        await self._admit("point")
        started = self.sharded.clock.now()
        ok = False
        try:
            with telemetry.span("router.query", kind="point"):
                self.sharded._check_fence()
                eid, cell_id, owner_id = await self._plan(
                    functools.partial(self.sharded.plan_point, query, epoch_id)
                )
                owner = self.sharded.point_owner(cell_id, owner_id)
                answer, stats = await self._dispatch(
                    owner,
                    "point",
                    lambda: owner.service.execute_point(query, epoch_id=eid),
                )
                ok = True
                return answer, ShardedQueryStats.single(owner_id, stats)
        finally:
            self._observe_slo(started, ok)
            self._release()

    async def execute_range(
        self,
        query: RangeQuery,
        method: str = "ebpb",
        epoch_id: int | None = None,
    ) -> tuple[object, ShardedQueryStats]:
        """Admission-gated async scatter-gather range query.

        Healthy participants run *concurrently*, each on its own shard
        thread under its own deadline budget — except tree sub-queries
        on free, warm shards, which run on the loop one after another
        (each is one node lookup); isolated or failing
        shards degrade to the same :class:`PartialResult` semantics as
        the sync path (:meth:`ShardedService.finish_range` is shared).
        """
        await self._admit("range")
        started = self.sharded.clock.now()
        ok = False
        try:
            with telemetry.span("router.query", kind="range"):
                self.sharded._check_fence()
                eid, method, participants = await self._plan(
                    functools.partial(
                        self.sharded.plan_range, query, method, epoch_id
                    )
                )
                # A tree sub-query reads one sealed node: it runs on the
                # loop when its shard is free (see _dispatch_inline).
                inline = method == "tree" and self.hedge_delay is None

                outcomes: dict[int, object] = {}
                errors: dict[int, str] = {}
                hops = []
                for shard_id in participants:
                    shard = self.sharded.shards[shard_id]
                    if not shard.healthy():
                        _count_isolated(shard_id, shard.isolation_reason())
                        errors[shard_id] = "ShardUnavailable"
                        continue
                    thunk = functools.partial(
                        shard.service.execute_range,
                        query,
                        method=method,
                        epoch_id=eid,
                    )
                    if inline:
                        outcome = self._dispatch_inline(shard, thunk, eid)
                        if outcome is not SHARD_BUSY:
                            outcomes[shard_id] = outcome
                            continue
                    hops.append((shard_id, self._dispatch(shard, "range", thunk)))
                gathered = await asyncio.gather(
                    *(coro for _, coro in hops), return_exceptions=True
                )
                outcomes.update(zip((shard_id for shard_id, _ in hops), gathered))

                answers: dict[int, object] = {}
                per_shard: dict[int, QueryStats] = {}
                for shard_id in sorted(outcomes):
                    outcome = outcomes[shard_id]
                    if isinstance(outcome, ConcealerError):
                        errors[shard_id] = type(outcome).__name__
                    elif isinstance(outcome, BaseException):
                        raise outcome
                    else:
                        answers[shard_id], per_shard[shard_id] = outcome
                result = self.sharded.finish_range(
                    query, participants, answers, per_shard, errors
                )
                ok = True
                return result
        finally:
            self._observe_slo(started, ok)
            self._release()

    async def heal(self) -> dict[int, dict]:
        """Run the sync re-admission protocol off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.sharded.heal)

    async def _plan(self, plan):
        """Plan a request: ``plan`` is ``plan_point`` / ``plan_range``
        bound to the request, taking the ``blocking`` flag.

        A warm plan is a lookup, so it runs on the loop when a free
        shard already holds the epoch's context.  Otherwise (every
        shard busy, or the epoch's first request since ingest, a
        rotation or a heal) it runs on the default pool: the plan then
        decrypts metadata in an enclave, and may wait for a lock.
        ``propagate`` carries the trace context onto the pool thread so
        ``router.plan`` joins this trace.
        """
        planned = plan(blocking=False)
        if planned is not SHARD_BUSY:
            return planned
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, tracing.propagate(plan))

    # ---------------------------------------------------------------- drain

    @property
    def inflight(self) -> int:
        return self._inflight

    async def drain(self, deadline_seconds: float = 10.0) -> bool:
        """Stop admitting and wait for in-flight work; True if idle.

        Queries arriving after drain starts are shed with a typed
        :class:`RouterFenced`.  Returns ``False`` when the deadline
        expired with requests still running (the caller may still
        checkpoint — shard state is only mutated under shard locks, so
        a checkpoint taken afterwards is consistent per shard).
        """
        self._lazy_async_state()
        self._draining = True
        if self._inflight == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=deadline_seconds)
            return True
        except asyncio.TimeoutError:
            return False

    async def shutdown(self, drain_seconds: float = 10.0) -> bool:
        """Drain, checkpoint every shard, and tear down the pools.

        Idempotent; returns the drain verdict.  After shutdown the
        router rejects all queries.
        """
        if self._closed:
            return True
        drained = await self.drain(drain_seconds)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.sharded.checkpoint_all)
        self._closed = True
        for executor in self._executors.values():
            executor.shutdown(wait=True, cancel_futures=True)
        return drained

    def close(self) -> None:
        """Synchronous teardown (no drain) for non-async callers."""
        self._closed = True
        self._draining = True
        for executor in self._executors.values():
            executor.shutdown(wait=False, cancel_futures=True)
