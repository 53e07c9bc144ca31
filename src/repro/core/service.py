"""The service provider SP (Figure 1, right).

An *untrusted* host that stores the encrypted epochs in its DBMS and
runs the trusted query logic inside its enclave.  The service provider
itself only ever sees ciphertext rows, opaque trapdoors, and the
storage access log — everything the leakage analysis treats as the
adversary's view.

Query flow (Phase 3):

1. the user authenticates against the enclave-held registry
   (challenge-response);
2. the enclave authorizes the query (individualized queries only over
   the user's own device id);
3. the enclave builds/loads the epoch context and executes the chosen
   method (BPB / eBPB / winSecRange);
4. the answer is returned sealed for the user.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import telemetry
from repro.batching.executor import ParallelFetchExecutor
from repro.batching.fetcher import BatchOverlay, BinFetcher
from repro.batching.planner import BatchPlan, QueryBatcher
from repro.core.collector import collector_quiet
from repro.core.context import EpochContext
from repro.core.epoch import EpochPackage
from repro.core.point_query import BPBExecutor
from repro.core.queries import PointQuery, QueryStats, RangeQuery
from repro.core.range_query import RangeExecutor
from repro.core.registry import Registry, RegistryEntry, UserCredential
from repro.core.schema import DatasetSchema
from repro.crypto.keys import derive_epoch_key
from repro.crypto.nondet import RandomizedCipher
from repro.enclave.enclave import Enclave, EnclaveConfig
from repro.exceptions import (
    AuthenticationError,
    EpochError,
    IntegrityViolation,
    QueryError,
)
from repro.faults.clock import RetryPolicy, SystemClock, VirtualClock
from repro.faults.quarantine import QuarantineLog
from repro.replication.admission import AdmissionController
from repro.replication.deadline import Deadline
from repro.storage.engine import StorageEngine

RANGE_METHODS = ("multipoint", "ebpb", "winsecrange", "tree", "auto")


def _record_query(
    kind: str, method: str, stats: QueryStats, seconds: float | None
) -> None:
    """Fold one finished query's stats into the ambient registry.

    Fetch-side volumes (trapdoors, rows fetched, bins) are tagged
    public-size — volume hiding promises they depend only on the query
    shape, and the leakage auditor holds the registry to that promise.
    Match/decrypt counts are the query's *answer* volume and stay
    data-dependent, as do wall-clock durations (timing side channel).
    ``seconds=None`` skips the latency histogram: batch members have no
    individual wall-clock; the batch records one duration for all.
    """
    telemetry.counter(
        "concealer_queries_total",
        "queries executed, by kind and method",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kind", "method"),
    ).labels(kind=kind, method=method).inc()
    telemetry.counter(
        "concealer_bins_fetched_total",
        "bins retrieved from storage",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kind",),
    ).labels(kind=kind).inc(stats.bins_fetched)
    telemetry.counter(
        "concealer_trapdoors_total",
        "trapdoor ciphertexts submitted to the DBMS",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kind",),
    ).labels(kind=kind).inc(stats.trapdoors_generated)
    telemetry.counter(
        "concealer_rows_fetched_total",
        "encrypted rows pulled into the enclave",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("kind",),
    ).labels(kind=kind).inc(stats.rows_fetched)
    telemetry.counter(
        "concealer_rows_matched_total",
        "rows matching the query predicate (enclave-private)",
        labels=("kind",),
    ).labels(kind=kind).inc(stats.rows_matched)
    telemetry.counter(
        "concealer_rows_decrypted_total",
        "answer payloads decrypted (enclave-private)",
        labels=("kind",),
    ).labels(kind=kind).inc(stats.rows_decrypted)
    if stats.degraded:
        telemetry.counter(
            "concealer_queries_degraded_total",
            "queries answered below the healthy-replica threshold",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("kind",),
        ).labels(kind=kind).inc()
    if stats.failovers:
        telemetry.counter(
            "concealer_query_failovers_total",
            "replica failovers absorbed while serving queries",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("kind",),
        ).labels(kind=kind).inc(stats.failovers)
    if stats.cache_hits:
        telemetry.counter(
            "concealer_query_cache_hits_total",
            # The in-batch overlay is the only source now; the text is
            # unchanged so `--metrics` chaos replays stay byte-identical.
            "whole-bin fetches served from the enclave bin cache/overlay",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("kind",),
        ).labels(kind=kind).inc(stats.cache_hits)
    if seconds is not None:
        # The exemplar links each latency bucket to the last trace that
        # landed in it — "what does a p99 query look like?" becomes a
        # trace lookup.  The histogram stays data-dependent (timing),
        # and exemplars never enter the auditor's public view.
        telemetry.histogram(
            "concealer_query_seconds",
            "end-to-end query latency (timing is a side channel: never public)",
            labels=("kind",),
        ).labels(kind=kind).observe(
            seconds, trace_id=telemetry.current_trace_id()
        )


def _record_batch(plan: BatchPlan, fetch_stats: QueryStats, seconds: float) -> None:
    """Batch-level accounting: size, dedup, and the prefetch volumes.

    Batch size and bin counts are part of the request *shape* (the host
    sees how many queries arrive and which bins are fetched), so the
    counters are public-size; the wall clock stays a side channel.
    """
    telemetry.counter(
        "concealer_batches_total",
        "query batches executed",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc()
    telemetry.counter(
        "concealer_batch_queries_total",
        "queries executed inside batches",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(len(plan.items))
    telemetry.counter(
        "concealer_batch_bin_references_total",
        "whole-bin references named by batched queries (pre-dedup)",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(plan.bin_references)
    telemetry.counter(
        "concealer_batch_unique_bins_total",
        "deduplicated whole-bin fetch units executed for batches",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(len(plan.units))
    _record_query("batch", "prefetch", fetch_stats, seconds)


@dataclass
class ServiceConfig:
    """Service-side execution knobs."""

    oblivious: bool = False          # Concealer vs Concealer+ (§4.3)
    verify: bool = False             # hash-chain verification (Exp 4)
    window_subintervals: int = 8     # winSecRange λ, in subintervals
    super_bin_count: int | None = None  # §8 workload defence (point queries)
    table_prefix: str = ""           # distinguishes co-hosted indexes (§9.1)
    # Transient storage faults are retried under RetryPolicy's capped
    # exponential backoff (repro.faults.clock): queries are retried and
    # an epoch landing resumes; integrity violations and crashes are
    # not.  This is the backoff's jitter fraction in [0, 1]; the RNG is
    # threaded in by the caller (ServiceProvider's ``retry_rng``) so
    # runs stay replayable.
    retry_jitter: float = 0.0
    # Per-request deadline budget in seconds (None = unbounded).  The
    # deadline is minted at the service edge and checked at every
    # fetch, replica attempt, and retry-backoff decision.
    deadline_seconds: float | None = None
    # Admission control: at most max_inflight requests execute at once
    # plus admission_queue waiting; the rest shed with ServiceOverloaded.
    max_inflight: int = 64
    admission_queue: int = 128
    # Bounded worker pool for batch prefetches; 1 = fully sequential
    # (what the chaos harness uses so fault schedules replay).
    batch_workers: int = 4


# Minimum fully-covered leaf buckets before the auto planner prefers the
# aggregate tree: shorter windows fetch so few bins that the node cover
# would not pay for itself.
AGG_TREE_MIN_BUCKETS = 8


class ServiceProvider:
    """Hosts the DBMS and the enclave; executes queries for users."""

    def __init__(
        self,
        schema: DatasetSchema,
        config: ServiceConfig | None = None,
        engine: StorageEngine | None = None,
        enclave: Enclave | None = None,
        clock: SystemClock | VirtualClock | None = None,
        retry_rng=None,
    ):
        """``engine`` / ``enclave`` may be shared between the services
        hosting several indexes of one relation (§9.1 builds two TPC-H
        indexes and three WiFi indexes on one machine).  ``clock`` is
        injectable so tests exercise retry backoff without sleeping;
        ``retry_rng`` (a seeded ``random.Random``) drives backoff
        jitter when ``config.retry_jitter`` is non-zero."""
        self.schema = schema
        self.config = config or ServiceConfig()
        self.engine = engine if engine is not None else StorageEngine()
        self.enclave = enclave if enclave is not None else Enclave(EnclaveConfig())
        self.clock = clock if clock is not None else SystemClock()
        self.retry = RetryPolicy(
            clock=self.clock, jitter=self.config.retry_jitter, rng=retry_rng
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.admission_queue,
        )
        # Cells with standing hash-chain violations; queries touching
        # them fail fast with a structured IntegrityViolation.
        self.quarantine = QuarantineLog()
        self._packages: dict[int, EpochPackage] = {}
        self._contexts: dict[int, EpochContext] = {}
        self._registry: Registry | None = None
        # Outstanding authentication challenges: each is single-use, so a
        # network adversary replaying a captured (challenge, response)
        # pair is rejected (§1.2(ii) replay concern, enclave-side).
        self._open_challenges: set[bytes] = set()
        # The shared whole-bin fetch path (repro.batching).
        self._fetcher = BinFetcher(
            self.engine,
            oblivious=self.config.oblivious,
            verify=self.config.verify,
        )
        # One persistent prefetch pool per service: batches reuse its
        # worker threads instead of paying thread spawn per request.
        self._prefetch_executor = ParallelFetchExecutor(
            self._fetcher, workers=self.config.batch_workers
        )
        self._point_executor = BPBExecutor(
            self._fetcher,
            oblivious=self.config.oblivious,
            verify=self.config.verify,
            super_bin_count=self.config.super_bin_count,
            quarantine=self.quarantine,
        )
        self._range_executor = RangeExecutor(
            self._fetcher,
            oblivious=self.config.oblivious,
            verify=self.config.verify,
            window_subintervals=self.config.window_subintervals,
        )

    # -------------------------------------------------------------- ingestion

    def install_registry(self, sealed_registry: bytes) -> None:
        """Receive the encrypted registry; the enclave opens it."""
        self.enclave.require_provisioned()
        cipher = RandomizedCipher(derive_epoch_key(self.enclave.master_key, 0))
        self._registry = Registry.unseal(sealed_registry, cipher)

    @collector_quiet()
    def ingest_epoch(self, package: EpochPackage) -> None:
        """Phase 1 landing: one bulk landing of rows, index and sidecars.

        A transient write fault stops the engine *between* rows, so the
        retry resumes from the table's row count — no row lands twice —
        with a fresh backoff budget per stalled row.  The sidecars go
        in last (a row write invalidates them); any failure drops the
        table: a half-landed epoch would silently under-count.
        """
        if package.schema_name != self.schema.name:
            raise EpochError(
                f"package schema {package.schema_name!r} does not match "
                f"service schema {self.schema.name!r}"
            )
        if package.epoch_id in self._packages:
            raise EpochError(f"epoch {package.epoch_id} already ingested")
        engine = self.engine
        table = self._table_name(package.epoch_id)
        engine.create_table(table, package.column_names)
        engine.create_index(table, "index_key")
        try:
            rows = [row.as_columns() for row in package.rows]
            self.retry.call(
                lambda: engine.insert_many(table, rows, engine.row_count(table)),
                progress=lambda: engine.row_count(table),
            )
            # Derived data: a package without them, or a service that
            # does not read them, skips the install.
            if not self.config.oblivious:
                if package.packed_bins:
                    engine.store_packed_bins(table, package.packed_bins)
                if package.agg_tree is not None:
                    engine.store_agg_tree(table, package.agg_tree)
        except BaseException:
            engine.drop_table(table)
            raise
        self._packages[package.epoch_id] = package

    def ingested_epochs(self) -> list[int]:
        """Epoch ids landed so far, sorted."""
        return sorted(self._packages)

    def evict_epoch(self, epoch_id: int) -> bool:
        """Drop one landed epoch entirely (table, package, context).

        The sharded two-phase ingest uses this to roll back shards that
        already landed an epoch when a later shard failed — a fleet
        must never serve an epoch only some shards hold, or range
        queries would silently under-count.  Returns whether anything
        was evicted.
        """
        evicted = epoch_id in self._packages
        table = self._table_name(epoch_id)
        if table in self.engine.table_names():
            self.engine.drop_table(table)
            evicted = True
        self._packages.pop(epoch_id, None)
        self._drop_contexts(epoch_id)
        return evicted

    # ------------------------------------------------------------ epoch state

    def context_for(self, epoch_id: int) -> EpochContext:
        """Enclave-side lazy construction of the epoch context (STEP 0)."""
        if epoch_id not in self._contexts:
            package = self._packages.get(epoch_id)
            if package is None:
                raise EpochError(f"epoch {epoch_id} was never ingested")
            self._contexts[epoch_id] = EpochContext(
                self.enclave, package, self.schema,
                table_name=self._table_name(epoch_id),
                verifies=self.config.verify,
                oblivious=self.config.oblivious,
            )
        return self._contexts[epoch_id]

    def _drop_contexts(self, epoch_id: int | None = None) -> None:
        """Forget cached epoch contexts — all, or one epoch's — and hand
        their EPC charge back to the enclave they were built on.  A
        killed enclave's ledger died with it; nothing is owed there."""
        for epoch in list(self._contexts) if epoch_id is None else [epoch_id]:
            context = self._contexts.pop(epoch, None)
            if context is not None and not context.enclave.crashed:
                context.release()

    # -------------------------------------------------------------- recovery

    def adopt_enclave(self, enclave: Enclave) -> None:
        """Install a replacement enclave after a crash.

        A killed enclave loses every sealed byte (keys, registry,
        decrypted metadata), so the cached per-epoch contexts and the
        unsealed registry are discarded; the replacement must be
        re-attested and re-provisioned by the data provider (see
        :class:`repro.faults.recovery.RecoveryCoordinator`), after which
        contexts rebuild lazily from the stored epoch packages.
        """
        self.enclave = enclave
        # Not _drop_contexts: the instance these were charged on is gone.
        self._contexts.clear()
        self._registry = None

    def adopt_engine(self, engine: StorageEngine) -> None:
        """Swap in a storage engine restored from a checkpoint."""
        self.engine = engine
        self._fetcher.engine = engine

    # ---------------------------------------------------------- authentication

    def challenge(self) -> bytes:
        """A fresh, single-use authentication challenge for a user."""
        challenge = os.urandom(16)
        self._open_challenges.add(challenge)
        return challenge

    def authenticate(
        self, credential: UserCredential, challenge: bytes, response: bytes
    ) -> RegistryEntry:
        """Verify a user against the enclave-held registry.

        The challenge must be one this service issued and not yet
        consumed — replaying a captured (challenge, response) pair
        fails even though the HMAC verifies.
        """
        if self._registry is None:
            raise AuthenticationError("no registry installed at this service")
        if challenge not in self._open_challenges:
            raise AuthenticationError(
                "unknown or already-used challenge (replay rejected)"
            )
        self._open_challenges.discard(challenge)
        return self._registry.authenticate(credential.user_id, challenge, response)

    @property
    def registry(self) -> Registry:
        """The enclave-held registry; raises until one is installed."""
        if self._registry is None:
            raise AuthenticationError("no registry installed at this service")
        return self._registry

    # --------------------------------------------------------------- queries

    def execute_point(
        self, query: PointQuery, epoch_id: int | None = None
    ) -> tuple[object, QueryStats]:
        """Run a point query (Algorithm 2) inside the enclave."""
        with self.admission.admit("point"):
            eid = epoch_id if epoch_id is not None else self._epoch_of(query.timestamp)
            context = self.context_for(eid)
            deadline = self._new_deadline()
            with telemetry.span("service.point_query", epoch=eid) as query_span:
                self.engine.access_log.begin_query()
                try:
                    answer, stats = self._execute_resilient(
                        lambda: self._point_executor.execute(
                            query, context, deadline=deadline
                        ),
                        deadline=deadline,
                    )
                finally:
                    self.engine.access_log.end_query()
        _record_query("point", "bpb", stats, query_span.duration)
        return answer, stats

    def execute_range(
        self,
        query: RangeQuery,
        method: str = "ebpb",
        epoch_id: int | None = None,
    ) -> tuple[object, QueryStats]:
        """Run a range query with the chosen §5 method."""
        if method not in RANGE_METHODS:
            raise QueryError(
                f"unknown range method {method!r}; choose from {RANGE_METHODS}"
            )
        eid = epoch_id if epoch_id is not None else self._epoch_of(query.time_start)
        if epoch_id is None and self._epoch_of(query.time_end) != eid:
            raise QueryError(
                "range spans multiple epochs; use DynamicConcealer (§6)"
            )
        with self.admission.admit("range"):
            context = self.context_for(eid)
            if method == "auto":
                method = self.choose_range_method(query, context)
            deadline = self._new_deadline()
            executor = self._range_executor
            with telemetry.span(
                "service.range_query", epoch=eid, method=method
            ) as query_span:
                self.engine.access_log.begin_query()
                try:
                    run = lambda: executor.execute(
                        method, query, context, deadline=deadline
                    )
                    answer, stats = self._execute_resilient(run, deadline=deadline)
                finally:
                    self.engine.access_log.end_query()
        _record_query("range", method, stats, query_span.duration)
        return answer, stats

    def execute_batch(
        self, queries, epoch_id: int | None = None
    ) -> list[tuple[object, QueryStats]]:
        """Execute a batch of queries over one shared, deduplicated fetch.

        ``queries`` mixes :class:`PointQuery`, :class:`RangeQuery`
        (default eBPB), and ``(RangeQuery, method)`` pairs.  The batch
        planner resolves every query's whole-bin set and deduplicates
        it into one fetch plan; the parallel fetch executor retrieves
        each unique bin exactly once (verified before reuse), and every
        query then runs through its normal §5 executor against the
        shared overlay — answers are byte-identical to running the
        queries sequentially, while bins overlapping across the batch
        are fetched once instead of once per query.

        Admission charges the batch as a single request; one deadline
        budget covers planning, prefetch, and every member's execution.
        Returns ``[(answer, stats), ...]`` in input order.
        """
        items = list(queries)
        if not items:
            return []
        with self.admission.admit("batch"):
            deadline = self._new_deadline()
            plan = QueryBatcher(self).plan(items, epoch_id=epoch_id)
            with telemetry.span(
                "service.batch",
                queries=len(plan.items),
                unique_bins=len(plan.units),
                references=plan.bin_references,
            ) as batch_span:
                self.engine.access_log.begin_query()
                try:
                    fetch_stats, results = self._execute_resilient(
                        lambda: self._run_batch(plan, deadline),
                        deadline=deadline,
                    )
                finally:
                    self.engine.access_log.end_query()
        _record_batch(plan, fetch_stats, batch_span.duration)
        for planned, (answer, stats) in zip(plan.items, results):
            _record_query(planned.kind, planned.method, stats, None)
        return results

    def _run_batch(self, plan: BatchPlan, deadline: Deadline | None):
        """One attempt at a planned batch (read-only, so retry-safe).

        A retry after a transient fault rebuilds the overlay from
        scratch.
        """
        overlay = BatchOverlay()
        fetch_stats = self._prefetch_executor.prefetch(
            plan.units, overlay, deadline=deadline
        )
        results: list[tuple[object, QueryStats]] = []
        for item in plan.items:
            context = self.context_for(item.epoch_id)
            shared_overlay = overlay if item.shared else None
            if item.kind == "point":
                results.append(
                    self._point_executor.execute(
                        item.query, context,
                        deadline=deadline, overlay=shared_overlay,
                    )
                )
            else:
                results.append(
                    self._range_executor.execute(
                        item.method, item.query, context,
                        deadline=deadline, overlay=shared_overlay,
                    )
                )
        return fetch_stats, results

    def _new_deadline(self) -> Deadline | None:
        """Mint this request's deadline budget (None = unbounded)."""
        if self.config.deadline_seconds is None:
            return None
        return Deadline.after(self.clock, self.config.deadline_seconds)

    def _execute_resilient(self, run, deadline: Deadline | None = None):
        """Retry transient storage faults; quarantine integrity failures.

        Queries are read-only, so re-running the executor after a
        transient fault is safe.  An :class:`IntegrityViolation` is
        *permanent*: its cell is quarantined and the structured report
        filed before the violation propagates to the caller.  The
        deadline gates every backoff sleep: a request whose budget is
        spent fails with :class:`DeadlineExceeded` instead of retrying.
        """
        try:
            return self.retry.call(run, deadline=deadline)
        except IntegrityViolation as violation:
            self.quarantine.record(violation)
            raise

    # ------------------------------------------------------- sealed answers

    def execute_point_sealed(
        self, query: PointQuery, entry: RegistryEntry, epoch_id: int | None = None
    ) -> tuple[bytes, QueryStats]:
        """Point query whose answer leaves the enclave sealed for the user.

        Phase 3's final step: the host relays an opaque authenticated
        blob it can neither read nor substitute; only the user's
        registry secret opens it (Phase 4).
        """
        from repro.core.registry import seal_answer

        answer, stats = self.execute_point(query, epoch_id=epoch_id)
        return seal_answer(entry.secret, answer), stats

    def execute_range_sealed(
        self,
        query: RangeQuery,
        entry: RegistryEntry,
        method: str = "ebpb",
        epoch_id: int | None = None,
    ) -> tuple[bytes, QueryStats]:
        """Range query with a sealed answer (see
        :meth:`execute_point_sealed`)."""
        from repro.core.registry import seal_answer

        answer, stats = self.execute_range(query, method=method, epoch_id=epoch_id)
        return seal_answer(entry.secret, answer), stats

    def execute_batch_sealed(
        self, queries, entry: RegistryEntry, epoch_id: int | None = None
    ) -> list[tuple[bytes, QueryStats]]:
        """Batched execution with every answer sealed for one user.

        The whole batch must belong to a single authenticated user —
        answers are sealed under that user's registry secret, exactly
        as :meth:`execute_point_sealed` does per query.
        """
        from repro.core.registry import seal_answer

        results = self.execute_batch(queries, epoch_id=epoch_id)
        return [
            (seal_answer(entry.secret, answer), stats)
            for answer, stats in results
        ]

    def choose_range_method(self, query: RangeQuery, context) -> str:
        """Pick a §5 method from the query's *public* shape.

        Uses only L_s-grade information (candidate-combination count,
        covered subinterval span, grid geometry, aggregate kind, tree
        geometry from the epoch metadata) so the choice itself leaks
        nothing beyond the query shape the adversary observes anyway:

        - decomposable aggregates over long windows → the aggregate
          tree (O(log range) sealed nodes instead of O(range) bins);
        - queries sweeping most of the value domain fetch whole time
          slices regardless of method → winSecRange (also the
          strongest security);
        - selective queries → eBPB (tightest fetch volume);
        - tiny spans (≤ one subinterval) → multipoint, which fetches a
          single point-query bin.

        Every decision is recorded in a public-size counter: the
        leakage auditor holds the planner to its publicness claim.
        """
        method = self._choose_range_method(query, context)
        telemetry.counter(
            "concealer_planner_decisions_total",
            "auto-planner range-method decisions, by chosen method",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("method",),
        ).labels(method=method).inc()
        return method

    def tree_enabled_for(self, query: RangeQuery, context) -> bool:
        """Whether the auto planner may route this query to the tree.

        Pure function of public inputs: the service config, the query
        *shape* (aggregate kind, target, candidate count, time span),
        the epoch geometry, and the tree's public directory header
        (fanout/leaf count — identical for every cell by construction).
        Data values are never consulted, so the planner's choice leaks
        nothing the storage access log does not already show.
        """
        if self.config.oblivious:  # trace identity: no tree under §4.3
            return False
        if not RangeExecutor.tree_eligible(query, self.schema):
            return False
        meta = self.engine.fetch_agg_tree_meta(context.table_name)
        if meta is None:
            return False
        from repro.core.aggtree import decompose_range

        span = decompose_range(
            context.epoch_id,
            context.grid.spec.epoch_duration,
            meta.leaf_count,
            query.time_start,
            query.time_end,
        )
        return span.full_buckets >= AGG_TREE_MIN_BUCKETS

    def _choose_range_method(self, query: RangeQuery, context) -> str:
        if self.tree_enabled_for(query, context):
            return "tree"
        combos = len(query.candidate_combinations())
        span = len(
            context.grid.time_buckets_for_range(query.time_start, query.time_end)
        )
        non_time_columns = (
            context.grid.spec.total_cells // context.grid.spec.time_buckets
        )
        if combos >= max(2, non_time_columns // 2):
            return "winsecrange"
        if span <= 1:
            return "multipoint"
        return "ebpb"

    def _table_name(self, epoch_id: int) -> str:
        """Storage table hosting one epoch of this index."""
        return f"{self.config.table_prefix}epoch_{epoch_id}"

    def _epoch_of(self, timestamp: int) -> int:
        """Map a timestamp to an ingested epoch id."""
        self.enclave.require_provisioned()
        return self.enclave.key_schedule.epoch_id_for_time(timestamp)
