"""Bounded-parallel prefetch of a batch's deduplicated bin units.

Each unit is one whole-bin fetch; the pool runs at most ``workers`` at
a time.  Trapdoor generation and hash-chain verification (the
in-enclave compute) parallelise; the storage round-trip itself is
serialised by the :class:`~repro.batching.fetcher.BinFetcher`'s engine
lock, because the engines — and their access logs, circuit breakers
and fault injectors — are stateful and not reentrant.

Determinism: results are merged (and the overlay filled) in *unit
order* regardless of completion order, and the first failure in unit
order is the one raised.  With ``workers=1`` the execution order is
exactly the plan order, which is what the chaos harness uses so fault
schedules replay byte-identically.

Every fetch threads the batch's :class:`Deadline` through to the
storage engine — replica attempts, retry backoff and the EPC charge
all observe the same budget the service minted at admission.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.queries import QueryStats


def merge_stats(into: QueryStats, source: QueryStats) -> QueryStats:
    """Fold one fetch's accounting into a batch-level aggregate."""
    into.trapdoors_generated += source.trapdoors_generated
    into.rows_fetched += source.rows_fetched
    into.rows_matched += source.rows_matched
    into.rows_decrypted += source.rows_decrypted
    into.cache_hits += source.cache_hits
    into.cache_misses += source.cache_misses
    into.rows_from_cache += source.rows_from_cache
    into.failovers += source.failovers
    into.degraded = into.degraded or source.degraded
    into.verified = into.verified or source.verified
    return into


class ParallelFetchExecutor:
    """Runs a plan's fetch units over a bounded worker pool."""

    def __init__(self, fetcher, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.fetcher = fetcher
        self.workers = workers
        # The worker pool persists across batches: spawning threads per
        # prefetch costs more than small batches' entire fetch work
        # (the pool is created lazily and its threads are reused).
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="concealer-prefetch",
                )
            return self._pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None

    def prefetch(self, units, overlay, deadline=None) -> QueryStats:
        """Fetch every unit once, filling ``overlay``; returns the
        batch-level fetch accounting (trapdoors, rows, hits/misses).

        Raises the first unit's error (in unit order) after all workers
        settle, so a mid-batch fault surfaces deterministically and no
        partially fetched bin leaks into the overlay.
        """
        stats = QueryStats()
        units = list(units)
        if not units:
            return stats
        stats.bins_fetched = len(units)
        # An epoch landed with its sidecar is read by batched, GIL-bound
        # kernel calls around a storage round-trip the engine lock
        # serialises, so worker threads only add contention — run it
        # inline; the pool is for epochs landed without one, read by
        # trapdoor, whose derivation it overlaps.
        sealed = all(context.package.packed_bins for context, _ in units)
        if sealed or self.workers == 1 or len(units) == 1:
            for context, fetch_bin in units:
                rows, verified = self.fetcher.fetch_entry_any(
                    context, fetch_bin, stats,
                    deadline=deadline, ensure_verified=True,
                )
                overlay.put((context.table_name, fetch_bin.index), rows, verified)
            return stats

        def fetch_one(unit):
            context, fetch_bin = unit
            local = QueryStats()
            rows, verified = self.fetcher.fetch_entry_any(
                context, fetch_bin, local,
                deadline=deadline, ensure_verified=True,
            )
            return rows, verified, local

        outcomes: list = [None] * len(units)
        pool = self._ensure_pool()
        futures = [pool.submit(fetch_one, unit) for unit in units]
        for index, future in enumerate(futures):
            try:
                outcomes[index] = (True, future.result())
            except BaseException as error:  # re-raised below, in order
                outcomes[index] = (False, error)
        for index, (ok, outcome) in enumerate(outcomes):
            if not ok:
                raise outcome
            rows, verified, local = outcome
            context, fetch_bin = units[index]
            overlay.put((context.table_name, fetch_bin.index), rows, verified)
            merge_stats(stats, local)
        return stats
