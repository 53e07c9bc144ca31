"""Batched query execution over a shared, per-batch bin overlay.

Concealer's cost model (§5, Theorem 4.1) makes the *bin fetch* the unit
of both work and leakage: every query touching a bin pays the full
fixed-size retrieval.  Concurrent queries over a hot spatial region
therefore redundantly re-fetch and re-verify identical bins.  This
package removes the redundancy within one batch without touching the
leakage profile:

- :class:`~repro.batching.planner.QueryBatcher` resolves a batch of
  point/range queries to their bin sets and deduplicates them into a
  single per-(table, bin) fetch plan;
- :class:`~repro.batching.fetcher.BinFetcher` is the shared fetch path
  the point and multipoint-range executors call through — overlay →
  storage, verifying each bin before it may be reused;
- :class:`~repro.batching.executor.ParallelFetchExecutor` drives the
  deduplicated plan over a bounded worker pool, threading ``Deadline``
  budgets and circuit-breaker state through every concurrent fetch.

Because the bin is the *public* retrieval unit (any query touching it
fetches all of it), batch-dedup behaviour is a pure function of the
publicly observable bin-identity sequence — the counters here are
tagged public-size and the leakage auditor holds them to it.  Nothing
is reused across requests.
"""

from repro.batching.executor import ParallelFetchExecutor
from repro.batching.fetcher import BatchOverlay, BinFetcher
from repro.batching.planner import BatchPlan, PlannedQuery, QueryBatcher

__all__ = [
    "BatchOverlay",
    "BatchPlan",
    "BinFetcher",
    "ParallelFetchExecutor",
    "PlannedQuery",
    "QueryBatcher",
]
