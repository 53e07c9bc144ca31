"""Batched query execution over a shared, per-batch bin overlay.

Concealer's cost model (§5, Theorem 4.1) makes the *bin fetch* the unit
of both work and leakage: every query touching a bin pays the full
fixed-size retrieval.  Concurrent queries over a hot spatial region
therefore redundantly re-fetch and re-verify identical bins.  A batch
removes the redundancy with one rule and without touching the leakage
profile: :class:`~repro.batching.fetcher.BinFetcher` is the whole-bin
fetch path the point and multipoint-range executors call through, and
inside ``ServiceProvider.execute_batch`` the first member that needs a
bin fetches it, verified, into the batch's
:class:`~repro.batching.fetcher.BatchOverlay`; every later member reads
it from there.

Because the bin is the *public* retrieval unit (any query touching it
fetches all of it), batch-dedup behaviour is a pure function of the
publicly observable bin-identity sequence — the counters here are
tagged public-size and the leakage auditor holds them to it.  Nothing
is reused across requests.
"""

from repro.batching.fetcher import BatchOverlay, BinFetcher

__all__ = ["BatchOverlay", "BinFetcher"]
