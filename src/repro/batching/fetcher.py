"""The shared whole-bin fetch path: overlay → storage.

Both the BPB point executor and the multipoint range executor retrieve
*whole bins* (Theorem 4.1's fixed-size public retrieval unit).  The
:class:`BinFetcher` centralises that retrieval so a bin fetched once
within a batch can be reused from the :class:`BatchOverlay` without any
caller-visible change in answers.  Nothing outlives a request: every
query's bins reach storage, so what the host sees never depends on
earlier queries.

A bin reaches the enclave by one of two fetch kinds — the engine's
sealed columnar sidecar read whole, or rows pulled by trapdoor and
packed at the fetch boundary — and is a
:class:`~repro.core.packed.PackedBin` from there on, so the overlay
holds one form (DESIGN.md §16).  Which kind runs is decided by
what the engine holds and what the method needs, never by an option:
the sidecar when there is one, trapdoors when there is not (a rotated,
§6-rewritten or repaired table, a sidecar-less replica) and always
under oblivious execution, whose guarantee covers the trapdoor schedule
only.  :meth:`BinFetcher.fetch_bin_any` consults the overlay, and
:meth:`BinFetcher.fetch_entry_any` reads storage (fetch →
ensure-verified).  The fetcher always asks
:class:`~repro.core.context.EpochContext` to verify, whose fetch shell
reports whether the engine — a replica group — could do so on every
replica attempt (DESIGN.md §9, *Verified read*).

Verification invariant: whenever a fetched bin may be *reused* (an
overlay is active) and the service verifies, the bin's hash chains are
checked **before** it enters the overlay.  A later consumer of the
shared bin therefore never needs to re-verify, and a tampered batch is
rejected before it can poison the overlay.  Without an overlay, a bin
from a plain engine is handed back unverified and the executor
verifies the whole batch at the end of the query.
"""

from __future__ import annotations

import threading

from repro import telemetry
from repro.core.queries import QueryStats


def _bin_reuses():
    return telemetry.counter(
        "concealer_batch_bin_reuses_total",
        "whole-bin fetches served from the in-batch overlay",
        secrecy=telemetry.PUBLIC_SIZE,
    )


class BatchOverlay:
    """Per-batch map of already-fetched bins: (table, bin_index) →
    (packed bin, verified).

    Lives only for one ``execute_batch`` call, so it needs no fencing —
    a rewrite cannot interleave with the read-only batch that owns it.
    Thread-safe because the parallel prefetch fills it concurrently.
    """

    def __init__(self):
        self._entries: dict[tuple[str, int], tuple[object, bool]] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple[str, int]) -> tuple[object, bool] | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple[str, int], packed, verified: bool) -> None:
        with self._lock:
            self._entries[key] = (packed, verified)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries


class BinFetcher:
    """Fetches whole bins for the executors, sharing where it is sound.

    Without an overlay every fetch goes to storage.  Oblivious (§4.3)
    execution bypasses the overlay: Concealer+'s guarantee is an
    *identical in-enclave event trace* for every query.
    """

    def __init__(self, engine, oblivious=False, verify=False):
        self.engine = engine
        self.oblivious = oblivious
        self.verify = verify
        # Engines (and their access logs / breakers) are not reentrant;
        # concurrent prefetch workers serialise the storage round-trip
        # and parallelise what surrounds it (trapdoor generation,
        # verification — the in-enclave compute).
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------ query path

    def fetch_bin_any(
        self, context, fetch_bin, stats: QueryStats, deadline=None, overlay=None
    ):
        """Retrieve one whole bin, packed: overlay → storage; fills the
        overlay."""
        key = (context.table_name, fetch_bin.index)
        shared = overlay.get(key) if overlay is not None else None
        if shared is not None:
            packed, verified = shared
            _bin_reuses().inc()
            self._count_hit(stats, packed, verified)
            return packed
        packed, verified = self.fetch_entry_any(
            context, fetch_bin, stats, deadline,
            ensure_verified=overlay is not None,
        )
        if overlay is not None:
            overlay.put(key, packed, verified)
        return packed

    def fetch_entry_any(
        self, context, fetch_bin, stats: QueryStats, deadline=None,
        ensure_verified=False,
    ) -> tuple[object, bool]:
        """Fetch → ensure-verified for one bin, by whichever fetch kind
        the engine can serve; returns ``(packed, verified)``."""
        engine = self.engine
        packed = None
        # Both fetch kinds hand back the whole bin in canonical slot
        # order, except the oblivious schedule's bitonic-sorted one.
        chosen = None if self.oblivious else fetch_bin
        if not self.oblivious:
            with self._engine_lock:
                packed, verified = context.fetch_packed(
                    engine, fetch_bin, stats, deadline=deadline, verify=self.verify
                )
        if packed is None:
            # No sidecar (or the oblivious schedule): the trapdoor
            # fetch.  Trapdoor derivation stays outside the engine lock.
            if self.oblivious:
                trapdoors = context.oblivious_trapdoors_for_bin(fetch_bin)
            else:
                trapdoors = context.trapdoors_for_bin(fetch_bin)
            with self._engine_lock:
                packed, verified = context.fetch(
                    engine, trapdoors, stats, deadline=deadline,
                    verify=self.verify, cells=fetch_bin.cell_ids,
                    bin_index=fetch_bin.index, request=chosen,
                )
        if self.verify and ensure_verified and not verified:
            # The bin becomes reusable, so it must be checked *now*:
            # a later overlay consumer will trust it as-is.
            packed = context.verified_bin(packed, fetch_bin.cell_ids, chosen)
            verified = True
            stats.verified = True
        return packed, verified

    # Caller-less: kept only because the repo benchmark's span table
    # (benchmarks/e2e/spans.py, ENTRY_POINTS) names them.
    fetch_bin = fetch_bin_any
    fetch_bin_entry = fetch_entry_any

    def fetch_tree_nodes(
        self, context, meta, coords, stats: QueryStats, deadline=None
    ):
        """Aggregate-tree node ciphertexts for a range cover, in one
        storage round-trip.  Returns ciphertexts aligned with
        ``coords``, or ``None`` when the engine holds no tree sidecar
        (the caller falls back to the bin path)."""
        with self._engine_lock:
            return context.fetch_tree_nodes(
                self.engine, meta, coords, stats,
                deadline=deadline, verify=self.verify,
            )

    # ------------------------------------------------------------ accounting

    def _count_hit(self, stats: QueryStats, rows, verified: bool) -> None:
        stats.cache_hits += 1
        stats.rows_from_cache += len(rows)
        if self.verify and verified:
            stats.verified = True
