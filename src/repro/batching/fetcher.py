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
from repro.core.context import SlotRequest
from repro.core.queries import QueryStats


def _bin_reuses():
    return telemetry.counter(
        "concealer_batch_bin_reuses_total",
        "whole-bin fetches served from the in-batch overlay",
        secrecy=telemetry.PUBLIC_SIZE,
    )


class BatchOverlay:
    """One batch's bins: (table, bin_index) → (packed bin, verified).

    The first member that names a bin fetches it, verified, and every
    member read of it — that first one's included — is served from
    here.  The fetches are charged to ``stats``, the batch's own
    accounting; ``references`` counts the member reads.  Lives for one
    attempt at one ``execute_batch``, so it needs no fencing: a rewrite
    cannot interleave with the read-only batch that owns it.
    """

    def __init__(self):
        self.entries: dict[tuple[str, int], tuple[object, bool]] = {}
        self.stats = QueryStats()
        self.references = 0

    def __len__(self) -> int:
        return len(self.entries)


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
        # Engines (and their access logs / breakers) are not reentrant,
        # and admission lets up to ``max_inflight`` callers into one
        # service at once: the storage round-trip runs under this lock,
        # trapdoor derivation and verification outside it.
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------ query path

    def fetch_bin_any(
        self, context, fetch_bin, stats: QueryStats, deadline=None, overlay=None
    ):
        """Retrieve one whole bin, packed: from storage, or through the
        batch's overlay, which the first reader of a bin fills."""
        if overlay is None:
            return self.fetch_entry_any(context, fetch_bin, stats, deadline)[0]
        key = (context.table_name, fetch_bin.index)
        entry = overlay.entries.get(key)
        if entry is None:
            entry = overlay.entries[key] = self.fetch_entry_any(
                context, fetch_bin, overlay.stats, deadline, ensure_verified=True
            )
        overlay.references += 1
        packed, verified = entry
        _bin_reuses().inc()
        self._count_hit(stats, packed, verified)
        return packed

    def fetch_entry_any(
        self, context, fetch_bin, stats: QueryStats, deadline=None,
        ensure_verified=False,
    ) -> tuple[object, bool]:
        """Fetch → ensure-verified for one bin, by whichever fetch kind
        the engine can serve; returns ``(packed, verified)``."""
        packed = None
        # Both fetch kinds hand back the whole bin in canonical slot
        # order, except the oblivious schedule's bitonic-sorted one.
        chosen = None if self.oblivious else fetch_bin
        if not self.oblivious:
            packed, verified = self._read_sidecar(context, fetch_bin, stats, deadline)
        if packed is None:
            # No sidecar (or the oblivious schedule): the trapdoor fetch.
            if self.oblivious:
                trapdoors = context.oblivious_trapdoors_for_bin(fetch_bin)
            else:
                trapdoors = context.trapdoors_for_bin(fetch_bin)
            packed, verified = self._read_trapdoors(
                context, trapdoors, stats, deadline, cells=fetch_bin.cell_ids,
                bin_index=fetch_bin.index, request=chosen,
            )
        if self.verify and ensure_verified and not verified:
            # The bin becomes reusable, so it must be checked *now*:
            # a later overlay consumer will trust it as-is.
            packed = context.verified_bin(packed, fetch_bin.cell_ids, chosen)
            verified = True
            stats.verified = True
        return packed, verified

    def fetch_slots(self, context, cells, fake_ids, stats: QueryStats, deadline=None):
        """STEP 3 for a padded cell-id set (eBPB's, a winSecRange
        window's): the fetch — slot runs where the sidecar serves them
        (DESIGN.md §16), else trapdoors — and the slot request the batch
        is verified by, none under Concealer+ (always grouping).
        Returns ``(packed, request)``."""
        request = None if self.oblivious else context.slot_runs(cells, fake_ids)
        if request and request.runs:
            packed, _ = self._read_sidecar(context, request, stats, deadline)
            if packed is not None:
                return packed, request
        trapdoors = context.trapdoors_for_cell_ids(cells, fake_ids)
        request = None if self.oblivious else SlotRequest(cells, trapdoors)
        packed, _ = self._read_trapdoors(
            context, trapdoors, stats, deadline, cells=cells, request=request
        )
        return packed, request

    # The two fetch kinds, each one storage round-trip under the engine
    # lock; what they read is derived by the callers, outside it.

    def _read_sidecar(self, context, request, stats: QueryStats, deadline):
        with self._engine_lock:
            return context.fetch_packed(
                self.engine, request, stats, deadline=deadline, verify=self.verify
            )

    def _read_trapdoors(self, context, trapdoors, stats: QueryStats, deadline, **shape):
        with self._engine_lock:
            return context.fetch(
                self.engine, trapdoors, stats, deadline=deadline,
                verify=self.verify, **shape,
            )

    # Caller-less: kept only because the repo benchmark's span table
    # (benchmarks/e2e/spans.py, ENTRY_POINTS) names them.
    fetch_bin = fetch_bin_any
    fetch_bin_entry = fetch_entry_any

    def tree_meta(self, context):
        """The public shape of the epoch's tree sidecar (``None``: none)."""
        with self._engine_lock:
            return self.engine.fetch_agg_tree_meta(context.table_name)

    def tree_state(self, context):
        """The epoch's tree sidecar state (``EpochContext.tree_state``),
        whose first use per rewrite generation reads the engine."""
        with self._engine_lock:
            return context.tree_state(self.engine)

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
