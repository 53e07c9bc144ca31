"""The shared whole-bin fetch path: executor → storage.

Both the BPB point executor and the multipoint range executor retrieve
*whole bins* (Theorem 4.1's fixed-size public retrieval unit), and the
eBPB and winSecRange executors padded cell-id sets; the
:class:`BinFetcher` centralises those reads.  Nothing outlives a
request: every query's bins reach storage, so what the host sees never
depends on earlier queries.

A bin reaches the enclave by one of two fetch kinds — the engine's
sealed columnar sidecar read whole, or rows pulled by trapdoor and
packed at the fetch boundary — and is a
:class:`~repro.core.packed.PackedBin` from there on (DESIGN.md §16).
Which kind runs is decided by what the engine holds and what the
method needs, never by an option: the sidecar when there is one (a
landed, restored, repaired or rotated table keeps its sealed bins),
trapdoors when there is not (any row mutation, a §6 rewrite's
included, drops a table's bins; a package may ship without them) and
always under oblivious execution, whose guarantee covers the trapdoor
schedule only.  The fetcher always asks
:class:`~repro.core.context.EpochContext` to verify, whose fetch shell
reports whether the engine — a replica group — could do so on every
replica attempt (DESIGN.md §9, *Verified read*); a bin from a plain
engine comes back unverified, and the executor verifies the whole
request at the end of the query.
"""

from __future__ import annotations

import threading

from repro.core.context import SlotRequest
from repro.core.queries import QueryStats


class BinFetcher:
    """Fetches bins and slot sets for the executors, one storage
    round-trip at a time."""

    def __init__(self, engine, oblivious=False, verify=False):
        self.engine = engine
        self.oblivious = oblivious
        self.verify = verify
        # Engines (and their access logs / breakers) are not reentrant,
        # and nothing stops two threads from calling one service at
        # once (a fleet serialises them on its shard lock, a direct
        # caller need not): the storage round-trip runs under this
        # lock, trapdoor derivation and verification outside it.
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------ query path

    def fetch_bin_any(self, context, fetch_bin, stats: QueryStats, deadline=None):
        """Retrieve one whole bin, packed."""
        return self.fetch_entry_any(context, fetch_bin, stats, deadline)[0]

    def fetch_entry_any(
        self, context, fetch_bin, stats: QueryStats, deadline=None
    ) -> tuple[object, bool]:
        """One bin's fetch, by whichever fetch kind the engine can
        serve; returns ``(packed, verified)``."""
        if not self.oblivious:
            packed, verified = self._read_sidecar(context, fetch_bin, stats, deadline)
            if packed is not None:
                return packed, verified
            trapdoors = context.trapdoors_for_bin(fetch_bin)
        else:
            # Oblivious execution always takes the trapdoor schedule,
            # and hands back the bin bitonic-sorted, not in slot order.
            trapdoors = context.oblivious_trapdoors_for_bin(fetch_bin)
        return self._read_trapdoors(
            context, trapdoors, stats, deadline, cells=fetch_bin.cell_ids,
            bin_index=fetch_bin.index, request=None if self.oblivious else fetch_bin,
        )

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
