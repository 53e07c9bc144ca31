"""Algorithm 2: bin-packing-based (BPB) point-query execution.

The four steps, run inside the enclave:

- **STEP 0** bins exist (built once per epoch by the
  :class:`~repro.core.context.EpochContext`);
- **STEP 1** hash the query's index values and timestamp to a grid
  cell and read its cell-id from ``cell_id[]``;
- **STEP 2** find the bin containing that cell-id;
- **STEP 3** formulate one DET trapdoor per (cell-id, counter) of the
  bin plus the bin's fake-tuple trapdoors — exactly ``|b|`` trapdoors
  no matter which bin, which is the volume-hiding guarantee;
- **STEP 4** optionally verify hash chains, string-match the fetched
  rows against the query filters, decrypt only what the aggregate
  needs, and aggregate — :func:`finish_query`, which §5's range methods
  end in as well.

``oblivious=True`` selects the §4.3 Concealer+ variant: trapdoor
generation and filtering run on the data-independent code paths
(oblivious comparisons + bitonic sort), which the trace recorder can
certify produce identical event streams across queries.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import telemetry
from repro.core.aggregation import evaluate_aggregate, needs_decryption
from repro.core.binning import Bin
from repro.core.context import EpochContext, RunRequest, SlotRequest
from repro.core.packed import PackedBin
from repro.core.queries import (
    PointQuery,
    Predicate,
    QueryStats,
    RangeQuery,
    resolve_predicate,
)


def finish_query(
    query: PointQuery | RangeQuery,
    context: EpochContext,
    bins: Sequence[PackedBin],
    expected_cells: Sequence[int],
    predicate: Predicate,
    timestamps: Sequence[int],
    stats: QueryStats,
    *,
    verify: bool,
    oblivious: bool,
    dedup: bool,
    requested: Sequence[Bin | SlotRequest | RunRequest] | None = None,
) -> tuple[object, QueryStats]:
    """STEP 4, once, for every method: dedup → verify → filter →
    decrypt → aggregate over the fetched batch.

    ``dedup`` drops all but the first occurrence of a row before
    anything else looks at it: winSecRange windows (and, with coarse
    grids, eBPB cell-id unions) can fetch the same row more than once,
    and matching must not double-count it, so every range method
    dedups.  A point query names disjoint bins and does not — a
    duplicated row there is the host's doing and verification reports
    it as a counter gap.

    Verification is bound to ``expected_cells``, the cell-ids the query
    *requested*: a per-cell hash chain only proves the cells present in
    the batch are whole, so a host dropping every row of a population-1
    cell would otherwise leave no counter gap to find.  ``requested``,
    the slot request each batch was fetched by (a whole bin, or a
    trapdoor list), lets it go by request.
    A batch verified at fetch time (``stats.verified``: per replica
    attempt, or before it became reusable) is not checked twice.  Only
    the rows verification found real are filtered and decrypted: a fake
    slot's cells are under no tag, so a host could fill them.

    ``oblivious`` selects §4.3's filter — Concealer+ compares every row
    against every filter and bitonic-sorts the matches forward, row at
    a time by construction — over a row view of the same batch.
    """
    import numpy as np

    keep = context.packed_dedup_keep(bins) if dedup else None
    real = None
    if verify:
        masks = [packed.real_rows for packed in bins]
        if stats.verified and all(mask is not None for mask in masks):
            real = np.concatenate(masks)
        else:
            # The oblivious schedule's order is the bitonic sort's; the
            # path a batch takes hangs on the method, never on the data.
            requested = None if oblivious else requested
            real = context.verify_packed(bins, expected_cells, keep=keep, requested=requested)
            stats.verified = True
    filters = context.filters_for(predicate, timestamps)
    with telemetry.span(
        "enclave.aggregate",
        stage="aggregate",
        epoch=context.epoch_id,
        filters=len(filters),
    ):
        if oblivious:
            rows = [row for packed in bins for row in packed]
            if keep is not None:
                rows = [row for row, kept in zip(rows, keep) if kept]
                real = None if real is None else real[keep]
            matched = context.match_rows_oblivious(
                rows, filters, predicate.group, stats, real=real
            )
            count = len(matched)
            decrypt = lambda: context.decrypt_records(matched, stats)
        else:
            if real is not None:
                keep = real if keep is None else keep & real
            mask = context.match_packed(
                bins, filters, predicate.group, stats, keep=keep
            )
            count = int(mask.sum())
            decrypt = lambda: context.decrypt_packed_records(bins, mask, stats)
        if not needs_decryption(query.aggregate):
            return count, stats
        answer = evaluate_aggregate(
            query.aggregate, decrypt(), context.schema, query.target, query.k
        )
        return answer, stats


class BPBExecutor:
    """Executes point queries against one loaded epoch."""

    def __init__(
        self,
        fetcher,
        oblivious: bool = False,
        verify: bool = False,
        super_bin_count: int | None = None,
        quarantine=None,
    ):
        # The shared whole-bin fetch path (repro.batching): STEP 3 goes
        # through it.
        self.fetcher = fetcher
        self.oblivious = oblivious
        self.verify = verify
        # §8: when set, a query fetches its bin's whole super-bin so
        # that retrieval frequencies stay uniform under uniform query
        # workloads (at f-fold fetch cost).
        self.super_bin_count = super_bin_count
        # Optional QuarantineLog: cells with standing integrity
        # violations fail fast instead of serving suspect answers.
        self.quarantine = quarantine

    def execute(
        self, query: PointQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Run Algorithm 2; returns ``(answer, stats)``.

        ``deadline`` (a :class:`~repro.replication.deadline.Deadline`)
        bounds the whole execution; it is checked at every fetch and at
        every replica failover decision below.
        """
        stats = QueryStats(oblivious=self.oblivious)
        predicate = resolve_predicate(query, context.schema)

        with telemetry.span(
            "enclave.point_query", epoch=context.epoch_id
        ) as query_span:
            # STEP 1: cell identification.
            cell_id = context.grid.place_values(
                query.index_values, query.timestamp
            )
            if self.quarantine is not None:
                self.quarantine.check(context.epoch_id, cell_id)

            # STEP 2: bin identification (plus §8 super-bin expansion).
            bins = [context.layout.bin_of_cell_id(cell_id)]
            if self.super_bin_count is not None:
                layout = context.super_layout(self.super_bin_count)
                bins = [
                    context.layout.bins[index]
                    for index in layout.bins_to_fetch(bins[0].index)
                ]
            stats.bins_fetched = len(bins)
            query_span.set(bins=len(bins))

            # STEP 3: trapdoor formulation and retrieval; whichever
            # fetch kind served a bin, it arrives packed.
            fetched = [
                self.fetcher.fetch_bin_any(context, fetch_bin, stats, deadline=deadline)
                for fetch_bin in bins
            ]
            return finish_query(
                query, context, fetched,
                [cid for fetch_bin in bins for cid in fetch_bin.cell_ids],
                predicate, [query.timestamp], stats,
                verify=self.verify, oblivious=self.oblivious, dedup=False, requested=bins,
            )
