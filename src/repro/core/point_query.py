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
  needs, and aggregate.

``oblivious=True`` selects the §4.3 Concealer+ variant: trapdoor
generation and filtering run on the data-independent code paths
(oblivious comparisons + bitonic sort), which the trace recorder can
certify produce identical event streams across queries.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.aggregation import evaluate_aggregate, needs_decryption
from repro.core.context import EpochContext
from repro.core.queries import (
    Aggregate,
    PointQuery,
    Predicate,
    QueryStats,
)
from repro.exceptions import QueryError


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
        # through its overlay → cache → storage step, always.
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

    def bins_for(
        self, query: PointQuery, context: EpochContext, cell_id: int | None = None
    ) -> list:
        """STEP 2 as a pure function: the bins this query will fetch.

        Shared with the batch planner so a plan can never disagree with
        what execution retrieves.
        """
        if cell_id is None:
            cell_id = context.grid.place_values(
                query.index_values, query.timestamp
            )
        chosen = context.layout.bin_of_cell_id(cell_id)
        if self.super_bin_count is None:
            return [chosen]
        layout = context.super_layout(self.super_bin_count)
        return [
            context.layout.bins[index]
            for index in layout.bins_to_fetch(chosen.index)
        ]

    def execute(
        self, query: PointQuery, context: EpochContext, deadline=None, overlay=None
    ) -> tuple[object, QueryStats]:
        """Run Algorithm 2; returns ``(answer, stats)``.

        ``deadline`` (a :class:`~repro.replication.deadline.Deadline`)
        bounds the whole execution; it is checked at every fetch and at
        every replica failover decision below.  ``overlay`` (a
        :class:`~repro.batching.fetcher.BatchOverlay`) serves bins the
        owning batch already fetched and verified.
        """
        stats = QueryStats(oblivious=self.oblivious)
        predicate = self._resolve_predicate(query, context)

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
            bins = self.bins_for(query, context, cell_id=cell_id)
            stats.bins_fetched = len(bins)
            query_span.set(bins=len(bins))

            # STEP 3: trapdoor formulation and retrieval.  Each bin
            # arrives packed (columnar) or scalar; the whole query runs
            # the vectorized STEP 4 only when every bin came packed —
            # a mixed batch unpacks to the legacy path (bit-identical
            # by the compat shim).
            payloads = [
                self.fetcher.fetch_bin_any(
                    context, fetch_bin, stats, deadline=deadline, overlay=overlay
                )
                for fetch_bin in bins
            ]
            packed_bins = [p for p in payloads if hasattr(p, "row_count")]
            if packed_bins and len(packed_bins) == len(payloads):
                return self._finish_packed(
                    query, context, bins, packed_bins, stats, predicate
                )
            rows = []
            for payload in payloads:
                rows.extend(
                    payload.unpack() if hasattr(payload, "row_count") else payload
                )

            # STEP 4: verification, filtering, aggregation.  The verify
            # is bound to the *requested* cell-ids: without the binding,
            # dropping every row of a population-1 cell leaves no
            # counter gap and would pass (per-cell chains prove each
            # present cell whole, not that the right cells are present).
            if self.verify and not stats.verified:
                expected = [cid for b in bins for cid in b.cell_ids]
                context.verify_rows(rows, expected)
                stats.verified = True

            filters = context.filters_for(predicate, [query.timestamp])
            with telemetry.span(
                "enclave.aggregate",
                stage="aggregate",
                epoch=context.epoch_id,
                filters=len(filters),
            ):
                if self.oblivious:
                    matched = context.match_rows_oblivious(
                        rows, filters, predicate.group, stats
                    )
                else:
                    matched = context.match_rows(
                        rows, filters, predicate.group, stats
                    )

                if query.aggregate is Aggregate.COUNT:
                    return len(matched), stats
                if not needs_decryption(query.aggregate):
                    raise QueryError(
                        f"unhandled match-only aggregate {query.aggregate}"
                    )
                records = context.decrypt_records(matched, stats)
                answer = evaluate_aggregate(
                    query.aggregate,
                    records,
                    context.schema,
                    query.target,
                    query.k,
                )
                return answer, stats

    def _finish_packed(
        self, query, context, bins, packed_bins, stats, predicate
    ) -> tuple[object, QueryStats]:
        """STEP 4 over packed bins: batched verify, vectorized filter.

        Same semantics (and byte-identical answers) as the scalar
        branch; per-row Python is gone — verification decodes index
        keys in one kernel batch, filtering is a single ``np.isin``,
        and only matched payloads hit the DET kernel.
        """
        if self.verify and not stats.verified:
            expected = [cid for b in bins for cid in b.cell_ids]
            context.verify_packed(packed_bins, expected)
            stats.verified = True
        filters = context.filters_for(predicate, [query.timestamp])
        with telemetry.span(
            "enclave.aggregate",
            stage="aggregate",
            epoch=context.epoch_id,
            filters=len(filters),
        ):
            mask = context.match_packed(
                packed_bins, filters, predicate.group, stats
            )
            if query.aggregate is Aggregate.COUNT:
                return int(mask.sum()), stats
            if not needs_decryption(query.aggregate):
                raise QueryError(
                    f"unhandled match-only aggregate {query.aggregate}"
                )
            records = context.decrypt_packed_records(packed_bins, mask, stats)
            answer = evaluate_aggregate(
                query.aggregate,
                records,
                context.schema,
                query.target,
                query.k,
            )
            return answer, stats

    @staticmethod
    def _resolve_predicate(query: PointQuery, context: EpochContext) -> Predicate:
        """Default predicate: match the first filter group on index values."""
        if query.predicate is not None:
            return query.predicate
        schema = context.schema
        for group in schema.filter_groups:
            if group == schema.index_attributes:
                return Predicate(group=group, values=tuple(query.index_values))
        group = schema.filter_groups[0]
        try:
            values = tuple(
                query.index_values[schema.index_attributes.index(attr)]
                for attr in group
            )
        except ValueError:
            raise QueryError(
                f"cannot derive a default predicate from group {group}; "
                "pass one explicitly"
            ) from None
        return Predicate(group=group, values=values)
