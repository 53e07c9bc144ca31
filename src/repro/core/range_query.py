"""Range-query execution (§5): multi-point BPB, eBPB, winSecRange.

Three methods with distinct cost/leakage trade-offs:

- :meth:`RangeExecutor.execute_multipoint` — the §5.1 *trivial*
  solution: decompose the range into its covering grid cells, take the
  cells' cell-ids, fetch every point-query bin containing any of them.
  Strong volume hiding (only whole fixed-size bins are fetched), but
  heavily over-fetches (Example 5.1 fetches 300 tuples where 150
  qualify).

- :meth:`RangeExecutor.execute_ebpb` — §5.2's *enhanced* method using
  the per-cell population counts: the retrieval budget ``bsize`` is the
  maximum, over all non-time grid columns, of the summed top-ℓ cell
  populations — so any ℓ-cell range fits.  The query fetches exactly
  its covering cells' cell-ids, padded with fakes to ``bsize``.  Faster
  than BPB, but Example 5.2.2 shows overlapping ranges leak — which is
  why the paper adds:

- :meth:`RangeExecutor.execute_winsecrange` — §5.3: time subintervals
  are grouped into fixed-λ windows; a query fetches the *entire*
  windows covering its range (every location), padded to the largest
  window's population.  Sliding a query window never changes what is
  fetched for a given window, killing the Example 5.2.2 attack, at the
  price of fetching far more rows (Exp 2: ~70K/400K rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro import telemetry
from repro.core.context import EpochContext
from repro.core.point_query import finish_query
from repro.core.queries import Aggregate, QueryStats, RangeQuery, resolve_predicate
from repro.exceptions import IntegrityViolation, QueryError


@dataclass
class _EBPBState:
    """Cached eBPB sizing, grown monotonically as queries widen (STEP 3).

    ``window_volumes`` holds, for every ``max_span``-subinterval window
    start, the per-column cell-id fetch volumes of that window sorted
    descending.  A query naming ``m`` candidate columns is budgeted at
    the *worst single window's* top-``m`` column sum — independent of
    which columns or which window the query actually names (volume
    hiding), yet far tighter than summing each column's individual
    worst window for all-location queries like Q2–Q4.
    """

    max_span: int = 0
    window_volumes: list[list[int]] = None  # type: ignore[assignment]
    # Deduplicated all-column volume per window: cell-ids shared between
    # columns (time-local allocation groups several columns under one
    # id) are fetched once, so any query's fetch is capped by this.
    window_totals: list[int] = None  # type: ignore[assignment]
    # combos → budget over the windows above (a grown state is a new one).
    budgets: dict[int, int] = field(default_factory=dict)

    def budget(self, combos: int) -> int:
        if combos in self.budgets:
            return self.budgets[combos]
        best = 0
        volumes = self.window_volumes or [[0]]
        totals = self.window_totals or [0] * len(volumes)
        for ordered, total in zip(volumes, totals):
            take = max(1, min(combos, len(ordered)))
            volume = sum(ordered[:take])
            if combos > len(ordered):
                volume += ordered[0] * (combos - len(ordered))
            best = max(best, min(volume, total))
        self.budgets[combos] = best
        return best


class RangeExecutor:
    """Executes range queries against one loaded epoch."""

    def __init__(
        self,
        fetcher,
        oblivious: bool = False,
        verify: bool = False,
        window_subintervals: int = 8,
    ):
        self.oblivious = oblivious
        self.verify = verify
        # λ for winSecRange, measured in grid time-subintervals.
        self.window_subintervals = window_subintervals
        # The shared whole-bin and tree-node fetch path (repro.batching),
        # used by the multipoint and tree methods — eBPB and winSecRange
        # retrieve padded cell-id sets, not whole bins, so they cannot
        # share and read its engine through the context directly.
        self.fetcher = fetcher

    def execute(
        self, method: str, query: RangeQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Run one of the §5 methods by name."""
        if method == "multipoint":
            return self.execute_multipoint(query, context, deadline=deadline)
        if method == "tree":
            return self.execute_tree(query, context, deadline=deadline)
        if method == "ebpb":
            return self.execute_ebpb(query, context, deadline=deadline)
        return self.execute_winsecrange(query, context, deadline=deadline)

    def _step4(self, query, context, bins, expected_cells, stats, requested=None):
        """Every §5 method ends in Algorithm 2's STEP 4, deduplicated
        (``requested`` as :func:`finish_query` takes it)."""
        return finish_query(
            query, context, bins, expected_cells,
            resolve_predicate(query, context.schema),
            context.query_timestamps(query.time_start, query.time_end),
            stats, verify=self.verify, oblivious=self.oblivious, dedup=True,
            requested=requested,
        )

    # ----------------------------------------------------------- §5.1 trivial

    def execute_multipoint(
        self, query: RangeQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Convert the range into point-query bins and fetch them all."""
        stats = QueryStats(oblivious=self.oblivious)
        needed_cids = context.grid.cell_ids_for_combinations(
            query.candidate_combinations(), query.time_start, query.time_end
        )
        bins = context.layout.bins_of_cell_ids(needed_cids)
        stats.bins_fetched = len(bins)
        with telemetry.span(
            "enclave.range_query",
            epoch=context.epoch_id,
            method="multipoint",
            bins=len(bins),
        ):
            fetched = [
                self.fetcher.fetch_bin_any(context, chosen, stats, deadline=deadline)
                for chosen in bins
            ]
            expected = [cid for chosen in bins for cid in chosen.cell_ids]
            return self._step4(query, context, fetched, expected, stats, requested=bins)

    # ------------------------------------------------------ aggregate tree

    # Aggregates a sealed tree node can answer directly.
    TREE_AGGREGATES = frozenset(
        {Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX}
    )

    @classmethod
    def tree_eligible(cls, query: RangeQuery, schema) -> bool:
        """Whether the query *shape* can be answered from tree nodes.

        Every rule is a pure function of public inputs (query shape and
        schema), never of data values — the planner must stay as public
        as ObliDB's:

        - the aggregate is decomposable (COUNT/SUM/MIN/MAX; COLLECT and
          TOP_K need the rows themselves);
        - a non-COUNT target is one the tree precomputed;
        - exactly one index-value combination (a wildcard sweep would
          need one entity per candidate — the bin path serves it);
        - no custom predicate, and the full index-attribute tuple is a
          filter group: the bin path then matches rows on the *exact*
          combination, so the tree — keyed by exact combination — is
          byte-equivalent even when grid cells collide.
        """
        from repro.core.aggtree import tree_targets

        if query.aggregate not in cls.TREE_AGGREGATES:
            return False
        if query.aggregate is not Aggregate.COUNT:
            if query.target not in tree_targets(schema):
                return False
        if len(query.candidate_combinations()) != 1:
            return False
        if query.predicate is not None:
            return False
        return schema.index_attributes in schema.filter_groups

    @classmethod
    def check_tree(cls, query: RangeQuery, schema, oblivious: bool) -> None:
        """Raise the typed :class:`QueryError` a ``"tree"`` request gets
        when the execution mode or the query shape rules the tree out."""
        if oblivious:
            # Concealer+'s identical-trace guarantee covers the scalar
            # trapdoor schedule only; a tree fetch would be a different
            # in-enclave event trace per range length.
            raise QueryError("tree path is unavailable under oblivious execution")
        if not cls.tree_eligible(query, schema):
            raise QueryError(
                "query shape is not tree-eligible (aggregate, target, "
                "wildcard, or predicate rules); use the bin path"
            )

    def execute_tree(
        self, query: RangeQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Answer a long-window aggregate from O(log range) tree nodes.

        The time range decomposes into a canonical cover of sealed
        aggregate nodes plus (at most two) leaf-granularity residues at
        the edges, which re-enter the multipoint bin path as ordinary
        sub-queries.  An absent sidecar, or a tampered node under
        ``verify=False`` policy, falls back to the bin path — the tree
        is an accelerator, never the sole source of truth.
        """
        self.check_tree(query, context.schema, self.oblivious)
        state = self.fetcher.tree_state(context)
        if state is None:
            return self.execute_multipoint(query, context, deadline=deadline)
        meta, directory = state

        from repro.core.aggtree import cover_nodes, decompose_range

        stats = QueryStats(oblivious=self.oblivious)
        span = decompose_range(
            context.epoch_id,
            context.grid.spec.epoch_duration,
            meta.leaf_count,
            query.time_start,
            query.time_end,
        )
        entity, present = context.tree_entity_for(
            meta, directory, tuple(query.index_values)
        )
        coords: list[tuple[int, int, int]] = []
        if span.full_buckets:
            coords = [
                (entity, level, index)
                for level, index in cover_nodes(
                    span.full_lo, span.full_hi, meta.fanout, meta.leaf_count
                )
            ]

        with telemetry.span(
            "enclave.range_query",
            epoch=context.epoch_id,
            method="tree",
            nodes=len(coords),
        ):
            decoded = []
            if coords:
                payload = self.fetcher.fetch_tree_nodes(
                    context, meta, coords, stats, deadline=deadline
                )
                if payload is None:
                    # Sidecar vanished between the meta read and the
                    # node read (mutation, sidecar-less replica): the
                    # bin path is authoritative.
                    return self.execute_multipoint(query, context, deadline=deadline)
                try:
                    decoded = context.decode_tree_nodes(meta, coords, payload)
                except IntegrityViolation:
                    if self.verify:
                        raise
                    # Policy without verification: never a silent wrong
                    # answer — re-answer from the hash-chained rows.
                    return self.execute_multipoint(query, context, deadline=deadline)
                if self.verify:
                    # Authenticated decode just succeeded over every
                    # fetched node — that *is* the verification.
                    stats.verified = True
            # Touched-node count is a pure function of the public range
            # decomposition — identical cold or warm, hit or miss.
            telemetry.counter(
                "concealer_tree_nodes_fetched_total",
                "aggregate-tree nodes touched by tree-path range queries",
                secrecy=telemetry.PUBLIC_SIZE,
            ).inc(len(coords))
            stats.extra["tree_nodes_fetched"] = len(coords)

            if present:
                tree_count = sum(count for count, _ in decoded)
                parts = [aggs for count, aggs in decoded if count > 0]
            else:
                # Decoy entity: the fetch happened (volume hiding) but
                # the absent combination holds no records — its decoded
                # values belong to some other combination (or padding)
                # and must not contribute to the answer.
                tree_count = 0
                parts = []

            sub_answers = []
            for residue_start, residue_end in span.residues:
                sub_query = replace(
                    query, time_start=residue_start, time_end=residue_end
                )
                sub_answer, sub_stats = self.execute_multipoint(
                    sub_query, context, deadline=deadline
                )
                sub_answers.append(sub_answer)
                stats.add(sub_stats)
                stats.verified = stats.verified or sub_stats.verified

            if query.aggregate is Aggregate.COUNT:
                return tree_count + sum(sub_answers), stats

            target_pos = meta.targets.index(query.target)
            values = []
            if parts:
                if query.aggregate is Aggregate.SUM:
                    values.append(sum(a[target_pos][0] for a in parts))
                elif query.aggregate is Aggregate.MIN:
                    values.append(min(a[target_pos][1] for a in parts))
                else:
                    values.append(max(a[target_pos][2] for a in parts))
            values.extend(v for v in sub_answers if v is not None)
            if not values:
                return None, stats
            if query.aggregate is Aggregate.SUM:
                return sum(values), stats
            if query.aggregate is Aggregate.MIN:
                return min(values), stats
            return max(values), stats

    # -------------------------------------------------------------- §5.2 eBPB

    def execute_ebpb(
        self, query: RangeQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Fetch the covering cells' cell-ids, padded to the top-ℓ budget."""
        stats = QueryStats(oblivious=self.oblivious)
        combos = query.candidate_combinations()
        span = len(
            context.grid.time_buckets_for_range(query.time_start, query.time_end)
        )

        state = self._ebpb_budget(context, span)
        needed_cids = context.grid.cell_ids_for_combinations(
            combos, query.time_start, query.time_end
        )

        real_volume = sum(context.c_tuple[cid] for cid in needed_cids)
        budget = state.budget(len(combos))
        fake_ids = self._pad_fakes(context, max(0, budget - real_volume))
        stats.extra["ebpb_budget"] = budget
        stats.extra["ebpb_real_volume"] = real_volume
        stats.bins_fetched = len(combos)
        # The budget is a pure function of the epoch metadata and the
        # query's public shape (candidate count, span) — public-size.
        telemetry.gauge(
            "concealer_ebpb_budget_rows",
            "current eBPB retrieval budget (rows per fetch)",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(budget)

        with telemetry.span(
            "enclave.range_query",
            epoch=context.epoch_id,
            method="ebpb",
            budget=budget,
        ):
            packed, request = self.fetcher.fetch_slots(
                context, needed_cids, fake_ids, stats, deadline
            )
            return self._step4(query, context, [packed], needed_cids, stats, [request])

    def _ebpb_budget(self, context: EpochContext, span: int) -> _EBPBState:
        """STEP 2–3: per-column worst-case volumes for ℓ-window queries.

        The paper sizes eBPB bins as the maximum, over grid columns, of
        the top-ℓ cell populations.  Retrieval, however, happens at
        *cell-id* granularity (a trapdoor fetches every tuple of a
        cell-id, which may span several cells), so for the fetch volume
        to be constant the budget must be computed the same way the
        fetch is: for every (column, ℓ-window start), take the distinct
        cell-ids covering the window's cells and sum their populations.
        The per-column maxima are kept sorted so multi-column queries
        (Q2–Q4 sweep every location) are budgeted at the sum of the top
        ``m`` columns rather than ``m ×`` the single worst column.

        Cached on the context — so it dies with it, and a context
        rebuilt for another epoch can never inherit it — and grown
        monotonically: recomputed only when a query spans more cells
        than any previous one (paper's STEP 3 rule).
        """
        state = context.range_sizing.setdefault("ebpb", _EBPBState())
        if state.window_volumes is not None and span <= state.max_span:
            return state
        grid = context.grid
        spec = grid.spec
        time_axis = spec.dimension_sizes[-1]
        prefix_cells = spec.total_cells // time_axis
        buckets = spec.time_buckets
        coords = [grid.time_axis_coord(bucket) for bucket in range(buckets)]
        cid_vector = context.cell_id_vector
        window_volumes: list[list[int]] = []
        window_totals: list[int] = []
        for start in range(max(1, buckets - span + 1)):
            window_buckets = range(start, min(start + span, buckets))
            per_column: list[int] = []
            all_cids: set[int] = set()
            for prefix in range(prefix_cells):
                base = prefix * time_axis
                cids = {cid_vector[base + coords[bucket]] for bucket in window_buckets}
                per_column.append(sum(context.c_tuple[cid] for cid in cids))
                all_cids |= cids
            per_column.sort(reverse=True)
            window_volumes.append(per_column)
            window_totals.append(sum(context.c_tuple[cid] for cid in all_cids))
        state = _EBPBState(span, window_volumes, window_totals)
        context.range_sizing["ebpb"] = state
        return state

    # ------------------------------------------------------ §5.3 winSecRange

    def execute_winsecrange(
        self, query: RangeQuery, context: EpochContext, deadline=None
    ) -> tuple[object, QueryStats]:
        """Fetch whole fixed-λ time windows covering the range."""
        stats = QueryStats(oblivious=self.oblivious)
        windows = self._covering_windows(query, context)
        window_size = self._window_budget(context)

        with telemetry.span(
            "enclave.range_query",
            epoch=context.epoch_id,
            method="winsecrange",
            windows=len(windows),
        ):
            fetched, requested = [], []
            fake_offset = 0
            expected: list[int] = []
            for window in windows:
                cids = self._window_cell_ids(context, window)
                expected.extend(cids)
                real_volume = sum(context.c_tuple[cid] for cid in cids)
                fake_ids = self._pad_fakes(
                    context, max(0, window_size - real_volume), offset=fake_offset
                )
                fake_offset += len(fake_ids)
                packed, request = self.fetcher.fetch_slots(context, cids, fake_ids, stats, deadline)
                fetched.append(packed)
                requested.append(request)
            stats.bins_fetched = len(windows)
            stats.extra["window_size"] = window_size
            return self._step4(query, context, fetched, expected, stats, requested)

    def _covering_windows(self, query: RangeQuery, context: EpochContext) -> list[int]:
        """The λ-window indices intersecting the query's time range."""
        buckets = context.grid.time_buckets_for_range(
            query.time_start, query.time_end
        )
        lam = self.window_subintervals
        return sorted({bucket // lam for bucket in buckets})

    def _window_cell_ids(self, context: EpochContext, window: int) -> list[int]:
        """Distinct cell-ids of every cell (all columns) in one window.

        The window covers subinterval *indices*; each index hashes to a
        time-axis coordinate, and the window spans all non-time columns.
        """
        grid = context.grid
        spec = grid.spec
        time_axis_size = spec.dimension_sizes[-1]
        prefix_cells = spec.total_cells // time_axis_size
        lam = self.window_subintervals
        first = window * lam
        buckets = range(first, min(first + lam, spec.time_buckets))
        time_coords = {grid.time_axis_coord(bucket) for bucket in buckets}
        cids: list[int] = []
        for prefix in range(prefix_cells):
            for coord in time_coords:
                flat = prefix * time_axis_size + coord
                cid = grid.cell_id_of(flat)
                if cid not in cids:
                    cids.append(cid)
        return cids

    def _window_budget(self, context: EpochContext) -> int:
        """Bin size = the maximum population over all λ-windows."""
        lam = self.window_subintervals
        sizing = context.range_sizing
        if ("winsec", lam) not in sizing:
            window_count = math.ceil(context.grid.spec.time_buckets / lam)
            best = 0
            for window in range(window_count):
                cids = self._window_cell_ids(context, window)
                best = max(best, sum(context.c_tuple[cid] for cid in cids))
            sizing[("winsec", lam)] = best
        return sizing[("winsec", lam)]

    # ---------------------------------------------------------------- shared

    def _pad_fakes(
        self, context: EpochContext, needed: int, offset: int = 0
    ) -> list[int]:
        """Fake ids to pad a fetch to its constant budget.

        ``offset`` rotates through the shipped fake pool so successive
        fetches (adjacent winSecRange windows) use disjoint fakes where
        the pool allows — Example 4.1's argument for disjoint padding.
        When ``needed`` exceeds the pool, ids cycle: the fetch volume
        stays constant (the security property), at the cost of visibly
        repeated fake fetches.  Providers that expect heavy range use
        should ship ``FakeStrategy.EQUAL`` pools (one fake per real
        row), which Theorem 4.1 shows is always sufficient.
        """
        available = context.fake_pool_size
        if needed <= 0 or available == 0:
            return []
        return [1 + (offset + i) % available for i in range(needed)]
