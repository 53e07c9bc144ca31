"""The batch planner: queries → deduplicated whole-bin fetch units.

A batch is a sequence of :class:`PointQuery` / :class:`RangeQuery`
objects (a range may be wrapped as ``(query, method)`` to pin its §5
method).  The planner resolves every query to its epoch context and —
for the *shareable* methods — to the exact set of whole bins its
executor would fetch, then deduplicates those bins into one ordered
fetch plan.

Shareable means the method retrieves whole bins, the public retrieval
unit: BPB point queries (including §8 super-bin expansion) and the
§5.1 multipoint range method.  eBPB and winSecRange fetch padded
cell-id sets / λ-windows — not bins — and run "direct", as does the
aggregate-tree method (its nodes are their own retrieval unit) and
every query under oblivious (§4.3) execution,
whose trace-identity guarantee forbids history-dependent reuse.

The planner reuses the executors' own bin-resolution code
(``BPBExecutor.bins_for`` / ``RangeExecutor.multipoint_bins``), so the
plan can never disagree with what execution actually fetches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.queries import PointQuery, RangeQuery
from repro.exceptions import QueryError


@dataclass(frozen=True)
class PlannedQuery:
    """One batch member, resolved to its epoch and execution method."""

    position: int
    kind: str              # "point" | "range"
    query: object
    method: str            # "bpb" | "multipoint" | "ebpb" | "winsecrange" | "tree"
    epoch_id: int
    shared: bool           # True iff served through the shared-bin overlay


@dataclass
class BatchPlan:
    """The deduplicated fetch plan for one batch."""

    items: list[PlannedQuery] = field(default_factory=list)
    # Deduplicated (context, bin) fetch units in first-reference order —
    # a deterministic function of the batch, so runs replay.
    units: list[tuple] = field(default_factory=list)
    # Whole-bin references before deduplication; units after.  Their
    # ratio is the batch's overlap (dedup) factor.
    bin_references: int = 0

    @property
    def dedup_factor(self) -> float:
        """References per unique bin (≥ 1.0; 1.0 = no overlap)."""
        if not self.units:
            return 1.0
        return self.bin_references / len(self.units)


class QueryBatcher:
    """Plans batches for one :class:`ServiceProvider`."""

    def __init__(self, service):
        self.service = service

    def plan(self, queries, epoch_id: int | None = None) -> BatchPlan:
        """Resolve and deduplicate; raises on malformed members."""
        service = self.service
        plan = BatchPlan()
        units: OrderedDict[tuple[str, int], tuple] = OrderedDict()
        for position, item in enumerate(queries):
            query, method = self._normalize(item)
            if isinstance(query, PointQuery):
                kind = "point"
                eid = (
                    epoch_id if epoch_id is not None
                    else service._epoch_of(query.timestamp)
                )
            else:
                kind = "range"
                eid = (
                    epoch_id if epoch_id is not None
                    else service._epoch_of(query.time_start)
                )
                if epoch_id is None and service._epoch_of(query.time_end) != eid:
                    raise QueryError(
                        "range spans multiple epochs; use DynamicConcealer (§6)"
                    )
            context = service.context_for(eid)
            if kind == "range" and method == "auto":
                method = service.choose_range_method(query, context)
            shared = not service.config.oblivious and (
                kind == "point" or method == "multipoint"
            )
            if shared:
                if kind == "point":
                    bins = service._point_executor.bins_for(query, context)
                else:
                    bins = service._range_executor.multipoint_bins(query, context)
                plan.bin_references += len(bins)
                for fetch_bin in bins:
                    units.setdefault(
                        (context.table_name, fetch_bin.index),
                        (context, fetch_bin),
                    )
            plan.items.append(
                PlannedQuery(
                    position=position,
                    kind=kind,
                    query=query,
                    method=method,
                    epoch_id=eid,
                    shared=shared,
                )
            )
        plan.units = list(units.values())
        return plan

    @staticmethod
    def _normalize(item) -> tuple[object, str]:
        """Accept ``PointQuery``, ``RangeQuery``, or ``(RangeQuery, method)``."""
        from repro.core.service import RANGE_METHODS

        if isinstance(item, PointQuery):
            return item, "bpb"
        if isinstance(item, RangeQuery):
            return item, "ebpb"
        if (
            isinstance(item, tuple)
            and len(item) == 2
            and isinstance(item[0], RangeQuery)
        ):
            query, method = item
            if method not in RANGE_METHODS:
                raise QueryError(
                    f"unknown range method {method!r}; choose from {RANGE_METHODS}"
                )
            return query, method
        raise QueryError(
            f"batch member {item!r} is neither a PointQuery, a RangeQuery, "
            "nor a (RangeQuery, method) pair"
        )
