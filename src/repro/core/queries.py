"""Query model: aggregations over point and range predicates (Table 4).

Concealer deliberately supports a *limited* query surface (§1, R3):
aggregations — count, sum, min/max, average, top-k — over selections on
index attributes and time ranges.  This module defines the immutable
query objects the client sends (encrypted) to the service provider.

Filter predicates are separate from grid placement.  A query like
Table 4's Q4 ("which locations saw observation ``o_i`` between
``t_1..t_x``") grids by *location* but filters by *observation*: its
``index_values`` enumerate all candidate locations while its
``predicate`` string-matches the observation filter column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

from repro.exceptions import QueryError


class Aggregate(str, Enum):
    """The aggregation operators of §2.2 Phase 2.

    ``DISTINCT_COUNT`` implements the intro's "count of distinct
    visitors to a region" application: the number of different values
    of the target attribute among the matching rows.
    """

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    TOP_K = "top_k"
    DISTINCT_COUNT = "distinct_count"
    COLLECT = "collect"  # return matching (decrypted) records


# Aggregates that can be answered by string-matching filter ciphertexts
# alone — no payload decryption needed (Table 4: "No decryption needed";
# Exp 8 shows count queries ~36-40% faster for this reason).
MATCH_ONLY_AGGREGATES = frozenset({Aggregate.COUNT})


def _cross_product(slots) -> list[tuple]:
    """Every concrete tuple of a slot list whose tuple/list slots are
    wildcards (sets of candidate values)."""
    combos: list[list] = [[]]
    for slot in slots:
        options = list(slot) if isinstance(slot, (tuple, list)) else [slot]
        combos = [prefix + [opt] for prefix in combos for opt in options]
    return [tuple(c) for c in combos]


def _check_slots(slots) -> None:
    """Refuse a wildcard slot with no candidates: the query would match
    nothing, and the read paths disagree on what nothing means."""
    if any(isinstance(slot, (tuple, list)) and not slot for slot in slots):
        raise QueryError("a wildcard slot needs at least one candidate value")


@dataclass(frozen=True)
class Predicate:
    """A filter-column match: which group, and the non-time values.

    ``group`` must be one of the schema's ``filter_groups``; ``values``
    are the group's non-time attribute values in group order.  The
    executor expands the predicate into per-timestamp DET filters.
    """

    group: tuple[str, ...]
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.group):
            raise QueryError(
                f"predicate on group {self.group} needs {len(self.group)} "
                f"values, got {len(self.values)}"
            )
        _check_slots(self.values)

    def combinations(self) -> list[tuple]:
        """The concrete value tuples this predicate matches: wildcard
        slots (Q2/Q3 "all locations") expand to their cross-product,
        mirroring Table 4's Q2 filters ``E_k(l_i|t_j)`` over the full
        location domain."""
        return _cross_product(self.values)


@dataclass(frozen=True)
class PointQuery:
    """An aggregation at one (index-values, timestamp) point.

    ``index_values`` are concrete values for every index attribute of
    the schema, in schema order — they drive grid-cell identification
    (STEP 1 of Algorithm 2).  ``predicate`` defaults to matching the
    first filter group on the index values.
    """

    index_values: tuple
    timestamp: int
    aggregate: Aggregate = Aggregate.COUNT
    predicate: Predicate | None = None
    target: str | None = None
    k: int = 1

    def __post_init__(self):
        _check_aggregate(self.aggregate, self.target)


@dataclass(frozen=True)
class RangeQuery:
    """An aggregation over a closed time range ``[time_start, time_end]``.

    Each slot of ``index_values`` is either a concrete value or a tuple
    of candidate values (Q2/Q3/Q4 span *all* locations: pass the full
    location domain).  The executor forms the cross-product of
    candidates when identifying cells.
    """

    index_values: tuple
    time_start: int
    time_end: int
    aggregate: Aggregate = Aggregate.COUNT
    predicate: Predicate | None = None
    target: str | None = None
    k: int = 1

    def __post_init__(self):
        if self.time_end < self.time_start:
            raise QueryError("range end precedes start")
        _check_slots(self.index_values)
        _check_aggregate(self.aggregate, self.target)

    def candidate_combinations(self) -> list[tuple]:
        """Expand wildcard slots into the concrete index-value tuples."""
        return _cross_product(self.index_values)


def resolve_predicate(query: "PointQuery | RangeQuery", schema) -> Predicate:
    """The query's predicate, defaulting to a match of the index values
    on the filter group that covers them (else the first group)."""
    if query.predicate is not None:
        return query.predicate
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


def _check_aggregate(aggregate: Aggregate, target: str | None) -> None:
    needs_target = aggregate in (
        Aggregate.SUM,
        Aggregate.MIN,
        Aggregate.MAX,
        Aggregate.AVG,
        Aggregate.TOP_K,
        Aggregate.DISTINCT_COUNT,
    )
    if needs_target and target is None:
        raise QueryError(f"aggregate {aggregate.value} requires a target attribute")


def check_against_schema(query: "PointQuery | RangeQuery", schema) -> None:
    """Raise the typed :class:`QueryError` execution would raise for a
    query the public schema alone shows is malformed: an unknown target
    of a decrypting aggregate, or a predicate on a group the schema
    does not store.  Lets a router refuse it before any dispatch."""
    if query.aggregate not in (Aggregate.COUNT, Aggregate.COLLECT):
        schema.position(query.target)
    predicate = query.predicate
    if predicate is not None and predicate.group not in schema.filter_groups:
        raise QueryError(
            f"schema {schema.name!r} has no filter group {predicate.group}"
        )


@dataclass
class QueryStats:
    """Execution-side accounting a benchmark or test can inspect.

    ``rows_fetched`` is the adversary-observable volume; the *_matched
    counts are enclave-internal.
    """

    trapdoors_generated: int = 0
    rows_fetched: int = 0
    rows_matched: int = 0
    rows_decrypted: int = 0
    bins_fetched: int = 0
    verified: bool = False
    oblivious: bool = False
    # Replication health of the serving read path: how many replica
    # failovers the query absorbed, and whether it was served below the
    # healthy-replica threshold.  Both are public-size (fault-driven).
    degraded: bool = False
    failovers: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, other: "QueryStats") -> None:
        """Fold a part's accounting (a residue sub-query, a shard) into
        this one: every count adds and ``degraded`` sticks.  Whether
        the whole is ``verified`` or ``oblivious`` is the caller's rule."""
        for name in _COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.degraded = self.degraded or other.degraded


_COUNTS = tuple(f.name for f in fields(QueryStats) if f.type == "int")
