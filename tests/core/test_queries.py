"""Tests for the query model."""

import pytest

from repro.core.queries import (
    Aggregate,
    MATCH_ONLY_AGGREGATES,
    PointQuery,
    Predicate,
    QueryStats,
    RangeQuery,
)
from repro.exceptions import QueryError


class TestPredicate:
    def test_arity_enforced(self):
        with pytest.raises(QueryError):
            Predicate(group=("location", "observation"), values=("ap1",))

    def test_valid(self):
        predicate = Predicate(group=("location",), values=("ap1",))
        assert predicate.values == ("ap1",)

    def test_empty_wildcard_slot_rejected(self):
        with pytest.raises(QueryError, match="at least one candidate"):
            Predicate(group=("location",), values=((),))


class TestPointQuery:
    def test_defaults(self):
        query = PointQuery(index_values=("ap1",), timestamp=5)
        assert query.aggregate is Aggregate.COUNT
        assert query.predicate is None

    def test_target_required_for_sum(self):
        with pytest.raises(QueryError):
            PointQuery(index_values=("a",), timestamp=0, aggregate=Aggregate.SUM)

    def test_target_required_for_topk(self):
        with pytest.raises(QueryError):
            PointQuery(index_values=("a",), timestamp=0, aggregate=Aggregate.TOP_K)

    def test_count_is_match_only(self):
        assert Aggregate.COUNT in MATCH_ONLY_AGGREGATES
        assert Aggregate.SUM not in MATCH_ONLY_AGGREGATES


class TestRangeQuery:
    def test_reversed_range_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery(index_values=("a",), time_start=10, time_end=5)

    def test_single_point_range_allowed(self):
        RangeQuery(index_values=("a",), time_start=5, time_end=5)

    @pytest.mark.parametrize("slots", [((),), ([],), ("a", ()), (("a",), [])])
    def test_empty_wildcard_slot_rejected(self, slots):
        with pytest.raises(QueryError, match="at least one candidate"):
            RangeQuery(index_values=slots, time_start=0, time_end=1)

    def test_candidate_combinations_scalar(self):
        query = RangeQuery(index_values=("a",), time_start=0, time_end=1)
        assert query.candidate_combinations() == [("a",)]

    def test_candidate_combinations_wildcard(self):
        query = RangeQuery(index_values=(("a", "b"),), time_start=0, time_end=1)
        assert query.candidate_combinations() == [("a",), ("b",)]

    def test_candidate_combinations_cross_product(self):
        query = RangeQuery(
            index_values=(("a", "b"), 1, ("x", "y")), time_start=0, time_end=1
        )
        combos = query.candidate_combinations()
        assert len(combos) == 4
        assert ("a", 1, "x") in combos
        assert ("b", 1, "y") in combos


class TestStats:
    def test_defaults(self):
        stats = QueryStats()
        assert stats.rows_fetched == 0
        assert not stats.verified
        assert stats.extra == {}

    def test_extra_is_per_instance(self):
        a, b = QueryStats(), QueryStats()
        a.extra["k"] = 1
        assert "k" not in b.extra

    def test_every_count_is_summed_by_every_merge(self):
        """A residue sub-query's and a shard's counts all reach the
        whole: found by introspection, so a counter added to
        ``QueryStats`` cannot silently drop out of either merge."""
        import dataclasses

        from repro.sharding.results import merged_stats

        counts = [
            field.name
            for field in dataclasses.fields(QueryStats)
            if field.type in (int, "int")
        ]
        assert {"rows_fetched", "bins_fetched"} <= set(counts)
        parts = [
            QueryStats(**{name: 10 * index + position + 1
                          for position, name in enumerate(counts)})
            for index in range(3)
        ]
        whole = QueryStats()
        for part in parts:
            whole.add(part)
        merged = merged_stats(dict(enumerate(parts)))
        for name in counts:
            expected = sum(getattr(part, name) for part in parts)
            assert getattr(whole, name) == expected, name
            assert getattr(merged, name) == expected, name

    def test_add_keeps_degraded_and_leaves_the_flags_to_the_caller(self):
        whole = QueryStats()
        whole.add(QueryStats(degraded=True, verified=True, oblivious=True))
        assert whole.degraded
        assert not whole.verified and not whole.oblivious
