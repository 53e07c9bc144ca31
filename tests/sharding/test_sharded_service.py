"""The scatter-gather core: routing, merging, isolation, re-admission."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.queries import Aggregate, Predicate, PointQuery, RangeQuery
from repro.exceptions import (
    NoHealthyShard,
    QueryError,
    RouterFenced,
    ShardMisrouted,
    ShardUnavailable,
)
from repro.core.service import RANGE_METHODS
from repro.sharding.results import PartialResult
from repro.sharding.service import merge_answers
from tests.sharding.conftest import (
    EPOCH_DURATION,
    LOCATIONS,
    TIME_STEP,
    make_fleet,
    truth,
)

WILDCARD = (LOCATIONS,)  # one slot spanning every location → every shard


class TestRouting:
    def test_point_query_routes_to_the_owning_shard(self, fleet):
        _, sharded, records = fleet
        location, timestamp, _ = records[0]
        expected = truth(records, location, timestamp, timestamp)
        answer, stats = sharded.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert answer == expected
        assert len(stats.per_shard) == 1
        assert stats.verified_shards == tuple(stats.per_shard)
        assert stats.missing_shards == ()

    def test_range_query_scatters_and_merges_exactly(self, fleet):
        _, sharded, records = fleet
        expected = truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        answer, stats = sharded.execute_range(
            RangeQuery(
                index_values=WILDCARD,
                time_start=0,
                time_end=EPOCH_DURATION - 1,
            )
        )
        assert answer == expected
        assert stats.verified_shards == (0, 1)
        assert stats.merged.verified

    @pytest.mark.parametrize("method", ["multipoint", "ebpb", "winsecrange"])
    def test_every_range_method_agrees(self, fleet, method):
        _, sharded, records = fleet
        t1 = TIME_STEP * 2
        expected = truth(records, LOCATIONS, 0, t1)
        answer, _ = sharded.execute_range(
            RangeQuery(index_values=WILDCARD, time_start=0, time_end=t1),
            method=method,
        )
        assert answer == expected

    def test_misrouted_work_is_rejected_shard_side(self, fleet):
        _, sharded, _ = fleet
        shard = sharded.shards[0]
        stray = next(
            cell_id
            for cell_id in range(sharded.topology.shard_count * 8)
            if sharded.topology.shard_of(cell_id) != shard.shard_id
        )
        with pytest.raises(ShardMisrouted):
            shard.assert_owns((stray,))

    def test_fence_rejects_queries_with_a_typed_error(self, fleet):
        _, sharded, records = fleet
        sharded.fence("ingest")
        with pytest.raises(RouterFenced):
            sharded.execute_point(
                PointQuery(index_values=(records[0][0],), timestamp=records[0][1])
            )
        sharded.unfence()
        sharded.execute_point(
            PointQuery(index_values=(records[0][0],), timestamp=records[0][1])
        )


class TestMergeSemantics:
    def test_count_and_sum_add(self):
        assert merge_answers(Aggregate.COUNT, {0: 2, 1: 5}) == 7
        assert merge_answers(Aggregate.SUM, {0: 10, 1: None, 2: 3}) == 13

    def test_min_max_combine_skipping_empty_shards(self):
        assert merge_answers(Aggregate.MIN, {0: None, 1: 4, 2: 9}) == 4
        assert merge_answers(Aggregate.MAX, {0: None, 1: 4, 2: 9}) == 9
        assert merge_answers(Aggregate.MIN, {0: None, 1: None}) is None

    def test_collect_concatenates_in_ascending_shard_order(self):
        merged = merge_answers(
            Aggregate.COLLECT, {2: ["c"], 0: ["a1", "a2"], 1: ["b"]}
        )
        assert merged == ["a1", "a2", "b", "c"]

    def test_single_shard_passthrough_for_unmergeable_aggregates(self):
        assert merge_answers(Aggregate.AVG, {3: 12.5}) == 12.5

    def test_multi_shard_unmergeable_raises_typed(self):
        with pytest.raises(QueryError):
            merge_answers(Aggregate.AVG, {0: 1.0, 1: 2.0})

    def test_multi_shard_avg_rejected_at_planning_time(self, fleet):
        _, sharded, _ = fleet
        with pytest.raises(QueryError, match="cannot be merged"):
            sharded.execute_range(
                RangeQuery(
                    index_values=WILDCARD,
                    time_start=0,
                    time_end=EPOCH_DURATION - 1,
                    aggregate=Aggregate.AVG,
                    target="time",
                )
            )

    def test_collect_merge_order_is_deterministic(self, fleet):
        _, sharded, _ = fleet
        query = RangeQuery(
            index_values=WILDCARD,
            time_start=0,
            time_end=EPOCH_DURATION - 1,
            aggregate=Aggregate.COLLECT,
        )
        first, _ = sharded.execute_range(query)
        second, _ = sharded.execute_range(query)
        assert first == second
        # And the order is exactly the ascending-shard concatenation.
        per_shard = {
            shard.shard_id: shard.service.execute_range(query, epoch_id=0)[0]
            for shard in sharded.shards
        }
        assert first == merge_answers(Aggregate.COLLECT, per_shard)


class TestRequestErrorsIsolateNothing:
    """Input every shard would refuse fails while planning: no dispatch,
    no breaker strike, so a bad request cannot isolate a healthy shard."""

    def test_unknown_targets_leave_every_breaker_closed(self, fleet):
        _, sharded, records = fleet
        location, timestamp, _ = records[0]
        registry = telemetry.get_registry()
        dispatched = registry.total("concealer_shard_dispatch_total")
        bad_point = PointQuery(
            index_values=(location,), timestamp=timestamp,
            aggregate=Aggregate.MAX, target="nope",
        )
        bad_range = RangeQuery(
            index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1,
            aggregate=Aggregate.MAX, target="nope",
        )
        for _ in range(3):
            with pytest.raises(QueryError, match="no attribute 'nope'"):
                sharded.execute_point(bad_point)
            with pytest.raises(QueryError, match="no attribute 'nope'"):
                sharded.execute_range(bad_range)
        assert registry.total("concealer_shard_dispatch_total") == dispatched
        assert [shard.breaker.state for shard in sharded.shards] == [
            "closed", "closed"
        ]

        answer, _ = sharded.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert answer == truth(records, location, timestamp, timestamp)
        answer, stats = sharded.execute_range(
            RangeQuery(
                index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
            )
        )
        assert answer == truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        assert stats.missing_shards == ()

    @pytest.mark.parametrize(
        "query, method, message",
        [
            (
                RangeQuery(
                    index_values=("ap0",), time_start=0, time_end=59,
                    predicate=Predicate(group=("nope",), values=("x",)),
                ),
                "ebpb",
                "no filter group",
            ),
            (
                RangeQuery(
                    index_values=WILDCARD, time_start=0,
                    time_end=EPOCH_DURATION - 1,
                ),
                "tree",
                "not tree-eligible",
            ),
        ],
        ids=["unknown-filter-group", "ineligible-tree"],
    )
    def test_other_request_errors_fail_while_planning(
        self, fleet, query, method, message
    ):
        _, sharded, _ = fleet
        dispatched = telemetry.get_registry().total(
            "concealer_shard_dispatch_total"
        )
        for _ in range(3):
            with pytest.raises(QueryError, match=message):
                sharded.execute_range(query, method=method)
        assert telemetry.get_registry().total(
            "concealer_shard_dispatch_total"
        ) == dispatched
        assert all(shard.breaker.state == "closed" for shard in sharded.shards)


    @pytest.mark.parametrize("method", RANGE_METHODS)
    def test_an_empty_wildcard_slot_fails_typed_before_any_read(
        self, fleet, method
    ):
        _, sharded, _ = fleet
        registry = telemetry.get_registry()
        dispatched = registry.total("concealer_shard_dispatch_total")
        read = registry.total("concealer_storage_rows_read_total")
        services = [sharded] + [shard.service for shard in sharded.shards]
        for _ in range(3):
            for service in services:
                with pytest.raises(QueryError, match="at least one candidate"):
                    service.execute_range(
                        RangeQuery(index_values=((),), time_start=0, time_end=59),
                        method=method,
                    )
        assert registry.total("concealer_shard_dispatch_total") == dispatched
        assert registry.total("concealer_storage_rows_read_total") == read
        assert all(shard.breaker.state == "closed" for shard in sharded.shards)


class TestIsolation:
    def test_crashed_shard_degrades_ranges_to_partial(self, fleet):
        provider, sharded, records = fleet
        sharded.shards[1].service.enclave.crash()
        answer, stats = sharded.execute_range(
            RangeQuery(
                index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
            )
        )
        assert isinstance(answer, PartialResult)
        assert answer.served_shards == (0,)
        assert answer.missing_shards == (1,)
        assert not answer.complete
        assert stats.missing_shards == (1,)
        assert stats.verified_shards == (0,)
        assert stats.merged.degraded
        # The partial answer is the truth restricted to the served shard.
        partitions = provider.partition_records(
            records, 0, sharded.topology
        )
        assert answer.answer == truth(
            partitions[0], LOCATIONS, 0, EPOCH_DURATION - 1
        )

    def test_point_queries_to_healthy_shards_survive_a_crash(self, fleet):
        _, sharded, records = fleet
        # Map every queryable (location, timestamp) point to its owner
        # while the fleet is still whole.
        by_owner: dict[int, list] = {}
        for location in LOCATIONS:
            for timestamp in range(0, EPOCH_DURATION, TIME_STEP):
                _, _, owner = sharded.plan_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )
                by_owner.setdefault(owner, []).append((location, timestamp))
        assert set(by_owner) == {0, 1}

        sharded.shards[1].service.enclave.crash()
        # Fault isolation: shard 0's points still answer correctly ...
        for location, timestamp in by_owner[0][:4]:
            answer, _ = sharded.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            assert answer == truth(records, location, timestamp, timestamp)
        # ... while shard 1's fail with a typed error naming the shard.
        location, timestamp = by_owner[1][0]
        with pytest.raises(ShardUnavailable) as excinfo:
            sharded.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
        assert excinfo.value.shard_ids == (1,)

    def test_all_participants_isolated_raises_typed(self, fleet):
        _, sharded, _ = fleet
        for shard in sharded.shards:
            shard.service.enclave.crash()
        # With the whole fleet down even planning has no healthy shard.
        with pytest.raises(NoHealthyShard):
            sharded.execute_range(
                RangeQuery(
                    index_values=WILDCARD,
                    time_start=0,
                    time_end=EPOCH_DURATION - 1,
                )
            )

    def test_fail_closed_mode_refuses_partial_answers(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path, allow_partial=False)
        sharded.shards[1].service.enclave.crash()
        with pytest.raises(ShardUnavailable) as excinfo:
            sharded.execute_range(
                RangeQuery(
                    index_values=WILDCARD,
                    time_start=0,
                    time_end=EPOCH_DURATION - 1,
                )
            )
        assert excinfo.value.shard_ids == (1,)


class TestReadmission:
    def test_heal_reattests_and_readmits_a_crashed_shard(self, fleet):
        _, sharded, records = fleet
        sharded.shards[1].service.enclave.crash()
        actions = sharded.heal()
        assert actions[1]["enclave"] and actions[1]["readmitted"]
        expected = truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        answer, stats = sharded.execute_range(
            RangeQuery(
                index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
            )
        )
        assert answer == expected and stats.missing_shards == ()

    def test_heal_restores_lost_storage_from_the_shard_checkpoint(self, fleet):
        _, sharded, records = fleet
        sharded.checkpoint_all()
        victim = sharded.shards[1]
        for table in list(victim.service.engine.table_names()):
            victim.service.engine.drop_table(table)
        victim.service.enclave.crash()
        actions = sharded.heal()
        assert actions[1] == {
            "enclave": True, "storage": True,
            "replicas_repaired": 0, "readmitted": True,
        }
        expected = truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        answer, _ = sharded.execute_range(
            RangeQuery(
                index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
            )
        )
        assert answer == expected

    def test_heal_is_a_noop_on_a_healthy_fleet(self, fleet):
        _, sharded, _ = fleet
        assert sharded.heal() == {}
