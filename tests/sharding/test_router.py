"""The asyncio front door: concurrency, hedging, admission, drain."""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import GridSpec, telemetry
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import (
    RouterFenced,
    ServiceOverloaded,
    ShardUnavailable,
    TransientError,
    TransientStorageError,
)
from repro.sharding.results import PartialResult
from repro.sharding.router import AsyncShardRouter
from repro.sharding.server import ShardServer
from repro.sharding.service import ShardedConfig
from tests.sharding.conftest import (
    DEVICES,
    EPOCH_DURATION,
    LOCATIONS,
    TIME_STEP,
    make_fleet,
    truth,
)

WILDCARD = (LOCATIONS,)


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture
def router_fleet(tmp_path):
    provider, sharded, records = make_fleet(tmp_path)
    router = AsyncShardRouter(sharded)
    yield provider, sharded, router, records
    router.close()


class TestAsyncQueries:
    def test_point_and_range_match_the_sync_core(self, router_fleet):
        _, sharded, router, records = router_fleet
        location, timestamp, _ = records[0]
        point = PointQuery(index_values=(location,), timestamp=timestamp)
        ranged = RangeQuery(
            index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
        )

        async def scenario():
            point_answer, _ = await router.execute_point(point)
            range_answer, stats = await router.execute_range(ranged)
            return point_answer, range_answer, stats

        point_answer, range_answer, stats = run(scenario())
        assert point_answer == truth(records, location, timestamp, timestamp)
        assert range_answer == truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        assert stats.verified_shards == (0, 1)

    def test_concurrent_range_queries_all_answer_exactly(self, router_fleet):
        _, _, router, records = router_fleet
        expected = truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        query = RangeQuery(
            index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
        )

        async def scenario():
            results = await asyncio.gather(
                *(router.execute_range(query) for _ in range(8))
            )
            return [answer for answer, _ in results]

        assert run(scenario()) == [expected] * 8

    def test_crashed_shard_yields_partial_through_the_router(
        self, router_fleet
    ):
        provider, sharded, router, records = router_fleet
        sharded.shards[1].service.enclave.crash()
        query = RangeQuery(
            index_values=WILDCARD, time_start=0, time_end=EPOCH_DURATION - 1
        )
        answer, stats = run(router.execute_range(query))
        assert isinstance(answer, PartialResult)
        assert answer.missing_shards == (1,)
        partitions = provider.partition_records(records, 0, sharded.topology)
        assert answer.answer == truth(
            partitions[0], LOCATIONS, 0, EPOCH_DURATION - 1
        )

    def test_heal_readmits_through_the_router(self, router_fleet):
        _, sharded, router, records = router_fleet
        sharded.shards[0].service.enclave.crash()

        async def scenario():
            actions = await router.heal()
            answer, stats = await router.execute_range(
                RangeQuery(
                    index_values=WILDCARD,
                    time_start=0,
                    time_end=EPOCH_DURATION - 1,
                )
            )
            return actions, answer, stats

        actions, answer, stats = run(scenario())
        assert actions[0]["readmitted"]
        assert answer == truth(records, LOCATIONS, 0, EPOCH_DURATION - 1)
        assert stats.missing_shards == ()


class TestHedgedDispatch:
    def test_hedge_wins_after_a_slow_failing_primary(self, tmp_path):
        """Primary stalls then dies; the hedge (same budget, same shard)
        answers — the request survives a transient without a caller
        -visible retry."""
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded, hedge_delay=0.05)
        shard = sharded.shards[0]
        attempts = []
        release = threading.Event()

        def thunk():
            attempts.append(len(attempts))
            if len(attempts) == 1:
                release.wait(timeout=5.0)
                raise TransientStorageError("primary died slowly")
            return 42

        async def scenario():
            task = asyncio.ensure_future(
                router._dispatch(shard, "test", thunk)
            )
            await asyncio.sleep(0.15)  # let the hedge launch + block
            release.set()
            return await task

        assert run(scenario()) == 42
        assert len(attempts) == 2
        router.close()

    def test_both_attempts_failing_raises_the_primary_error(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded, hedge_delay=0.01)
        shard = sharded.shards[0]
        errors = [
            TransientStorageError("primary error"),
            TransientStorageError("hedge error"),
        ]
        release = threading.Event()
        attempts = []

        def thunk():
            index = len(attempts)
            attempts.append(index)
            if index == 0:
                release.wait(timeout=5.0)
            else:
                release.set()
            raise errors[min(index, 1)]

        with pytest.raises(TransientStorageError, match="primary error"):
            run(router._dispatch(shard, "test", thunk))
        router.close()

    def test_fast_primary_success_never_hedges(self, router_fleet):
        _, sharded, router, _ = router_fleet
        router.hedge_delay = 5.0
        calls = []

        def thunk():
            calls.append(1)
            return "ok"

        assert run(router._dispatch(sharded.shards[0], "test", thunk)) == "ok"
        assert calls == [1]


class TestAdmission:
    def test_queue_overflow_sheds_with_a_typed_error(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path, max_inflight=1, admission_queue=0)
        router = AsyncShardRouter(sharded)

        async def scenario():
            await router._admit("point")  # takes the only slot
            with pytest.raises(ServiceOverloaded):
                await router._admit("point")
            router._release()

        run(scenario())
        router.close()

    def test_released_slots_readmit(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path, max_inflight=1, admission_queue=0)
        router = AsyncShardRouter(sharded)

        async def scenario():
            await router._admit("range")
            router._release()
            await router._admit("range")
            router._release()

        run(scenario())
        assert router.inflight == 0
        router.close()

    def test_shed_requests_are_retryable_but_touch_no_storage(self):
        assert issubclass(ServiceOverloaded, TransientError)
        assert not issubclass(ServiceOverloaded, TransientStorageError)

    @pytest.mark.parametrize(
        "limits",
        [{"max_inflight": 0}, {"admission_queue": -1}],
        ids=["max_inflight", "admission_queue"],
    )
    def test_limits_are_validated_where_they_are_set(self, limits):
        with pytest.raises(ValueError):
            ShardedConfig(**limits)


class TestDrainAndShutdown:
    def test_drain_rejects_new_queries_with_a_typed_error(
        self, router_fleet
    ):
        _, _, router, records = router_fleet
        location, timestamp, _ = records[0]

        async def scenario():
            assert await router.drain(deadline_seconds=1.0) is True
            with pytest.raises(RouterFenced):
                await router.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )

        run(scenario())

    def test_drain_waits_for_inflight_work(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded)
        release = threading.Event()
        shard = sharded.shards[0]

        def slow_thunk():
            release.wait(timeout=5.0)
            return "done"

        async def scenario():
            await router._admit("range")
            task = asyncio.ensure_future(
                router._dispatch(shard, "range", slow_thunk)
            )
            task.add_done_callback(lambda _: router._release())
            # The worker is still blocked: a short drain must time out.
            assert await router.drain(deadline_seconds=0.05) is False
            release.set()
            assert await task == "done"
            # Now the fleet is idle and the drain verdict flips.
            assert await router.drain(deadline_seconds=2.0) is True

        run(scenario())
        router.close()

    def test_shutdown_checkpoints_every_shard(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded)

        async def scenario():
            return await router.shutdown(drain_seconds=1.0)

        assert run(scenario()) is True
        for shard in sharded.shards:
            assert shard.coordinator.checkpoint_path.exists()

    def test_point_to_isolated_owner_still_releases_the_slot(
        self, router_fleet
    ):
        _, sharded, router, records = router_fleet

        async def scenario():
            by_owner = {}
            for location in LOCATIONS:
                for timestamp in range(0, EPOCH_DURATION, 60):
                    _, _, owner = sharded.plan_point(
                        PointQuery(
                            index_values=(location,), timestamp=timestamp
                        )
                    )
                    by_owner.setdefault(owner, (location, timestamp))
            sharded.shards[1].service.enclave.crash()
            location, timestamp = by_owner[1]
            with pytest.raises(ShardUnavailable):
                await router.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )

        run(scenario())
        assert router.inflight == 0


class TestPlanningIsolation:
    def test_busy_shard_zero_delays_no_request_it_does_not_serve(self, tmp_path):
        """Any healthy shard can plan, and planning takes an idle one: a
        sub-query or stall holding shard 0's lock must not delay requests
        owned by the other shards (planning used to wait for shard 0)."""
        _, sharded, _ = make_fleet(tmp_path, shards=4)
        router = AsyncShardRouter(sharded)
        point = ranged = None
        for location in LOCATIONS:
            for start in range(0, EPOCH_DURATION, 60):
                if point is None:
                    candidate = PointQuery(index_values=(location,), timestamp=start)
                    if sharded.plan_point(candidate)[2] != 0:
                        point = candidate
                if ranged is None:
                    candidate = RangeQuery(
                        index_values=(location,), time_start=start, time_end=start + 59
                    )
                    if 0 not in sharded.plan_range(candidate, "auto")[2]:
                        ranged = candidate
        assert point is not None and ranged is not None
        held, release = threading.Event(), threading.Event()

        def hold_shard_zero():
            with sharded.shards[0].lock:
                held.set()
                release.wait(1.0)

        async def ask():
            started = time.perf_counter()
            point_result = await router.execute_point(point)
            point_seconds = time.perf_counter() - started
            started = time.perf_counter()
            range_result = await router.execute_range(ranged, method="auto")
            range_seconds = time.perf_counter() - started
            return (point_result, range_result), (point_seconds, range_seconds)

        async def scenario():
            await ask()  # warm: contexts and trapdoors on every shard
            idle, _ = await ask()
            holder = threading.Thread(target=hold_shard_zero)
            holder.start()
            held.wait()
            try:
                busy, seconds = await ask()
            finally:
                release.set()
                holder.join()
            return idle, busy, seconds

        try:
            idle, busy, seconds = run(scenario())
        finally:
            router.close()
        assert max(seconds) < 0.2, seconds
        assert busy == idle


# A fleet where the planner sends whole-epoch ranges to the aggregate
# tree (16 full buckets) and every one of 4 shards participates.
TREE_DURATION = 16 * TIME_STEP
TREE_SPEC = GridSpec(
    dimension_sizes=(len(LOCATIONS), TREE_DURATION // TIME_STEP),
    cell_id_count=64,
    epoch_duration=TREE_DURATION,
)
TREE_AGGREGATES = (Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX)


def whole_epoch_ranges() -> list[RangeQuery]:
    return [
        RangeQuery(
            index_values=(location,),
            time_start=0,
            time_end=TREE_DURATION - 1,
            aggregate=aggregate,
            target=None if aggregate is Aggregate.COUNT else "time",
        )
        for location in LOCATIONS
        for aggregate in TREE_AGGREGATES
    ]


def tree_fleet(workdir):
    rng = random.Random("tree-fleet")
    records = [
        (LOCATIONS[rng.randrange(len(LOCATIONS))], t, device)
        for t in range(0, TREE_DURATION, TIME_STEP)
        for device in DEVICES
    ]
    _, sharded, _ = make_fleet(workdir, shards=4, records=records, spec=TREE_SPEC)
    return sharded, records


class CountingExecutor(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=2)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def count_hops(router: AsyncShardRouter) -> dict:
    """Count submissions to each shard's pool, by shard id."""
    counts = {shard_id: 0 for shard_id in router._executors}
    for shard_id, executor in router._executors.items():
        submit = executor.submit

        def counting(*args, _shard=shard_id, _submit=submit, **kwargs):
            counts[_shard] += 1
            return _submit(*args, **kwargs)

        executor.submit = counting
    return counts


def count_default_hops() -> CountingExecutor:
    """Count submissions to the running loop's default executor."""
    executor = CountingExecutor()
    asyncio.get_running_loop().set_default_executor(executor)
    return executor


class TestInlineTreeDispatch:
    """Whole-epoch tree ranges run on the event loop when their shards
    are free and warm: same code, same answers, no thread hop."""

    def test_warm_tree_ranges_match_the_sync_path_with_no_hop(self, tmp_path):
        sharded, records = tree_fleet(tmp_path)
        queries = whole_epoch_ranges()
        assert {sharded.plan_range(q, "auto")[1:] for q in queries} == {
            ("tree", (0, 1, 2, 3))
        }
        expected = [sharded.execute_range(q, method="auto") for q in queries]
        router = AsyncShardRouter(sharded)
        hops = count_hops(router)

        async def scenario():
            default = count_default_hops()
            await router.execute_range(queries[0], method="auto")  # warm-up
            hops.update({shard_id: 0 for shard_id in hops})
            default.submitted = 0
            results = [
                await router.execute_range(q, method="auto") for q in queries
            ]
            return results, default.submitted

        try:
            results, default_hops = run(scenario())
        finally:
            router.close()
        assert default_hops == 0
        assert hops == {0: 0, 1: 0, 2: 0, 3: 0}
        for (answer, stats), (want, want_stats) in zip(results, expected):
            assert answer == want
            assert stats == want_stats
        assert results[0][0] == truth(
            records, queries[0].index_values[0], 0, TREE_DURATION - 1
        )

    def test_a_held_shard_lock_takes_the_hop_and_never_blocks_the_loop(
        self, tmp_path
    ):
        sharded, _ = tree_fleet(tmp_path)
        query = whole_epoch_ranges()[0]
        expected = sharded.execute_range(query, method="auto")
        router = AsyncShardRouter(sharded)
        server = ShardServer(router)
        hops = count_hops(router)
        held, release = threading.Event(), threading.Event()

        def hold_shard_two():
            with sharded.shards[2].lock:
                held.set()
                release.wait(5.0)

        async def scenario():
            default = count_default_hops()
            await router.execute_range(query, method="auto")  # warm-up
            hops.update({shard_id: 0 for shard_id in hops})
            holder = threading.Thread(target=hold_shard_two)
            holder.start()
            held.wait()
            try:
                request = asyncio.ensure_future(
                    router.execute_range(query, method="auto")
                )
                health = await asyncio.wait_for(
                    server._handle_request(b'{"op": "health"}'), timeout=2.0
                )
                await asyncio.sleep(0.05)
                waiting = not request.done()
            finally:
                release.set()
                holder.join(5.0)
            assert not holder.is_alive()
            return await request, health, waiting, default.submitted

        try:
            result, health, waiting, default_hops = run(scenario())
        finally:
            router.close()
        assert health["ok"] and health["inflight"] == 1
        assert waiting  # shard 2's sub-query waited on its own thread
        assert result == expected
        assert hops == {0: 0, 1: 0, 2: 1, 3: 0}
        assert default_hops == 0

    def test_hedged_routers_keep_every_tree_sub_query_on_the_pool(
        self, tmp_path
    ):
        sharded, _ = tree_fleet(tmp_path)
        queries = whole_epoch_ranges()
        expected = [sharded.execute_range(q, method="auto") for q in queries]
        router = AsyncShardRouter(sharded, hedge_delay=5.0)
        hops = count_hops(router)

        async def scenario():
            return [await router.execute_range(q, method="auto") for q in queries]

        try:
            assert run(scenario()) == expected
        finally:
            router.close()
        assert hops == {shard_id: len(queries) for shard_id in range(4)}

    def test_a_cold_epoch_context_plans_and_dispatches_through_the_hop(
        self, tmp_path
    ):
        sharded, _ = tree_fleet(tmp_path)
        query = whole_epoch_ranges()[0]
        router = AsyncShardRouter(sharded)
        hops = count_hops(router)

        async def scenario():
            default = count_default_hops()
            seen = []
            for _ in range(2):
                for shard in sharded.shards:  # as a rotation or heal does
                    shard.service._drop_contexts()
                await router.execute_range(query, method="auto")
                seen.append((default.submitted, dict(hops)))
                await router.execute_range(query, method="auto")
                seen.append((default.submitted, dict(hops)))
            return seen

        try:
            seen = run(scenario())
        finally:
            router.close()
        # The plan builds shard 0's context on the default pool, so
        # shard 0 then serves inline; the other three are cold and hop.
        # Warm, nothing hops; dropping the contexts starts it over.
        cold = {0: 0, 1: 1, 2: 1, 3: 1}
        twice = {0: 0, 1: 2, 2: 2, 3: 2}
        assert seen == [(1, cold), (1, cold), (2, twice), (2, twice)]

    def test_dispatch_counters_match_on_the_loop_and_on_the_pool(
        self, tmp_path
    ):
        sharded, _ = tree_fleet(tmp_path)
        queries = whole_epoch_ranges()
        for query in queries:  # warm every shard's context
            sharded.execute_range(query, method="auto")

        def dispatches(router) -> dict:
            with telemetry.scoped_registry() as registry:
                run(_ask_all(router, queries))
                router.close()
                return {
                    shard_id: registry.value(
                        "concealer_shard_dispatch_total",
                        shard=shard_id,
                        kind="range",
                    )
                    for shard_id in range(4)
                }

        inline = AsyncShardRouter(sharded)
        inline_hops = count_hops(inline)
        pooled = AsyncShardRouter(sharded, hedge_delay=5.0)
        pooled_hops = count_hops(pooled)
        assert dispatches(inline) == dispatches(pooled) == {
            shard_id: len(queries) for shard_id in range(4)
        }
        assert sum(inline_hops.values()) == 0
        assert sum(pooled_hops.values()) == 4 * len(queries)


async def _ask_all(router, queries):
    for query in queries:
        await router.execute_range(query, method="auto")
