"""The asyncio front door: concurrency, hedging, admission, drain."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.queries import PointQuery, RangeQuery
from repro.exceptions import (
    RouterFenced,
    ServiceOverloaded,
    ShardUnavailable,
    TransientStorageError,
)
from repro.sharding.results import PartialResult
from repro.sharding.router import AsyncShardRouter
from tests.sharding.conftest import (
    EPOCH_DURATION,
    LOCATIONS,
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
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded, max_inflight=1, admission_queue=0)

        async def scenario():
            await router._admit("point")  # takes the only slot
            with pytest.raises(ServiceOverloaded):
                await router._admit("point")
            router._release()

        run(scenario())
        router.close()

    def test_released_slots_readmit(self, tmp_path):
        _, sharded, _ = make_fleet(tmp_path)
        router = AsyncShardRouter(sharded, max_inflight=1, admission_queue=0)

        async def scenario():
            await router._admit("range")
            router._release()
            await router._admit("range")
            router._release()

        run(scenario())
        assert router.inflight == 0
        router.close()


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
