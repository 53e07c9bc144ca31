"""Backoff jitter: explicitly threaded, seeded RNG; deterministic replay."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import DeadlineExceeded, TransientStorageError
from repro.faults.clock import RetryPolicy, VirtualClock
from repro.replication import Deadline


def flaky(failures):
    state = {"left": failures}

    def fn():
        if state["left"]:
            state["left"] -= 1
            raise TransientStorageError("flaky")
        return "ok"

    return fn


def jittered_sleeps(seed):
    clock = VirtualClock()
    policy = RetryPolicy(
        attempts=4,
        base_delay=0.1,
        jitter=0.5,
        rng=random.Random(seed),
        clock=clock,
    )
    assert policy.call(flaky(3)) == "ok"
    return clock.sleeps


class TestSeededJitter:
    def test_same_seed_replays_the_same_backoff_schedule(self):
        assert jittered_sleeps(42) == jittered_sleeps(42)

    def test_different_seeds_decorrelate(self):
        assert jittered_sleeps(1) != jittered_sleeps(2)

    def test_jittered_delays_stay_within_the_nominal_envelope(self):
        clock = VirtualClock()
        policy = RetryPolicy(
            attempts=6,
            base_delay=0.1,
            max_delay=1.0,
            jitter=0.5,
            rng=random.Random(7),
            clock=clock,
        )
        with pytest.raises(TransientStorageError):
            policy.call(flaky(99))
        assert len(clock.sleeps) == 5
        for slept, nominal in zip(clock.sleeps, policy.delays()):
            assert nominal * 0.5 <= slept <= nominal

    def test_delays_reports_the_jitter_free_schedule(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.1, jitter=0.9, rng=random.Random(3)
        )
        assert policy.delays() == [0.1, 0.2, 0.4]

    def test_zero_jitter_sleeps_exactly_the_nominal_schedule(self):
        clock = VirtualClock()
        policy = RetryPolicy(attempts=4, base_delay=0.1, clock=clock)
        with pytest.raises(TransientStorageError):
            policy.call(flaky(99))
        assert clock.sleeps == policy.delays()

    def test_unthreaded_callers_fall_back_to_a_fixed_seed(self):
        first = RetryPolicy(jitter=0.5)
        second = RetryPolicy(jitter=0.5)
        assert [first._delay(k) for k in range(3)] == [
            second._delay(k) for k in range(3)
        ]

    def test_jitter_fraction_is_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestDeadlineInBackoff:
    def test_spent_budget_stops_the_backoff_loop(self):
        clock = VirtualClock()
        policy = RetryPolicy(attempts=5, base_delay=10.0, clock=clock)
        deadline = Deadline.after(clock, 5.0)
        clock.sleep(6.0)
        with pytest.raises(DeadlineExceeded):
            policy.call(flaky(99), deadline=deadline)
        # The failed attempt never slept: the budget died before backoff.
        assert clock.sleeps == [6.0]


class TestResumableBudget:
    """``progress`` gives each stalling point its own budget."""

    @staticmethod
    def resumable(fail_at):
        """An operation over items 0..9 that fails at the scheduled
        attempts (indices into its sequence of item attempts)."""
        state = {"done": 0, "attempt": 0}

        def fn():
            while state["done"] < 10:
                attempt = state["attempt"]
                state["attempt"] += 1
                if attempt in fail_at:
                    raise TransientStorageError(f"item {state['done']}")
                state["done"] += 1
            return "landed"

        return fn, state

    def policy(self, clock):
        return RetryPolicy(attempts=4, base_delay=0.01, clock=clock)

    def test_each_new_stall_starts_at_the_base_delay(self):
        clock = VirtualClock()
        fn, state = self.resumable({2, 6, 7})  # item 2 once, item 5 twice
        assert self.policy(clock).call(fn, progress=lambda: state["done"]) == "landed"
        assert clock.sleeps == [0.01, 0.01, 0.02]

    def test_without_progress_the_budget_is_shared(self):
        clock = VirtualClock()
        fn, _ = self.resumable({2, 6, 7})
        assert self.policy(clock).call(fn) == "landed"
        assert clock.sleeps == [0.01, 0.02, 0.04]

    def test_more_stalls_than_attempts_succeed_when_each_moves_on(self):
        clock = VirtualClock()
        fn, state = self.resumable({0, 2, 4, 6, 8, 10})  # six items, once each
        assert self.policy(clock).call(fn, progress=lambda: state["done"]) == "landed"
        assert clock.sleeps == [0.01] * 6

    def test_one_point_stalling_four_times_exhausts_the_budget(self):
        clock = VirtualClock()
        fn, state = self.resumable({3, 4, 5, 6})
        with pytest.raises(TransientStorageError, match="item 3"):
            self.policy(clock).call(fn, progress=lambda: state["done"])
        assert clock.sleeps == [0.01, 0.02, 0.04]
        assert state["done"] == 3
