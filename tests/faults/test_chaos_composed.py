"""The composed chaos corpus: sharded fleets of Byzantine replica groups.

≥200 seeded runs at ``--shards {2,3} --replicas 3`` drive the full
gauntlet at once: two-phase ingest and mid-stream key rotation across
shards, shard kills, slow shards, router crashes — while *inside* every
shard a three-replica group absorbs tampered rows, stale replays,
dropped bins, and replica stalls behind verify-then-failover.

Two invariants stack:

1. The fleet oracle is unchanged: every op either matches the oracle
   (honest partials included) or fails with a typed error — zero silent
   wrong, same as the unreplicated corpus.
2. The replica group is a *sub-router* failure domain: runs exist where
   replicas failed and were failed-over entirely in-shard — the router
   saw no ``PartialResult``, no degraded shard, nothing.  Only the
   public-size failover counter betrays that anything happened at all.

Any failure replays exactly with
``python -m repro --chaos-seed <seed> --shards <n> --replicas 3``.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import composed_specs, run_chaos
from repro.faults.injector import FaultSpec
from tests.faults.test_chaos_sharded import assert_never_silently_wrong

pytestmark = pytest.mark.chaos

REPLICAS = 3


def hostile_composed_specs():
    """Shard, router, AND replica faults at elevated rates, few caps."""
    return [
        FaultSpec("shard.kill", probability=0.12, max_fires=None),
        FaultSpec("shard.slow", probability=0.08, max_fires=3),
        FaultSpec("router.crash", probability=0.08, max_fires=2),
        FaultSpec("enclave.kill.rotation", probability=0.05, max_fires=1),
        FaultSpec("replica.tamper", probability=0.20, max_fires=None),
        FaultSpec("replica.replay.stale", probability=0.15, max_fires=4),
        FaultSpec("replica.bin.drop", probability=0.15, max_fires=4),
        FaultSpec("replica.slow", probability=0.10, max_fires=3),
    ]


class TestNoSilentWrongAnswers:
    """≥230 composed runs across two fleet shapes and two fault mixes."""

    @pytest.mark.parametrize("seed", range(9000, 9105))
    def test_two_shards_of_three_replicas(self, seed):
        assert_never_silently_wrong(
            run_chaos(seed, ops=12, shards=2, replicas=REPLICAS)
        )

    @pytest.mark.parametrize("seed", range(9200, 9305))
    def test_three_shards_of_three_replicas(self, seed):
        assert_never_silently_wrong(
            run_chaos(seed, ops=10, shards=3, replicas=REPLICAS), shards=3
        )

    @pytest.mark.parametrize("seed", range(9400, 9420))
    def test_hostile_composed_mix(self, seed):
        assert_never_silently_wrong(
            run_chaos(
                seed,
                ops=10,
                shards=2,
                replicas=REPLICAS,
                specs=hostile_composed_specs(),
            )
        )


class TestCorpusCoverage:
    """The composed corpus exercises BOTH fault planes, not vacuously."""

    def test_both_fault_planes_fire_and_rotation_runs_mid_stream(self):
        reports = [
            run_chaos(seed, ops=12, shards=2, replicas=REPLICAS)
            for seed in range(9000, 9030)
        ]
        schedule = b"".join(r.schedule for r in reports)
        # Byzantine replica faults and whole-shard faults both landed …
        assert b"replica." in schedule
        assert b"shard." in schedule
        # … with the two-phase rotation running mid-stream under them.
        ops = {o.op for r in reports for o in r.outcomes}
        assert {"ingest", "point", "range", "rotate"} <= ops
        assert sum(r.faults_fired for r in reports) >= 30

    def test_in_shard_failover_is_invisible_to_the_router(self):
        # The acceptance witness: runs where replicas failed over
        # *inside* a shard and the router never noticed — every range
        # came back complete (no PartialResult anywhere in the stream)
        # while the failover counter proves replicas really failed.
        witnesses = 0
        for seed in range(9000, 9105):
            report = run_chaos(seed, ops=12, shards=2, replicas=REPLICAS)
            failovers = report.telemetry.total(
                "concealer_shard_replica_failovers_total"
            )
            partials = [o for o in report.outcomes if "partial" in o.op]
            if failovers > 0 and not partials:
                witnesses += 1
                if witnesses >= 3:
                    break
        assert witnesses >= 3, (
            "fewer than 3 composed corpus runs absorbed a replica "
            f"failover without surfacing any partial (got {witnesses})"
        )

    def test_anti_entropy_repair_runs_inside_the_op_stream(self):
        # The run loop interleaves fleet-wide repair sweeps with the
        # ops; across the corpus some must actually repair or fence.
        repairs = 0
        for seed in range(9200, 9230):
            report = run_chaos(seed, ops=10, shards=3, replicas=REPLICAS)
            repairs += report.telemetry.total(
                "concealer_replica_repairs_total"
            )
        assert repairs > 0

    def test_composed_runs_still_converge_to_verified_fleets(self):
        for seed in range(9400, 9410):
            report = run_chaos(
                seed,
                ops=10,
                shards=2,
                replicas=REPLICAS,
                specs=hostile_composed_specs(),
            )
            finals = [o for o in report.outcomes if o.op == "final-verify"]
            assert finals and all(o.ok for o in finals), (
                f"seed {seed}: final verification failed — replay with "
                f"`python -m repro --chaos-seed {seed} --shards 2 "
                f"--replicas 3`"
            )


class TestDeterministicReplay:
    @pytest.mark.parametrize(
        "seed,shards", [(9007, 2), (9211, 3), (9404, 2)]
    )
    def test_composed_fingerprints_are_byte_identical(self, seed, shards):
        first = run_chaos(seed, ops=10, shards=shards, replicas=REPLICAS)
        second = run_chaos(seed, ops=10, shards=shards, replicas=REPLICAS)
        assert first.schedule == second.schedule
        assert first.fingerprint() == second.fingerprint()

    def test_default_specs_compose_shard_and_replica_planes(self):
        sites = {spec.site for spec in composed_specs()}
        assert any(site.startswith("replica.") for site in sites)
        assert any(site.startswith("shard.") for site in sites)
