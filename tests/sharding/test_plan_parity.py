"""The router's plan is a lookup: same decisions, no per-request hashing.

Planning a request names its epoch, its cell-ids and the shards owning
them — the L_q routing the host observes anyway.  A fixed stream of the
repo benchmark's request shapes (point reads, 10-minute multipoint and
eBPB ranges, whole-epoch ``auto`` aggregates) is planned on 1-, 2- and
4-shard fleets; every ``(epoch, cell, owner)`` / ``(epoch, method,
participants)`` and every ``router.plan`` span's attributes must equal
what the planner produced at 3c8a96f, before planning was made linear.
A warm whole-epoch plan must not hash: no topology SHA-256, no PRF.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import WIFI_SCHEMA, DataProvider, GridSpec, telemetry
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.crypto.prf import Prf
from repro.faults.clock import VirtualClock
from repro.sharding import topology as topology_module
from repro.sharding.coordinator import ingest_epoch_sharded
from repro.sharding.service import ShardedConfig, ShardedService
from repro.telemetry.spans import Tracer
from repro.workloads import WifiConfig, generate_wifi_epoch

# The benchmark's smoke shape: 12 APs x 240 one-minute buckets, u = 256.
EPOCH, DURATION, STEP = 36_000, 4 * 3600, 60
SPEC = GridSpec(dimension_sizes=(12, DURATION // STEP), cell_id_count=256,
                epoch_duration=DURATION)

# Captured at 3c8a96f: from a checkout of it,
# ``PYTHONPATH=src:<this repo> python <this file>`` prints the table.
GOLDEN = {
    1: "56c0c48ce39178869904195420e490003a74ac2f2347242d4f187dbddef8c7a0",
    2: "70292a491c86b2b812db6ce45004d06abf903bc9474879a5805ef5dbe602980c",
    4: "1c81ad71ec77f159bb975b9f16b53bd381a2aa0f21893fc117fed04c031275b9",
}


def _records() -> list[tuple]:
    config = WifiConfig(access_points=12, devices=60, rows_per_hour_offpeak=60, seed=25)
    return generate_wifi_epoch(config, EPOCH, DURATION, rng=random.Random(25))


def _fleet(workdir, shards: int, records) -> ShardedService:
    provider = DataProvider(
        WIFI_SCHEMA, SPEC, first_epoch_id=EPOCH, master_key=bytes(range(32)),
        time_granularity=STEP, rng=random.Random(26),
    )
    fleet = ShardedService.build(
        provider, ShardedConfig(shards=shards), workdir, clock=VirtualClock()
    )
    ingest_epoch_sharded(fleet, records, EPOCH)
    return fleet


def _requests(records) -> list:
    rng = random.Random(27)
    requests = []
    for i in range(24):
        location, timestamp, _ = records[rng.randrange(len(records))]
        aggregate = (Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX)[i % 4]
        target = None if aggregate is Aggregate.COUNT else "time"
        requests.append(("point", PointQuery(index_values=(location,), timestamp=timestamp)))
        start = EPOCH + rng.randrange(DURATION // STEP - 9) * STEP
        requests.append((
            ("multipoint", "ebpb")[i % 2],
            RangeQuery(index_values=(location,), time_start=start,
                       time_end=start + 10 * STEP - 1, aggregate=aggregate, target=target),
        ))
        requests.append((
            "auto",
            RangeQuery(index_values=(location,), time_start=EPOCH,
                       time_end=EPOCH + DURATION - 1, aggregate=aggregate, target=target),
        ))
    return requests


def _plan(fleet: ShardedService, method: str, query):
    if method == "point":
        return fleet.plan_point(query)
    return fleet.plan_range(query, method)


def capture(workdir, shards: int) -> str:
    """Every plan and every ``router.plan`` span's attributes, digested."""
    records = _records()
    fleet = _fleet(workdir, shards, records)
    tracer = Tracer(clock=VirtualClock(), capacity=1000)
    with telemetry.scoped_tracer(tracer):
        plans = [_plan(fleet, method, query) for method, query in _requests(records)]
    spans = [
        (span.name, span.attributes) for span in tracer.traces()
        if span.name == "router.plan"
    ]
    assert len(spans) == len(plans)
    return hashlib.sha256(
        json.dumps([plans, spans], sort_keys=True, default=repr).encode()
    ).hexdigest()


@pytest.mark.parametrize("shards", sorted(GOLDEN))
def test_plans_match_the_parent(tmp_path, shards):
    assert capture(tmp_path, shards) == GOLDEN[shards]


def test_warm_whole_epoch_plan_hashes_nothing(tmp_path, monkeypatch):
    records = _records()
    fleet = _fleet(tmp_path, 4, records)
    query = RangeQuery(index_values=(records[0][0],), time_start=EPOCH,
                       time_end=EPOCH + DURATION - 1, aggregate=Aggregate.COUNT)
    expected = fleet.plan_range(query, "auto")  # warm-up
    counts = {"sha256": 0, "prf": 0}
    sha256, evaluate = topology_module.hashlib.sha256, Prf.__call__

    def counting_sha256(*args):
        counts["sha256"] += 1
        return sha256(*args)

    def counting_prf(self, *parts):
        counts["prf"] += 1
        return evaluate(self, *parts)

    monkeypatch.setattr(topology_module.hashlib, "sha256", counting_sha256)
    monkeypatch.setattr(Prf, "__call__", counting_prf)
    for _ in range(3):
        assert fleet.plan_range(query, "auto") == expected
    assert counts == {"sha256": 0, "prf": 0}


if __name__ == "__main__":
    import tempfile

    for shards in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as workdir:
            print(f"    {shards}: {capture(workdir, shards)!r},")
