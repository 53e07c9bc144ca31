"""Fixtures for the sharded-fleet tests: a tiny multi-shard stack."""

from __future__ import annotations

import random

import pytest

from repro import DataProvider, GridSpec, WIFI_SCHEMA
from repro.faults.clock import VirtualClock
from repro.sharding.coordinator import ingest_epoch_sharded
from repro.sharding.service import ShardedConfig, ShardedService

MASTER_KEY = bytes(range(32, 64))
EPOCH_DURATION = 240
TIME_STEP = 60
LOCATIONS = tuple(f"ap{i}" for i in range(4))
DEVICES = tuple(f"dev{i}" for i in range(6))
SPEC = GridSpec(
    dimension_sizes=(len(LOCATIONS), EPOCH_DURATION // TIME_STEP),
    cell_id_count=16,
    epoch_duration=EPOCH_DURATION,
)


def epoch_records(epoch_start: int, seed: int = 7) -> list[tuple]:
    rng = random.Random(f"sharding-tests-{seed}")
    return [
        (LOCATIONS[rng.randrange(len(LOCATIONS))], epoch_start + t, device)
        for t in range(0, EPOCH_DURATION, TIME_STEP)
        for device in DEVICES
    ]


def make_fleet(
    workdir,
    shards: int = 2,
    records=None,
    fault_injector=None,
    clock=None,
    spec=SPEC,
    **config_kwargs,
):
    """A provisioned fleet with one epoch landed via two-phase ingest.

    Returns ``(provider, sharded, records)``.
    """
    records = records if records is not None else epoch_records(0)
    provider = DataProvider(
        WIFI_SCHEMA,
        spec,
        first_epoch_id=0,
        master_key=MASTER_KEY,
        time_granularity=TIME_STEP,
        rng=random.Random(11),
    )
    sharded = ShardedService.build(
        provider,
        ShardedConfig(shards=shards, **config_kwargs),
        workdir,
        clock=clock if clock is not None else VirtualClock(),
        fault_injector=fault_injector,
        retry_rng_seed="sharding-tests",
    )
    ingest_epoch_sharded(sharded, records, epoch_id=0)
    return provider, sharded, records


@pytest.fixture
def fleet(tmp_path):
    return make_fleet(tmp_path)


def truth(records, locations, t0, t1) -> int:
    wanted = set(locations) if isinstance(locations, (tuple, list, set)) else {
        locations
    }
    return sum(1 for r in records if r[0] in wanted and t0 <= r[1] <= t1)
