"""What a batch shows the host and the caller, pinned.

Each scenario runs one ``execute_batch`` and digests its answers, every
member's ``QueryStats``, the batch counters (``concealer_batch_*`` and
the batch's own fetch accounting) and the host access-log stream of
every storage engine involved.  The batches cover: all members shared,
a mix that opens with a direct (eBPB) member and carries every method,
verify on and off, oblivious execution, a 3-replica engine, and a
key-rotated epoch read by trapdoor (landed without its sealed bins:
rotation keeps the bins an epoch has, and drops its tree).

The digests were captured at 2104ce1, when a batch was planned up
front and its deduplicated bins prefetched before any member ran;
serving each bin from the overlay on first use must leave every one of
them unchanged.
``PYTHONPATH=src:. python tests/batching/test_batch_pin.py`` prints the
table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro import GridSpec, telemetry
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.faults.clock import VirtualClock
from repro.sharding.service import build_replica_group
from tests.conftest import MASTER_KEY, TIME_STEP, make_stack

SPEC = GridSpec(dimension_sizes=(4, 12), cell_id_count=24, epoch_duration=3600)
LOCATIONS = [f"ap{i}" for i in range(4)]


def _records():
    rng = random.Random(5)
    return [
        (LOCATIONS[rng.randrange(4)], t, f"dev{d}")
        for t in range(0, 3600, TIME_STEP)
        for d in range(8)
    ]


RECORDS = _records()


def _point(index, **shape):
    location, timestamp, _ = RECORDS[index]
    return PointQuery(index_values=(location,), timestamp=timestamp, **shape)


def _range(location, start, end, **shape):
    return RangeQuery(
        index_values=(location,), time_start=start, time_end=end, **shape
    )


SHARED = [
    _point(10),
    _point(200),
    _point(10, aggregate=Aggregate.DISTINCT_COUNT, target="observation"),
    (_range("ap1", 0, 600), "multipoint"),
    _point(200),
    _point(333, aggregate=Aggregate.COLLECT),
]
MIXED = [
    (_range("ap2", 0, 900), "ebpb"),
    _point(10),
    (_range("ap0", 600, 1500, aggregate=Aggregate.COLLECT), "winsecrange"),
    (_range("ap1", 0, 600), "multipoint"),
    _point(10),
    (_range("ap3", 0, 3599), "tree"),
    _range("ap1", 300, 1200),
    _point(200),
]
# Concealer+ has no tree path: every member runs direct.
OBLIVIOUS = [
    member for member in MIXED
    if not (isinstance(member, tuple) and member[1] == "tree")
]

SCENARIOS = {
    "shared": (SHARED, {}),
    "shared-verify": (SHARED, {"verify": True}),
    "mixed": (MIXED, {}),
    "mixed-verify": (MIXED, {"verify": True}),
    "oblivious": (OBLIVIOUS, {"verify": True, "oblivious": True}),
    "replicated": (MIXED, {"verify": True, "replicas": 3}),
    "rotated": (MIXED, {"verify": True, "rotated": True, "sidecar": False}),
}

# Captured at 2104ce1, with the batch planner and its prefetch in place.
GOLDEN = {
    "mixed": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
        "stats": "8fa7f73c19e30c00eda2fcabdecf90399d4a2c38cd4e8a05bf7ba3cb22a0dc28",
        "stream": "d40f864fb80813ed7d2d864d44afe613112beee9ef2b5e2cdca3e93469b3e9e9",
        "counters": "7d34830c8438fba7be060052d57c8d69e7a6808fea95d6be2c9b256ce9494438",
    },
    "mixed-verify": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
        "stats": "89c01125ee4e1bdbbc22edff75415e23a8f78fafa01b81902f8d2cdc180a4588",
        "stream": "d40f864fb80813ed7d2d864d44afe613112beee9ef2b5e2cdca3e93469b3e9e9",
        "counters": "7d34830c8438fba7be060052d57c8d69e7a6808fea95d6be2c9b256ce9494438",
    },
    "oblivious": {
        "answers": "e362df19226568b00383608c7caa0c61d99b9450afd648d4dc5826c538d65d24",
        "stats": "49d3ed81fad6b3d40188516d9c39bc9e7eb8eae098be1b47a901778fc60d8fa0",
        "stream": "6156abf896e471f292e72f39e1ce84a221f9b0c2bdbe68cbe83e0495fffca60e",
        "counters": "a7f968cade489138b1677134bd1bc95a08aa2f45421249f475e8115bb88d56da",
    },
    "replicated": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
        "stats": "89c01125ee4e1bdbbc22edff75415e23a8f78fafa01b81902f8d2cdc180a4588",
        "stream": "d40f864fb80813ed7d2d864d44afe613112beee9ef2b5e2cdca3e93469b3e9e9",
        "counters": "7d34830c8438fba7be060052d57c8d69e7a6808fea95d6be2c9b256ce9494438",
    },
    "rotated": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
        "stats": "fffcef590a932a511c21a91a0225e6813719007df0d21464eccbfd60c85b7a71",
        "stream": "87d5d9fec98de87b5a3a6b806d44fcf086a9327e12bc8e63e2daf1d21dccc9f9",
        "counters": "7d34830c8438fba7be060052d57c8d69e7a6808fea95d6be2c9b256ce9494438",
    },
    "shared": {
        "answers": "8381ac87e3738ff9a5cfc6eeddec0a9543196cca943b8d2ad0a46ab782fdd6f3",
        "stats": "a142f5ec608627c04da3c8e09fe70ddd259f39e7954741961ad8f524979bb0cf",
        "stream": "0fa8a62ee7141042a30dca9147f710659f76adb17d245384a5c2082a3e5d10f3",
        "counters": "f5a9447b454599b98c72dcb4e95bb983e22f1d3f6a847fd345e4d846c5da8a6b",
    },
    "shared-verify": {
        "answers": "8381ac87e3738ff9a5cfc6eeddec0a9543196cca943b8d2ad0a46ab782fdd6f3",
        "stats": "7c0976bc66d71a5b5553254b3219eec557943a6e40c038eb629ccab7bfc327b4",
        "stream": "0fa8a62ee7141042a30dca9147f710659f76adb17d245384a5c2082a3e5d10f3",
        "counters": "f5a9447b454599b98c72dcb4e95bb983e22f1d3f6a847fd345e4d846c5da8a6b",
    },
}

BATCH_FAMILIES = (
    "concealer_batches_total",
    "concealer_batch_queries_total",
    "concealer_batch_bin_references_total",
    "concealer_batch_unique_bins_total",
    "concealer_batch_bin_reuses_total",
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def capture(name: str) -> dict:
    batch, options = SCENARIOS[name]
    options = dict(options)
    replicas = options.pop("replicas", 1)
    rotated = options.pop("rotated", False)
    engine = None
    if replicas > 1:
        engine = build_replica_group(replicas, clock=VirtualClock())
    _, service = make_stack(SPEC, RECORDS, engine=engine, **options)
    if rotated:
        new_key = b"\x82" * 32
        rotate_service_keys(service, new_key, rotation_token(MASTER_KEY, new_key))
        assert not service.engine.has_packed_bins("epoch_0")
    engines = getattr(service.engine, "replicas", [service.engine])
    marks = [len(list(engine.access_log)) for engine in engines]
    with telemetry.scoped_registry() as registry:
        results = service.execute_batch(batch)
        snapshot = registry.snapshot()
    stream = [
        (event.kind.value, event.table, event.detail)
        for engine, mark in zip(engines, marks)
        for event in list(engine.access_log)[mark:]
    ]
    counters = {
        family: [sample["value"] for sample in snapshot[family]["samples"]]
        for family in BATCH_FAMILIES
        if family in snapshot
    }
    counters["batch-kind"] = sorted(
        (family, sample["value"])
        for family, body in snapshot.items()
        for sample in body["samples"]
        if sample["labels"].get("kind") == "batch"
        and body["type"] == "counter"
    )
    return {
        "answers": _digest([answer for answer, _ in results]),
        "stats": _digest([dataclasses.asdict(stats) for _, stats in results]),
        "stream": _digest(stream),
        "counters": _digest(counters),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_matches_the_planned_prefetch(name):
    assert capture(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: capture(name) for name in sorted(SCENARIOS)}, width=100)
