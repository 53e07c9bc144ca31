"""The answers the batch engine gave, pinned on single requests.

Each scenario runs a burst of queries, each its own request, and
digests their answers.  The bursts cover: whole-bin members only, a
mix that opens with an eBPB member and carries every method, verify on
and off, oblivious execution, a 3-replica engine, and a key-rotated
epoch read by trapdoor (landed without its sealed bins: rotation keeps
the bins an epoch has, and drops its tree).

The digests were captured at 2104ce1 from one ``execute_batch`` per
scenario, when a batch was planned up front and its deduplicated bins
prefetched before any member ran.  The batch engine is gone, and with
it the batch's own host view (its access-log stream, member
``QueryStats`` and ``concealer_batch_*`` counters); its answers must
stay those of the same queries asked one request at a time.
``PYTHONPATH=src:. python tests/batching/test_batch_pin.py`` prints the
table.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import GridSpec
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
# Concealer+ has no tree path.
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

# Captured at 2104ce1 from ``execute_batch``, with the batch planner
# and its prefetch in place.
GOLDEN = {
    "mixed": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
    },
    "mixed-verify": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
    },
    "oblivious": {
        "answers": "e362df19226568b00383608c7caa0c61d99b9450afd648d4dc5826c538d65d24",
    },
    "replicated": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
    },
    "rotated": {
        "answers": "87fb2118f2c6d0a0996c81776035b9a372ac9a958c3479d31a378a85d0a4f5e9",
    },
    "shared": {
        "answers": "8381ac87e3738ff9a5cfc6eeddec0a9543196cca943b8d2ad0a46ab782fdd6f3",
    },
    "shared-verify": {
        "answers": "8381ac87e3738ff9a5cfc6eeddec0a9543196cca943b8d2ad0a46ab782fdd6f3",
    },
}


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
    answers = []
    for member in batch:
        if isinstance(member, PointQuery):
            answers.append(service.execute_point(member)[0])
        else:
            query, method = member if isinstance(member, tuple) else (member, "ebpb")
            answers.append(service.execute_range(query, method=method)[0])
    return {"answers": _digest(answers)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_matches_the_planned_prefetch(name):
    assert capture(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: capture(name) for name in sorted(SCENARIOS)}, width=100)
