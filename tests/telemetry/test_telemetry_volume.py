"""How much telemetry one warm request makes, pinned.

Every span and metric update sits on the request path, so their number
is a cost as much as a signal.  One warm point, multipoint and tree
request each goes through ``AsyncShardRouter`` on a 2-shard fleet; the
spans opened and the metric updates made must equal ``VOLUME``, and the
assembled trace under ``scoped_ids()``, timings stripped, must equal
``TRACE_DIGESTS``.  A change that adds or drops a span or an update
edits the table here, on purpose.

Captured at 12713c2: from a checkout of it,
``PYTHONPATH=src:<this repo> python tests/telemetry/test_telemetry_volume.py``
prints both tables.  The update counts have since dropped by three per
shard sub-query, the shard service's own admission gate (an admitted
counter and two in-flight gauge sets) having gone.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import tempfile

import pytest

from repro import telemetry
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.faults.clock import VirtualClock
from repro.sharding.router import AsyncShardRouter
from repro.telemetry import Tracer, tracing
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.spans import _SpanScope
from repro import GridSpec
from tests.sharding.conftest import DEVICES, LOCATIONS, TIME_STEP, make_fleet

# Sixteen time buckets: enough full leaves for the auto planner's tree.
EPOCH_DURATION = 16 * TIME_STEP
SPEC = GridSpec(
    dimension_sizes=(len(LOCATIONS), 16),
    cell_id_count=16,
    epoch_duration=EPOCH_DURATION,
)
RECORDS = [
    (LOCATIONS[(t // TIME_STEP + d) % len(LOCATIONS)], t, device)
    for t in range(0, EPOCH_DURATION, TIME_STEP)
    for d, device in enumerate(DEVICES)
]

# request -> (spans opened, metric updates made)
VOLUME = {
    "point": (9, 18),
    "multipoint": (16, 42),
    "tree": (15, 35),
}
TRACE_DIGESTS = {
    "point": "044af101eca11070dbbc44990f5410fe21a69984baecf522c721d2331ebafa90",
    "multipoint": "192f6049ec60426fdcea51ea012f5f4b656eef70e399dc243c9caaf9179453e7",
    "tree": "b5d6218046fc4a48943e869671ab34cbaeb79cdf5f624c61d6b08a2cb9f333e1",
}

# (owner, method, what one call counts as)
_COUNTED = (
    (_SpanScope, "__enter__", "spans"),
    (Counter, "inc", "updates"),
    (Gauge, "set", "updates"),
    (Gauge, "inc", "updates"),
    (Gauge, "dec", "updates"),
    (Gauge, "set_max", "updates"),
    (Histogram, "observe", "updates"),
)


def _requests(records):
    location, timestamp, _ = records[0]
    return {
        "point": lambda router: router.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        ),
        "multipoint": lambda router: router.execute_range(
            RangeQuery(
                index_values=(LOCATIONS,), time_start=0, time_end=EPOCH_DURATION // 2 - 1
            ),
            method="multipoint",
        ),
        "tree": lambda router: router.execute_range(
            RangeQuery(
                index_values=(location,),
                time_start=0,
                time_end=EPOCH_DURATION - 1,
                aggregate=Aggregate.SUM,
                target="time",
            ),
            method="auto",
        ),
    }


def _canonical(span) -> dict:
    """Names, secrecy, errors and attributes, siblings in a canonical
    order.  The ids are left out here: sibling shard subtrees run on two
    threads, so which takes the next id first is a race."""
    children = [_canonical(child) for child in span.children]
    return {
        "name": span.name,
        "secrecy": span.secrecy,
        "error": span.error,
        "attributes": {key: span.attributes[key] for key in sorted(span.attributes)},
        "children": sorted(children, key=lambda child: json.dumps(child, sort_keys=True)),
    }


def _ids(root) -> list[int]:
    """The trace id, then every span id in allocation order."""
    return [int(root.trace_id, 16)] + sorted(
        int(span.span_id, 16) for span in root.walk()
    )


def measure(workdir) -> dict[str, tuple]:
    """Per request: (spans opened, metric updates made, trace digest,
    the trace's ids)."""
    counts = {"spans": 0, "updates": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return original, wrapper

    _, sharded, records = make_fleet(workdir, records=RECORDS, spec=SPEC)
    router = AsyncShardRouter(sharded)
    patched = [
        (owner, name, *counting(owner, name, key)) for owner, name, key in _COUNTED
    ]
    out = {}
    try:
        for kind, send in _requests(records).items():
            asyncio.run(send(router))  # warm: contexts built, pools started
            tracer = Tracer(clock=VirtualClock())
            with telemetry.scoped_tracer(tracer), telemetry.scoped_registry():
                with tracing.scoped_ids():
                    for owner, name, _, wrapper in patched:
                        setattr(owner, name, wrapper)
                    counts.update(spans=0, updates=0)
                    try:
                        asyncio.run(send(router))
                    finally:
                        for owner, name, original, _ in patched:
                            setattr(owner, name, original)
            (root,) = tracing.assemble(tracer.traces())
            blob = json.dumps(_canonical(root), sort_keys=True).encode()
            out[kind] = (
                counts["spans"],
                counts["updates"],
                hashlib.sha256(blob).hexdigest(),
                _ids(root),
            )
    finally:
        router.close()
    return out


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return measure(tmp_path_factory.mktemp("volume"))


@pytest.mark.parametrize("kind", sorted(VOLUME))
def test_spans_and_metric_updates_per_request(measured, kind):
    spans, updates, *_ = measured[kind]
    assert (spans, updates) == VOLUME[kind]


@pytest.mark.parametrize("kind", sorted(TRACE_DIGESTS))
def test_assembled_trace_matches_the_golden(measured, kind):
    assert measured[kind][2] == TRACE_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(VOLUME))
def test_ids_come_off_the_scoped_counter_trace_id_first(measured, kind):
    spans, ids = measured[kind][0], measured[kind][3]
    assert ids == list(range(1, spans + 2))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for kind, (spans, updates, digest, _) in measure(workdir).items():
            print(f"{kind:<11} spans={spans} updates={updates} {digest}")
