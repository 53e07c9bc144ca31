"""Shared fixtures: seeded generators and provisioned entity stacks."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro import (
    DataProvider,
    FakeStrategy,
    GridSpec,
    ServiceConfig,
    ServiceProvider,
    WIFI_SCHEMA,
)

MASTER_KEY = bytes(range(32))
EPOCH_DURATION = 3600
TIME_STEP = 60


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def wifi_records(rng):
    """A small deterministic epoch: 10 locations, 25 devices, 1h."""
    locations = [f"ap{i}" for i in range(10)]
    devices = [f"dev{i}" for i in range(25)]
    records = []
    for t in range(0, EPOCH_DURATION, TIME_STEP):
        for device in devices:
            records.append((locations[rng.randrange(10)], t, device))
    return records


@pytest.fixture
def grid_spec():
    return GridSpec(dimension_sizes=(8, 24), cell_id_count=64, epoch_duration=EPOCH_DURATION)


def make_stack(
    grid_spec,
    records,
    oblivious: bool = False,
    verify: bool = False,
    fake_strategy: FakeStrategy = FakeStrategy.SIMULATED,
    seed: int = 1,
    engine=None,
    sidecar: bool = True,
    **config,
):
    """Build a provisioned provider/service pair with one ingested epoch.

    Extra keyword arguments flow into :class:`ServiceConfig` (e.g.
    ``super_bin_count=4`` to arm §8's workload defence).  ``engine``
    lets a test supply its own storage engine (e.g. a replicated or
    Byzantine-wrapped group).  ``sidecar=False`` lands the package
    without its packed bins, so every bin is fetched by trapdoor.
    """
    provider = DataProvider(
        WIFI_SCHEMA,
        grid_spec,
        first_epoch_id=0,
        master_key=MASTER_KEY,
        fake_strategy=fake_strategy,
        time_granularity=TIME_STEP,
        rng=random.Random(seed),
    )
    service = ServiceProvider(
        WIFI_SCHEMA,
        ServiceConfig(oblivious=oblivious, verify=verify, **config),
        engine=engine,
    )
    provider.provision_enclave(service.enclave)
    package = provider.encrypt_epoch(records, epoch_id=0)
    if not sidecar:
        package = dataclasses.replace(package, packed_bins=None)
    service.ingest_epoch(package)
    return provider, service


@pytest.fixture
def stack(grid_spec, wifi_records):
    """(provider, service) with one plain (non-oblivious) epoch loaded."""
    return make_stack(grid_spec, wifi_records)


@pytest.fixture
def oblivious_stack(grid_spec, wifi_records):
    """(provider, service) running the Concealer+ oblivious paths."""
    return make_stack(grid_spec, wifi_records, oblivious=True)


def ground_truth_count(records, location=None, t0=None, t1=None, device=None):
    """Reference implementation used to check every encrypted answer."""
    total = 0
    for rec_location, rec_time, rec_device in records:
        if location is not None and rec_location != location:
            continue
        if device is not None and rec_device != device:
            continue
        if t0 is not None and rec_time < t0:
            continue
        if t1 is not None and rec_time > t1:
            continue
        total += 1
    return total


def stored_rows(engine, table):
    """A table's stored rows in row-id order, read from its image (no
    access-log entry)."""
    from repro.storage.table import Row

    rows = engine.image(table).all_rows()
    return [Row(row_id, rows[row_id]) for row_id in sorted(rows)]


def is_fake_row(context, row) -> bool:
    """Whether a fetched row is one of the provider's fakes (by the
    index key the enclave decrypts)."""
    from repro.core.schema import unpad_plaintext

    plaintext = unpad_plaintext(context.det.decrypt(row[-1]))
    return plaintext.split(b"\x1f")[0] != b"idx"


def as_trapdoor_heads(engine):
    """``engine``'s access log as the trapdoor fetch kind records it: a
    slot-run read's ``BIN_READ`` head (detail ``(bin, start, stop)``)
    becomes one ``INDEX_LOOKUP`` per row, detailed with the row's stored
    index key — the trapdoor that finds it.  Every other event, the
    ``ROW_READ``/``PAGE_READ`` stream included, passes through as is."""
    from repro.storage.pager import AccessEvent, AccessKind

    keys = {}
    for table in engine.table_names():
        keys.update({(table, row.row_id): row.columns[-1] for row in stored_rows(engine, table)})
    owed = 0
    for event in engine.access_log:
        if event.kind is AccessKind.BIN_READ and isinstance(event.detail, tuple):
            _, start, stop = event.detail
            owed = stop - start
            continue
        if event.kind is AccessKind.ROW_READ and owed:
            owed -= 1
            key = keys[event.table, event.detail]
            yield AccessEvent(AccessKind.INDEX_LOOKUP, event.table, key, event.query_id)
        yield event
