"""Byte-identity of the packages Algorithm 1 ships.

Two paths produce epoch packages — the serial pass and the
cell-id-partitioned process pool (``workers=N``).  Given the same
records and the same-seed RNG both must serialize to the **same
bytes** — the pool is a performance rewrite of Algorithm 1, not a
semantic fork, and the Line-24 permutation plus every nonce draw stays
single-threaded in the parent for exactly this reason — and those bytes
are pinned to golden digests captured from the per-row scalar-cipher
path the cipher suite replaced.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import WIFI_SCHEMA, GridSpec
from repro.core.encryptor import EpochEncryptor, FakeStrategy
from repro.exceptions import EpochError

MASTER_KEY = bytes(range(32))
EPOCH_DURATION = 3600
SPEC = GridSpec(
    dimension_sizes=(8, 24), cell_id_count=64, epoch_duration=EPOCH_DURATION
)


def _records(count: int, seed: int = 7) -> list[tuple]:
    rng = random.Random(seed)
    locations = [f"ap{i}" for i in range(10)]
    return [
        (
            locations[rng.randrange(10)],
            rng.randrange(0, EPOCH_DURATION, 60),
            f"dev{i % 40}",
        )
        for i in range(count)
    ]


def _package_bytes(
    records,
    *,
    workers: int = 1,
    fake_strategy: FakeStrategy = FakeStrategy.SIMULATED,
    seed: int = 1,
) -> bytes:
    encryptor = EpochEncryptor(
        WIFI_SCHEMA,
        SPEC,
        MASTER_KEY,
        fake_strategy=fake_strategy,
        time_granularity=60,
        rng=random.Random(seed),
        workers=workers,
    )
    return encryptor.encrypt_epoch(records, epoch_id=0).serialize()


# sha256 of ``_package_bytes(...)``; captured at 6bdc836 from the
# encryptor's per-row scalar arm — the scalar ``DeterministicCipher`` /
# ``RandomizedCipher`` of that commit run row by row — before the one
# cipher suite replaced both.
GOLDEN_SCALAR_COUNTS = {
    0: "e6e6c0bf9bd0a84be970deea0d891fc8354a82e53e2c5e9383fcd9904d4eeb41",
    1: "a1ca33f773c2ea747a903e660caf73e64398c499e67a2f6e4af0cfc01612557e",
    37: "94d23abd74f5aa45ee5d7c40bef54371273aa2da6c376c84caa900996f4a23c2",
    300: "f3dceadedf60cc5dbd8498cf3f883ac26c47bf603f697855168c229e387b393a",
}
GOLDEN_SCALAR_STRATEGIES = {
    FakeStrategy.EQUAL: (
        "3c1997cf3fda9435c1369eb898fc05656623f9d4108ffcf2a7c0cc69900def8d"
    ),
    FakeStrategy.SIMULATED: (
        "a9a9dbb2d02115529e5b5d48eb2f86266941f31882ef748b8019bd2d31b91cd2"
    ),
}


class TestKernelEqualsScalar:
    """The cipher suite ships the bytes the scalar ciphers shipped."""

    @pytest.mark.parametrize("count", [0, 1, 37, 300])
    def test_serialized_packages_match(self, count):
        digest = hashlib.sha256(_package_bytes(_records(count))).hexdigest()
        assert digest == GOLDEN_SCALAR_COUNTS[count]

    @pytest.mark.parametrize("strategy", list(FakeStrategy))
    def test_matches_across_fake_strategies(self, strategy):
        package = _package_bytes(_records(120), fake_strategy=strategy)
        assert hashlib.sha256(package).hexdigest() == GOLDEN_SCALAR_STRATEGIES[strategy]


class TestParallelEqualsSerial:
    """``workers=N`` packages are bit-for-bit ``workers=1`` packages."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_serialized_packages_match(self, workers):
        # Enough rows that the pool actually engages (the encryptor
        # degrades to serial below min_rows_per_worker * workers rows).
        records = _records(EpochEncryptor.min_rows_per_worker * workers + 50)
        assert _package_bytes(records, workers=workers) == _package_bytes(
            records, workers=1
        )

    def test_small_epochs_degrade_to_serial(self):
        records = _records(EpochEncryptor.min_rows_per_worker - 1)
        assert _package_bytes(records, workers=4) == _package_bytes(
            records, workers=1
        )

    def test_report_records_effective_workers(self):
        records = _records(EpochEncryptor.min_rows_per_worker * 4 + 50)
        encryptor = EpochEncryptor(
            WIFI_SCHEMA,
            SPEC,
            MASTER_KEY,
            time_granularity=60,
            rng=random.Random(1),
            workers=4,
        )
        encryptor.encrypt_epoch(records, epoch_id=0)
        assert encryptor.last_report.workers > 1

    def test_workers_override_per_call(self):
        records = _records(EpochEncryptor.min_rows_per_worker * 2 + 50)
        one = EpochEncryptor(
            WIFI_SCHEMA, SPEC, MASTER_KEY, time_granularity=60,
            rng=random.Random(1), workers=4,
        )
        two = EpochEncryptor(
            WIFI_SCHEMA, SPEC, MASTER_KEY, time_granularity=60,
            rng=random.Random(1),
        )
        assert (
            one.encrypt_epoch(records, epoch_id=0, workers=1).serialize()
            == two.encrypt_epoch(records, epoch_id=0, workers=2).serialize()
        )

    def test_zero_workers_rejected(self):
        encryptor = EpochEncryptor(WIFI_SCHEMA, SPEC, MASTER_KEY)
        with pytest.raises(EpochError):
            encryptor.encrypt_epoch([], epoch_id=0, workers=0)


class TestParallelPackagesServe:
    """A pool-built package survives ingest + verified querying."""

    def test_ingest_and_query(self):
        from tests.conftest import make_stack
        from repro.core.queries import PointQuery

        records = [
            (f"ap{d % 8}", t, f"dev{d}")
            for t in range(0, EPOCH_DURATION, 60)
            for d in range(8)
        ]
        _, serial_service = make_stack(SPEC, records, verify=True)
        provider_records = records  # identical inputs, parallel provider
        from tests.conftest import MASTER_KEY as CONF_KEY
        from repro import DataProvider, ServiceConfig, ServiceProvider

        provider = DataProvider(
            WIFI_SCHEMA,
            SPEC,
            first_epoch_id=0,
            master_key=CONF_KEY,
            time_granularity=60,
            rng=random.Random(1),
            ingest_workers=4,
        )
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(provider_records, epoch_id=0))

        query = PointQuery(index_values=("ap3",), timestamp=120)
        assert (
            service.execute_point(query)[0]
            == serial_service.execute_point(query)[0]
        )


# sha256 over every shard package's serialize() (rows, tags, the three
# metadata vectors, enc_grid_key, PackedBin blobs, AggTree bytes), then
# over repr(rng.getstate()); captured at 12ac7c2, before the one-pass
# placement and the shared cell-id allocation.
GOLDEN_SHARDED = {
    1: (
        "419782507899cadcc304b35c9ebc68f8495b0e8ed2180d7da301a86a1848d51d",
        "fd70d12746a585462f550b683d5fa0d3c783c466cfe67b8f435c82c6711be8f2",
    ),
    2: (
        "18368d38af3038a57637f14749e2a8a39d9e14a45187405998cad24d8414b42d",
        "cb4854e7b562e3ce295ca8e89adf71e3161cb8ea927bcc0aeea50c4f699c29e8",
    ),
    4: (
        "2bc7b03a394377954dfb03fcca572ff734d214b09f538998f094cc01aa5fa6ef",
        "bb5f4438add6173434dd3d37a81f664cadfd1510ed35e589915dc3b09281ffc8",
    ),
}


class TestShardedPackagesAreGolden:
    """``encrypt_epoch_sharded`` ships the bytes it always shipped.

    Extends workers-independence to "no later change moved a byte":
    for a fixed provider RNG seed the packages of a 1-, 2- and 4-shard
    fleet hash to fixed digests and leave the RNG in a fixed state.
    """

    @pytest.mark.parametrize("shards", sorted(GOLDEN_SHARDED))
    def test_packages_and_rng_state(self, shards):
        from repro import DataProvider
        from repro.sharding.topology import ShardTopology

        rng = random.Random(5)
        provider = DataProvider(
            WIFI_SCHEMA,
            GridSpec(
                dimension_sizes=(12, 60), cell_id_count=180,
                epoch_duration=EPOCH_DURATION,
            ),
            first_epoch_id=0,
            master_key=MASTER_KEY,
            bin_size=64,
            time_granularity=60,
            rng=rng,
        )
        packages = provider.encrypt_epoch_sharded(
            _records(900), 0, ShardTopology(shards)
        )
        assert len(packages) == shards
        assert all(p.packed_bins and p.agg_tree is not None for p in packages)
        digest = hashlib.sha256()
        for package in packages:
            digest.update(package.serialize())
        state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()
        assert (digest.hexdigest(), state) == GOLDEN_SHARDED[shards]
