"""Tests for master-key rotation (§1.2(i) extension)."""

import random

import pytest

from repro import (
    DataProvider,
    GridSpec,
    PointQuery,
    ServiceProvider,
    WIFI_SCHEMA,
    telemetry,
)
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.exceptions import AuthorizationError, CryptoError, EnclaveCrashed
from repro.faults.clock import VirtualClock
from repro.faults.injector import FaultEvent, FaultInjector
from repro.faults.recovery import RecoveryCoordinator
from repro.sharding.coordinator import rotate_sharded_keys
from repro.sharding.service import build_replica_group
from repro.storage.pager import AccessKind
from repro.workloads.queries import build_q1

from tests.conftest import MASTER_KEY, is_fake_row, make_stack, stored_rows

OLD_KEY = b"\x81" * 32
NEW_KEY = b"\x82" * 32


@pytest.fixture
def rotated_world(wifi_records, grid_spec):
    provider = DataProvider(
        WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
        time_granularity=60, rng=random.Random(8),
    )
    service = ServiceProvider(WIFI_SCHEMA)
    provider.provision_enclave(service.enclave)
    service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
    token = rotation_token(OLD_KEY, NEW_KEY)
    rotated = rotate_service_keys(service, NEW_KEY, token)
    return service, rotated, wifi_records


class TestRotation:
    def test_rows_rotated(self, rotated_world):
        service, rotated, records = rotated_world
        assert rotated == service.engine.row_count("epoch_0")

    def test_queries_correct_after_rotation(self, rotated_world):
        service, _, records = rotated_world
        for location, timestamp, _ in records[::211]:
            answer, _ = service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            expected = sum(
                1 for r in records if r[0] == location and r[1] == timestamp
            )
            assert answer == expected

    def test_range_queries_correct_after_rotation(self, rotated_world):
        service, _, records = rotated_world
        for method in ("multipoint", "ebpb", "winsecrange"):
            answer, _ = service.execute_range(
                build_q1("ap1", 0, 1800), method=method
            )
            expected = sum(
                1 for r in records if r[0] == "ap1" and r[1] <= 1800
            )
            assert answer == expected

    def test_verification_still_works_after_rotation(
        self, wifi_records, grid_spec
    ):
        from repro import ServiceConfig

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
            time_granularity=60, rng=random.Random(9),
        )
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
        rotate_service_keys(service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY))
        location, timestamp, _ = wifi_records[0]
        answer, stats = service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert stats.verified
        assert answer >= 1

    def test_old_trapdoors_dead_after_rotation(self, wifi_records, grid_spec):
        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
            time_granularity=60, rng=random.Random(10),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
        context = service.context_for(0)
        old_trapdoors = context.trapdoors_for_bin(context.layout.bins[0])
        rotate_service_keys(service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY))
        assert service.engine.lookup_many("epoch_0", "index_key", old_trapdoors) == []

    def test_sidecarless_epoch_looks_up_only_new_key_trapdoors(
        self, wifi_records, grid_spec
    ):
        """Every trapdoor is derived per request under the live key:
        after a rotation no index-lookup key repeats one sent before,
        and the answers still match the records."""
        _, service = make_stack(grid_spec, wifi_records, verify=True, sidecar=False)
        location, timestamp, _ = wifi_records[0]
        point = PointQuery(index_values=(location,), timestamp=timestamp)
        ranged = build_q1("ap1", 0, 1800)
        expected = [
            sum(1 for r in wifi_records if r[:2] == (location, timestamp)),
        ] + [sum(1 for r in wifi_records if r[0] == "ap1" and r[1] <= 1800)] * 3

        def keys_and_answers():
            service.engine.access_log.clear()
            answers = [service.execute_point(point)[0]] + [
                service.execute_range(ranged, method=method)[0]
                for method in ("multipoint", "ebpb", "winsecrange")
            ]
            keys = {
                event.detail
                for event in service.engine.access_log
                if event.kind is AccessKind.INDEX_LOOKUP
            }
            return keys, answers

        before, answers = keys_and_answers()
        assert before and answers == expected
        rotate_service_keys(service, NEW_KEY, rotation_token(MASTER_KEY, NEW_KEY))
        after, answers = keys_and_answers()
        assert after and answers == expected
        assert before.isdisjoint(after)

    def test_stored_ciphertexts_changed(self, wifi_records, grid_spec):
        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
            time_granularity=60, rng=random.Random(11),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
        before = {
            row.row_id: row.columns
            for row in service.engine._tables["epoch_0"].scan()
        }
        rotate_service_keys(service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY))
        after = {
            row.row_id: row.columns
            for row in service.engine._tables["epoch_0"].scan()
        }
        assert all(before[rid] != after[rid] for rid in before)


class TestRotationAuthorization:
    def make_service(self, wifi_records, grid_spec, seed=12):
        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
            time_granularity=60, rng=random.Random(seed),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
        return service

    def test_forged_token_rejected(self, wifi_records, grid_spec):
        service = self.make_service(wifi_records, grid_spec)
        with pytest.raises(AuthorizationError):
            rotate_service_keys(service, NEW_KEY, b"\x00" * 32)

    def test_host_cannot_rotate_to_its_own_key(self, wifi_records, grid_spec):
        """Token from the wrong 'old' key (host-chosen) fails."""
        service = self.make_service(wifi_records, grid_spec, seed=13)
        host_key = b"\x99" * 32
        with pytest.raises(AuthorizationError):
            rotate_service_keys(
                service, host_key, rotation_token(host_key, host_key)
            )

    def test_tampered_storage_aborts_rotation(self, wifi_records, grid_spec):
        service = self.make_service(wifi_records, grid_spec, seed=14)
        victim = next(iter(service.engine._tables["epoch_0"].scan()))
        columns = list(victim.columns)
        columns[-1] = b"\x00" * len(columns[-1])  # smash an index key
        service.engine._tables["epoch_0"].overwrite(victim.row_id, columns)
        with pytest.raises(CryptoError):
            rotate_service_keys(
                service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY)
            )


class TestRotationAuthenticatesWhatItReseals:
    """Rotation seals new tags over the stored rows, so rows the data
    provider never shipped must not come out of it authenticated: any
    tampering at rest aborts with the old key live, and once the host
    puts its bytes back the old key answers, verified, as before."""

    @pytest.fixture
    def world(self, wifi_records, grid_spec):
        from repro import ServiceConfig

        provider = DataProvider(
            WIFI_SCHEMA, grid_spec, 0, master_key=OLD_KEY,
            time_granularity=60, rng=random.Random(15),
        )
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
        provider.provision_enclave(service.enclave)
        service.ingest_epoch(provider.encrypt_epoch(wifi_records, 0))
        location, timestamp, _ = wifi_records[0]
        expected = sum(
            1 for r in wifi_records if r[0] == location and r[1] == timestamp
        )
        context = service.context_for(0)
        wanted = context.det.encrypt(
            WIFI_SCHEMA.filter_plaintext_for_values(
                WIFI_SCHEMA.filter_groups[0], (location,), timestamp
            )
        )
        rows = stored_rows(service.engine, "epoch_0")
        matching = [row for row in rows if row.columns[0] == wanted]
        other = next(
            row for row in rows
            if row.columns[0] != wanted and not is_fake_row(context, row)
        )
        assert len(matching) == expected >= 1
        query = PointQuery(index_values=(location,), timestamp=timestamp)
        return service, query, expected, matching, other

    def _rotation_aborts(self, service):
        engine = service.engine
        tampered = [row.columns for row in stored_rows(engine, "epoch_0")]
        with pytest.raises(CryptoError):
            rotate_service_keys(
                service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY)
            )
        assert service.enclave.master_key == OLD_KEY
        assert [r.columns for r in stored_rows(engine, "epoch_0")] == tampered

    def _old_key_answers(self, service, query, expected):
        answer, stats = service.execute_point(query)
        assert answer == expected and stats.verified

    @pytest.mark.parametrize("substitute", ["zeros", "another row's filter"])
    def test_rewritten_real_column_aborts(self, world, substitute):
        service, query, expected, matching, other = world
        width = len(other.columns[0])
        forged = b"\x00" * width if substitute == "zeros" else other.columns[0]
        for row in matching:
            service.engine.overwrite(
                "epoch_0", row.row_id, [forged, *row.columns[1:]]
            )
        self._rotation_aborts(service)
        for row in matching:
            service.engine.overwrite("epoch_0", row.row_id, list(row.columns))
        self._old_key_answers(service, query, expected)

    def test_dropped_row_aborts(self, world):
        service, query, expected, matching, _ = world
        service.engine.delete("epoch_0", matching[0].row_id)
        self._rotation_aborts(service)
        service.engine.insert("epoch_0", list(matching[0].columns))
        self._old_key_answers(service, query, expected)

    def test_duplicated_row_aborts(self, world):
        service, query, expected, matching, _ = world
        service.engine.insert("epoch_0", list(matching[0].columns))
        self._rotation_aborts(service)

    def test_untampered_rotation_unchanged(self, world):
        service, query, expected, *_ = world
        rows = rotate_service_keys(
            service, NEW_KEY, rotation_token(OLD_KEY, NEW_KEY)
        )
        assert rows == service.engine.row_count("epoch_0")
        self._old_key_answers(service, query, expected)  # now under NEW_KEY


def _images(engine, table="epoch_0"):
    """Every host's image of ``table`` and the bytes of its sealed bins."""
    hosts = getattr(engine, "replicas", [engine])
    return [
        (host.image(table), {
            b: pb.to_bytes() for b, pb in (host._tables[table].packed_bins or {}).items()
        })
        for host in hosts
    ]


class TestAbortedRotationRestoresWholeImages:
    """An aborted rotation installs each touched epoch's pre-rotation
    image back: every host's rows, next row id, index definitions,
    sealed-bin layout and bytes and tree are as before, and the old key
    answers, verified, from sealed bins."""

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_enclave_killed_at_a_rotation_kill_point(
        self, wifi_records, grid_spec, replicas, where
    ):
        engine = build_replica_group(replicas, clock=VirtualClock()) if replicas > 1 else None
        provider, service = make_stack(grid_spec, wifi_records, verify=True, engine=engine)
        second = grid_spec.epoch_duration
        service.ingest_epoch(provider.encrypt_epoch(
            [(loc, t + second, dev) for loc, t, dev in wifi_records], epoch_id=second
        ))
        tables = service.engine.table_names()
        before = {table: _images(service.engine, table) for table in tables}
        assert all(images[0][0].bins for images in before.values())
        # One kill point per epoch, then one per row.  "first" kills
        # before anything is written; "middle" and "last" kill in the
        # second epoch, after the first was installed re-keyed.
        rows = [service.engine.row_count(table) for table in tables]
        kill = {"first": 0, "middle": rows[0] + 1 + rows[1] // 2, "last": sum(rows) + 1}[where]
        injector = FaultInjector.from_schedule([FaultEvent("enclave.kill.rotation", kill)])
        service.enclave.fault_injector = injector
        with telemetry.scoped_registry() as registry:
            with pytest.raises(EnclaveCrashed):
                rotate_service_keys(service, NEW_KEY, rotation_token(MASTER_KEY, NEW_KEY))
        assert injector.fired
        rolled_back = registry.value("concealer_rotation_epochs_total", phase="rollback")
        assert rolled_back == (0 if where == "first" else 1)
        assert {table: _images(service.engine, table) for table in tables} == before

        RecoveryCoordinator(provider, service).recover()
        assert service.enclave.master_key == MASTER_KEY
        service.engine.access_log.clear()
        location, timestamp, _ = wifi_records[0]
        answer, stats = service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert answer == sum(1 for r in wifi_records if r[:2] == (location, timestamp))
        assert stats.verified
        assert {e.kind for e in service.engine.access_log} & {
            AccessKind.BIN_READ, AccessKind.INDEX_LOOKUP
        } == {AccessKind.BIN_READ}

    def test_two_shard_abort_after_prepare(self, tmp_path):
        from tests.sharding.conftest import epoch_records, make_fleet

        records = epoch_records(0, seed=5)  # both shards hold sealed rows
        _, probe, _ = make_fleet(tmp_path / "probe", records=records)
        shard0 = probe.shards[0].service
        # Shard 0 prepares whole; the next kill point is shard 1's first,
        # so the coordinator aborts shard 0's prepared rotation.
        crash = 1 + shard0.engine.row_count(shard0._table_name(0))
        injector = FaultInjector.from_schedule([FaultEvent("enclave.kill.rotation", crash)])
        provider, sharded, _ = make_fleet(
            tmp_path / "fleet", records=records, fault_injector=injector
        )
        table = sharded.shards[0].service._table_name(0)
        before = [_images(shard.service.engine, table) for shard in sharded.shards]
        assert all(images[0][0].bins and images[0][0].tree for images in before)
        with pytest.raises(EnclaveCrashed):
            rotate_sharded_keys(sharded, NEW_KEY, rotation_token(provider.master_key, NEW_KEY))
        assert injector.fired
        assert [_images(shard.service.engine, table) for shard in sharded.shards] == before

    def test_a_rotted_primary_aborts_without_touching_its_peers(
        self, wifi_records, grid_spec
    ):
        """The epoch that fails verification was never written, so the
        rollback does not install the rotted replica's rows on its peers."""
        engine = build_replica_group(3, clock=VirtualClock())
        _, service = make_stack(grid_spec, wifi_records, verify=True, engine=engine)
        before = _images(engine)
        primary = engine.replicas[0]
        row_id, columns = next(iter(primary.image("epoch_0").all_rows().items()))
        rotted = columns[0][:-1] + bytes([columns[0][-1] ^ 1])
        primary.overwrite("epoch_0", row_id, [rotted, *columns[1:]])
        with pytest.raises(CryptoError):
            rotate_service_keys(service, NEW_KEY, rotation_token(MASTER_KEY, NEW_KEY))
        assert _images(engine)[1:] == before[1:]
