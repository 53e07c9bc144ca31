"""A sealed bin is the record of truth for the rows it holds: the table
keeps each such row's (bin, slot) position and reads it as a slice of
the bin, the service keeps no copy beyond the epoch's master image, and
every read, image and whole-table round trip serves the bytes the rows
landed as.  A whole-table move carries the bins whole: an image holds
them, an install holds them as they are, so no move packs or unpacks a
bin (key rotation, which changes the sealed bytes, aside)."""

from __future__ import annotations

import gc
import random
import types

import pytest

from repro import WIFI_SCHEMA, DataProvider, FakeStrategy, ServiceConfig, ServiceProvider
from repro.core.epoch import EncryptedRow, EpochPackage
from repro.exceptions import EpochError
from repro.core.packed import PackedBin
from repro.core.rotation import (
    abort_rotation, prepare_rotation, rotate_service_keys, rotation_token,
)
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.recovery import RecoveryCoordinator
from repro.replication.engine import ReplicatedStorageEngine
from repro.storage.btree import BPlusTree
from repro.storage.checkpoint import checkpoint_engine, restore_engine
from repro.storage.engine import StorageEngine
from repro.storage.table import Row

from tests.conftest import EPOCH_DURATION, MASTER_KEY, TIME_STEP, make_stack
from tests.replication.conftest import make_replicated_stack, replication_records

TAMPER = ("storage.row.corrupt", "storage.row.drop", "storage.row.duplicate")


def _injector(seed: int) -> FaultInjector:
    return FaultInjector(seed, [FaultSpec(site, 0.4, None) for site in TAMPER])


@pytest.fixture(params=[FakeStrategy.SIMULATED, FakeStrategy.EQUAL])
def package(request, grid_spec, wifi_records) -> EpochPackage:
    """A full package: SIMULATED puts every row in a bin, EQUAL leaves
    a fake pool outside them."""
    provider = DataProvider(
        WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
        fake_strategy=request.param, time_granularity=TIME_STEP,
        rng=random.Random(1),
    )
    return provider.encrypt_epoch(wifi_records, epoch_id=0)


def land(package: EpochPackage, sealed: bool, injector=None) -> StorageEngine:
    """The package landed as ingest lands it; ``sealed=False`` keeps
    every row a tuple (the reference the sealed table must match)."""
    engine = StorageEngine(fault_injector=injector)
    engine.create_table("t", package.column_names)
    engine.create_index("t", "index_key")
    engine.insert_many("t", [tuple(row.as_columns()) for row in package.rows])
    if sealed:
        engine.store_packed_bins("t", package.packed_bins)
        engine.store_agg_tree("t", package.agg_tree)
    return engine


def _keys(package: EpochPackage) -> list[bytes]:
    return [row.index_key for row in package.rows] + [b"\x00" * 48]


class TestReadsAreTheLandedBytes:
    def test_the_binned_rows_leave_the_row_store(self, package):
        table = land(package, sealed=True)._tables["t"]
        binned = {r for pb in package.packed_bins for r in pb.row_ids}
        assert set(table._rows) == set(range(len(package.rows))) - binned
        assert len(table) == len(package.rows)

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_lookups_match_the_tuple_store(self, package, seed):
        armed = (lambda: _injector(seed)) if seed is not None else (lambda: None)
        sealed, plain = land(package, True, armed()), land(package, False, armed())
        keys = _keys(package)
        for start in range(0, len(keys), 37):
            batch = keys[start : start + 37]
            assert sealed.lookup_many("t", "index_key", batch) == plain.lookup_many(
                "t", "index_key", batch
            )
        assert sealed.access_log.events() == plain.access_log.events()
        assert list(sealed.scan("t")) == list(plain.scan("t"))
        assert sealed.image("t").all_rows() == plain.image("t").all_rows() == {
            i: tuple(row.as_columns()) for i, row in enumerate(package.rows)
        }

    @pytest.mark.parametrize("seed", [None, 5, 17])
    def test_bin_reads_are_the_sealed_bins(self, package, seed):
        engine = land(package, True, _injector(seed) if seed is not None else None)
        twin = StorageEngine(fault_injector=_injector(seed) if seed is not None else None)
        for pb in package.packed_bins:
            runs = [(pb.bin_index, 0, pb.row_count)]
            served = engine.fetch_packed_bin("t", runs)
            if seed is None:
                assert served is pb  # zero-copy
            assert served.to_bytes() == twin._tamper_packed(pb).to_bytes()
            half = pb.row_count // 2
            run = engine.fetch_packed_bin("t", [(pb.bin_index, half, pb.row_count)])
            expected = PackedBin.join_runs([(pb, half, pb.row_count)])
            assert run.to_bytes() == twin._tamper_packed(expected).to_bytes()
        # Tampering touches the returned batch only.
        assert engine.image("t").all_rows() == land(package, False).image("t").all_rows()


class TestMutationMaterialises:
    @pytest.mark.parametrize("op", ["overwrite", "insert", "delete"])
    def test_a_row_mutation_drops_both_sidecars(self, package, op):
        sealed, plain = land(package, True), land(package, False)
        victim = package.packed_bins[0].row_ids[0]
        for engine in (sealed, plain):
            if op == "overwrite":
                engine.overwrite("t", victim, tuple(reversed(package.rows[1].as_columns())))
            elif op == "insert":
                engine.insert("t", package.rows[2].as_columns())
            else:
                engine.delete("t", victim)
        table = sealed._tables["t"]
        assert not sealed.has_packed_bins("t") and not sealed.has_agg_tree("t")
        assert len(table._rows) == len(table) == len(plain._tables["t"])
        assert sealed.image("t") == plain.image("t")
        for key in _keys(package):
            assert sealed.lookup("t", "index_key", key) == plain.lookup(
                "t", "index_key", key
            )

    def test_dropping_the_bins_directly_keeps_every_row(self, package):
        engine = land(package, True)
        before = engine.image("t").all_rows()
        engine._tables["t"].packed_bins = None
        assert engine.image("t").all_rows() == before


def _reachable_bins(root) -> list[PackedBin]:
    """Every PackedBin reachable from ``root`` through instances and
    containers (classes, modules and functions are not followed)."""
    seen, found, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, PackedBin):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestHeldOnce:
    def test_replicas_share_the_landed_bins(self, grid_spec, wifi_records):
        replicas = [StorageEngine() for _ in range(3)]
        _, service = make_stack(grid_spec, wifi_records, engine=ReplicatedStorageEngine(replicas))
        retained = list(service._masters[0].bins.values())
        for replica in replicas:
            stored = replica._tables["epoch_0"].packed_bins
            assert [stored[pb.bin_index] for pb in retained] == retained
            assert all(stored[pb.bin_index] is pb for pb in retained)

    def test_landing_leaves_no_per_row_object(self, grid_spec, wifi_records):
        provider, service = make_stack(grid_spec, wifi_records)
        epoch = EPOCH_DURATION
        wire = provider.encrypt_epoch(
            [(loc, epoch + t, dev) for loc, t, dev in wifi_records], epoch_id=epoch
        ).serialize()
        service.evict_epoch(0)
        gc.collect()
        before = len(gc.get_objects())
        package = EpochPackage.deserialize(wire)
        rows = len(package.rows)
        service.ingest_epoch(package)
        del package
        gc.collect()
        assert service._packages[epoch].rows is None  # metadata kept, rows in storage
        assert sum(1 for o in gc.get_objects() if type(o) is EncryptedRow) == 0
        assert len(gc.get_objects()) - before < rows // 8
        assert service.engine._tables[service._table_name(epoch)]._rows == {}

    def test_rotation_leaves_no_pre_rotation_bin_reachable(self, grid_spec, wifi_records):
        _, service = make_stack(grid_spec, wifi_records, verify=True)
        landed = {id(pb) for pb in _reachable_bins(service)}
        assert landed
        new_master = bytes(range(32, 64))
        rotate_service_keys(service, new_master, rotation_token(MASTER_KEY, new_master))
        rotated = _reachable_bins(service)
        assert rotated and not landed & {id(pb) for pb in rotated}
        assert service._masters[0] == service.engine.image("epoch_0")

    def test_an_image_holds_the_bins_and_no_row_tuple(self, package, monkeypatch):
        engine = land(package, True)
        table = engine._tables["t"]

        def unpacked(*_):
            raise AssertionError("a sealed row was unpacked")

        for name in ("column_cells", "cell", "unpack", "__getitem__"):
            monkeypatch.setattr(PackedBin, name, unpacked)
        image = engine.image("t")
        assert all(image.bins[b] is pb for b, pb in table.packed_bins.items())
        assert image.rows == table._rows
        assert all(image.rows[r] is table._rows[r] for r in image.rows)

    def test_install_packs_nothing_and_shares_the_bins(self, package, monkeypatch):
        image = land(package, True).image("t")
        monkeypatch.setattr(PackedBin, "pack", None)
        other = StorageEngine()
        assert other.install(image) == len(package.rows)
        assert other.image("t") == image
        held = other._tables["t"].packed_bins
        assert all(held[b] is pb for b, pb in image.bins.items())
        assert other._tables["t"]._rows == image.rows


class TestRoundTrips:
    @pytest.mark.parametrize("oblivious", [False, True])
    def test_master_source_is_the_landed_image(self, grid_spec, wifi_records, oblivious):
        provider, service = make_stack(grid_spec, wifi_records, oblivious=oblivious)
        coordinator = RecoveryCoordinator(provider, service)
        assert coordinator.master_source("epoch_0") == service.engine.image("epoch_0")

    @pytest.mark.parametrize("oblivious", [False, True])
    def test_the_master_image_is_the_shipped_package(self, package, oblivious):
        service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(oblivious=oblivious))
        wire = package.serialize()
        service.ingest_epoch(EpochPackage.deserialize(wire))
        master = service._masters[0]
        assert master == service.engine.image("epoch_0")
        assert master.all_rows() == dict(enumerate(EpochPackage.deserialize(wire).stored_rows()))
        assert (master.bins is None) == oblivious
        kept = service._packages[0]
        assert kept.packed_bins is None and kept.agg_tree is None and kept.rows is None
        with pytest.raises(EpochError):
            kept.stored_rows()

    def test_an_installed_index_is_the_one_sequential_inserts_build(self):
        """Equal keys across loose rows and two sealed bins, the bins'
        slots out of row-id order: the bulk-loaded index lists each
        key's row ids as inserting the rows one by one does."""
        keys = [b"k1", b"k0", b"k1", b"k2", b"k0", b"k1", b"k0", b"k2"]
        rows = [(key, b"v%d" % row_id) for row_id, key in enumerate(keys)]
        engine = StorageEngine()
        engine.create_table("t", ("index_key", "value"))
        engine.create_index("t", "index_key")
        engine.insert_many("t", rows)
        engine.store_packed_bins("t", [
            PackedBin.pack(0, [Row(r, rows[r]) for r in (5, 1, 2)]),
            PackedBin.pack(1, [Row(r, rows[r]) for r in (6, 4)]),
        ])
        assert engine._tables["t"]._slots  # sealed: the bins hold 5 rows
        other = StorageEngine()
        other.install(engine.image("t"))
        sequential = BPlusTree(order=other.btree_order)
        for row_id, key in enumerate(keys):
            sequential.insert(key, row_id)
        assert list(other._indexes[("t", "index_key")].items()) == list(sequential.items())

    @pytest.mark.parametrize("landed", ["all but one", "none"])
    def test_bins_beside_the_rows_image_and_install_back(self, package, landed):
        """A replica that skipped a row while landing holds the rows after
        it at shifted ids, so the bins name a row it lacks and stay
        beside its rows; its image installs back to that same state —
        also when it landed no row at all, so no loose row names a bin's."""
        skipped = package.packed_bins[0].row_ids[0]
        engine = StorageEngine()
        engine.create_table("t", package.column_names)
        engine.create_index("t", "index_key")
        rows = [tuple(row.as_columns()) for row in package.rows]
        if landed == "all but one":
            engine.insert_many("t", rows[:skipped] + rows[skipped + 1 :])
        engine.store_packed_bins("t", package.packed_bins)
        table = engine._tables["t"]
        assert engine.has_packed_bins("t") and not table._slots
        image = engine.image("t")
        other = StorageEngine()
        other.install(image)
        assert other.image("t") == image
        assert not other._tables["t"]._slots and other._tables["t"]._rows == table._rows
        assert other.image("t").all_rows() == table.rows()
        for key in _keys(package):
            assert other.lookup("t", "index_key", key) == engine.lookup("t", "index_key", key)

    def test_checkpoint_restore_and_rotation_abort(self, grid_spec, wifi_records, tmp_path):
        _, service = make_stack(grid_spec, wifi_records, verify=True)
        before = service.engine.image("epoch_0")
        restored = restore_engine(checkpoint_engine(service.engine, tmp_path / "c"))
        assert restored.image("epoch_0") == before
        new_master = bytes(range(32, 64))
        prepared = prepare_rotation(service, new_master, rotation_token(MASTER_KEY, new_master))
        assert service.engine.image("epoch_0").all_rows() != before.all_rows()
        abort_rotation(prepared)
        assert service.engine.image("epoch_0") == before

    def test_repair_installs_the_peer_image(self):
        _, service, engine, members, _ = make_replicated_stack(replication_records())
        table = service._table_name(0)
        before = members[0].image(table)
        members[1].inner.drop_table(table)
        engine.quarantine.record(1, table, None, "test")
        coordinator = RecoveryCoordinator(None, service)
        assert {o.outcome for o in coordinator.repair_replicas()} == {"repaired"}
        assert members[1].image(table) == before


def test_recovery_packs_each_bin_once_per_replica(tmp_path, monkeypatch):
    provider, service, engine, members, _ = make_replicated_stack(replication_records())
    table = service._table_name(0)
    coordinator = RecoveryCoordinator(provider, service, tmp_path / "ckpt")
    coordinator.checkpoint()
    before = members[0].image(table)
    counts = {"pack": 0, "bulk_load": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PackedBin, "pack", classmethod(counted("pack", PackedBin.pack.__func__)))
    monkeypatch.setattr(BPlusTree, "bulk_load", counted("bulk_load", BPlusTree.bulk_load))
    coordinator.recover_storage()
    assert counts == {"pack": 0, "bulk_load": len(members)}
    assert all(member.image(table) == before for member in members)
    _assert_shared_bins(members, table)


def _assert_shared_bins(members, table: str) -> None:
    """Every replica of ``table`` holds the very same PackedBin objects."""
    held = [member.inner._tables[table].packed_bins for member in members]
    assert held[0]
    for bins in held[1:]:
        assert bins.keys() == held[0].keys()
        assert all(bins[b] is held[0][b] for b in bins)


def test_a_peer_repair_shares_the_peers_bins():
    _, service, engine, members, _ = make_replicated_stack(replication_records())
    table = service._table_name(0)
    members[1].inner.drop_table(table)
    engine.quarantine.record(1, table, None, "test")
    coordinator = RecoveryCoordinator(None, service)
    assert {o.outcome for o in coordinator.repair_replicas()} == {"repaired"}
    _assert_shared_bins(members, table)
