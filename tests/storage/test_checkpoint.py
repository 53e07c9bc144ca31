"""Tests for engine checkpoint / restore."""

import pytest

from repro.exceptions import StorageError
from repro.storage import StorageEngine, checkpoint_engine, restore_engine


@pytest.fixture
def engine():
    engine = StorageEngine(btree_order=8)
    engine.create_table("t", ["k", "v"])
    engine.create_index("t", "k")
    for i in range(50):
        engine.insert("t", [bytes([i % 7]), i])
    engine.delete("t", 10)  # a tombstone survives the roundtrip
    return engine


class TestRoundtrip:
    def test_tables_and_rows_restored(self, engine, tmp_path):
        path = checkpoint_engine(engine, tmp_path / "snap.db")
        restored = restore_engine(path)
        assert restored.table_names() == ["t"]
        assert restored.row_count("t") == 49
        assert 10 not in restored._tables["t"]

    def test_indexes_rebuilt_and_queryable(self, engine, tmp_path):
        path = checkpoint_engine(engine, tmp_path / "snap.db")
        restored = restore_engine(path)
        original = sorted(r[1] for r in engine.lookup("t", "k", bytes([3])))
        recovered = sorted(r[1] for r in restored.lookup("t", "k", bytes([3])))
        assert recovered == original

    def test_row_ids_not_reused_after_restore(self, engine, tmp_path):
        path = checkpoint_engine(engine, tmp_path / "snap.db")
        restored = restore_engine(path)
        new_id = restored.insert("t", [b"z", 999])
        assert new_id == 50  # next_row_id preserved

    def test_access_log_not_persisted(self, engine, tmp_path):
        engine.lookup("t", "k", bytes([1]))
        path = checkpoint_engine(engine, tmp_path / "snap.db")
        restored = restore_engine(path)
        assert len(restored.access_log) == 0


class TestImages:
    """A checkpoint is the image of every table: restore gives equal
    images, sealed-bin layout and tree bytes included."""

    def test_roundtrip_gives_equal_images(self, tmp_path):
        from repro import GridSpec

        from tests.conftest import make_stack

        records = [(f"ap{i % 4}", (i * 60) % 600, f"d{i % 5}") for i in range(60)]
        spec = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
        _, service = make_stack(spec, records)
        engine = service.engine
        assert engine.has_packed_bins("epoch_0") and engine.has_agg_tree("epoch_0")
        engine.create_table("plain", ["k", "v"])
        engine.create_index("plain", "k")
        for i in range(5):
            engine.insert("plain", [bytes([i % 2]), bytes([i])])
        engine.delete("plain", 4)  # next row id 5, four rows

        restored = restore_engine(checkpoint_engine(engine, tmp_path / "snap.db"))
        assert restored.table_names() == ["epoch_0", "plain"]
        for table in restored.table_names():
            before, after = engine.image(table), restored.image(table)
            assert after == before
            assert after.rows == before.rows
            assert after.next_row_id == before.next_row_id
            assert after.indexed == before.indexed
            assert after.bins == before.bins
            tree_bytes = [image.tree and image.tree.to_bytes() for image in (after, before)]
            assert tree_bytes[0] == tree_bytes[1]
        sealed = engine._tables["epoch_0"].packed_bins
        assert {b: pb.to_bytes() for b, pb in restored._tables["epoch_0"].packed_bins.items()} == {
            b: pb.to_bytes() for b, pb in sealed.items()
        }
        assert restored.image("plain").bins is None and restored.image("plain").tree is None


    def test_a_flipped_bin_blob_byte_fails_verification_on_read(self, tmp_path):
        """The footer is unkeyed: a host can flip a byte of a stored
        bin's column blob and recompute it.  The restore then succeeds,
        and a read of that bin fails verification — never a wrong
        answer."""
        import pickle
        from dataclasses import replace

        from repro import GridSpec, PointQuery
        from repro.exceptions import IntegrityViolation
        from repro.storage.checkpoint import read_checkpoint, write_framed

        from tests.conftest import ground_truth_count, is_fake_row, make_stack

        records = [(f"ap{i % 4}", (i * 60) % 600, f"d{i % 5}") for i in range(60)]
        spec = GridSpec(dimension_sizes=(4, 10), cell_id_count=16, epoch_duration=600)
        _, service = make_stack(spec, records, verify=True)
        context = service.context_for(0)
        path = checkpoint_engine(service.engine, tmp_path / "c")
        snapshot = read_checkpoint(path)
        (image,) = snapshot["images"]
        index, victim = next(
            (b, pb) for b, pb in image.bins.items() if not is_fake_row(context, pb[0])
        )
        blob = victim.columns[0]
        flipped = blob[:3] + bytes([blob[3] ^ 0x01]) + blob[4:]
        image.bins[index] = replace(victim, columns=(flipped, *victim.columns[1:]))
        write_framed(path, pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))

        service.adopt_engine(restore_engine(path))
        caught = 0
        for location, timestamp in sorted({(r[0], r[1]) for r in records}):
            query = PointQuery(index_values=(location,), timestamp=timestamp)
            try:
                answer, _ = service.execute_point(query)
            except IntegrityViolation:
                caught += 1
            else:
                assert answer == ground_truth_count(records, location, timestamp, timestamp)
        assert caught


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            restore_engine(tmp_path / "missing.db")

    def test_version_2_is_refused(self, tmp_path):
        import pickle

        from repro.storage.checkpoint import write_framed

        path = tmp_path / "v2.db"
        write_framed(path, pickle.dumps({
            "version": 2, "btree_order": 8, "rows_per_page": 64,
            "tables": {"t": {"columns": ("k",), "next_row_id": 0, "rows": {}}},
            "indexes": [],
        }))
        with pytest.raises(StorageError, match="unsupported checkpoint version 2"):
            restore_engine(path)

    def test_version_3_is_refused(self, tmp_path):
        import pickle

        from repro.storage.checkpoint import write_framed

        path = tmp_path / "v3.db"
        write_framed(path, pickle.dumps({
            "version": 3, "btree_order": 8, "rows_per_page": 64, "images": [],
        }))
        with pytest.raises(StorageError, match="unsupported checkpoint version 3"):
            restore_engine(path)

    def test_bad_version(self, engine, tmp_path):
        import pickle

        path = tmp_path / "bad.db"
        with open(path, "wb") as handle:
            pickle.dump({"version": 99}, handle)
        with pytest.raises(StorageError):
            restore_engine(path)


class TestServiceRestart:
    def test_concealer_service_survives_restart(self, tmp_path):
        """End to end: snapshot SP storage, restore, query correctly."""
        import random

        from repro import (
            DataProvider,
            GridSpec,
            PointQuery,
            ServiceProvider,
            WIFI_SCHEMA,
        )

        records = [(f"ap{i % 4}", (i * 60) % 600, f"d{i % 5}") for i in range(60)]
        spec = GridSpec(dimension_sizes=(4, 8), cell_id_count=16, epoch_duration=600)
        provider = DataProvider(
            WIFI_SCHEMA, spec, 0, master_key=b"\x71" * 32,
            time_granularity=60, rng=random.Random(5),
        )
        service = ServiceProvider(WIFI_SCHEMA)
        provider.provision_enclave(service.enclave)
        package = provider.encrypt_epoch(records, 0)
        service.ingest_epoch(package)

        path = checkpoint_engine(service.engine, tmp_path / "sp.db")

        # "Restart": new service process restores storage; the enclave is
        # re-provisioned (re-attestation) and metadata re-shipped.
        restarted = ServiceProvider(WIFI_SCHEMA, engine=restore_engine(path))
        provider2 = DataProvider(
            WIFI_SCHEMA, spec, 0, master_key=b"\x71" * 32, rng=random.Random(6)
        )
        provider2.provision_enclave(restarted.enclave)
        restarted._packages[0] = package  # metadata blob re-shipped

        location, timestamp, _ = records[0]
        answer, _ = restarted.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp),
            epoch_id=0,
        )
        expected = sum(
            1 for r in records if r[0] == location and r[1] == timestamp
        )
        assert answer == expected
