"""Anti-entropy repair: sources, image majorities, the rotation fence,
and the degraded-mode acceptance scenario (a permanently tampering
replica served around, quarantined, repaired, and trusted again)."""

from __future__ import annotations

import pytest

from repro.core.queries import PointQuery, RangeQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.exceptions import RepairFenced
from repro.faults.recovery import RecoveryCoordinator
from repro.replication import AntiEntropyRepairer

from tests.conftest import ground_truth_count
from tests.replication.conftest import (
    LOCATIONS,
    MASTER_KEY,
    make_replicated_stack,
    replication_records,
)

NEW_MASTER = bytes(range(32, 64))


def epoch_table(service) -> str:
    return service._table_name(0)


class TestDegradedModeAcceptance:
    """The issue's end-to-end scenario: 3 replicas, one of which tampers
    with *everything* it stores, must serve the full workload correctly
    (degraded), quarantine the liar, repair it, and pass verification
    afterwards."""

    def test_full_workload_survives_a_permanently_tampering_replica(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        # Replica 0 — the *first* read candidate — has its stored rows
        # persistently corrupted: every answer it serves fails the
        # enclave's hash-chain verification.
        assert members[0].corrupt_stored(table) > 0

        saw_failover = saw_degraded = False
        for location in LOCATIONS:
            for timestamp in (0, 120, 300, 540):
                answer, stats = service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )
                assert answer == ground_truth_count(
                    records, location=location, t0=timestamp, t1=timestamp
                )
                saw_failover |= stats.failovers > 0
                saw_degraded |= stats.degraded
            answer, stats = service.execute_range(
                RangeQuery(index_values=(location,), time_start=0, time_end=300),
                method="multipoint",
            )
            assert answer == ground_truth_count(
                records, location=location, t0=0, t1=300
            )
        assert saw_failover, "the tampering replica was never failed over"
        assert saw_degraded, "serving without replica 0 never flagged degraded"
        assert engine.tables_needing_repair() == [(0, table)]

        # Anti-entropy repair resyncs the liar from its healthy peers…
        outcomes = RecoveryCoordinator(provider, service).repair_replicas()
        assert [o.outcome for o in outcomes] == ["repaired"]
        assert outcomes[0].source.startswith(("peer:", "majority:"))
        assert engine.tables_needing_repair() == []
        assert engine.healthy_replica_count() == 3
        assert members[0].image(table) == members[1].image(table)

        # …after which replica 0 serves verified reads again, first try.
        answer, stats = service.execute_point(
            PointQuery(index_values=("ap0",), timestamp=60)
        )
        assert answer == ground_truth_count(
            records, location="ap0", t0=60, t1=60
        )
        assert stats.failovers == 0
        assert not stats.degraded


class TestRepairSources:
    def test_majority_digest_outvotes_a_silently_rotted_peer(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(
            records, replicas=4
        )
        table = epoch_table(service)
        # Replica 3's *stored* state rots silently (it is never read, so
        # the failover path cannot catch it); replica 1 needs repair.
        members[3].corrupt_stored(table)
        engine.quarantine.record(1, table, None, "write-divergence:test")
        outcomes = AntiEntropyRepairer(engine).run_once()
        assert [o.outcome for o in outcomes] == ["repaired"]
        assert outcomes[0].source == "majority:2/3"
        assert members[1].image(table) == members[0].image(table)
        assert members[1].image(table).rows != members[3].image(table).rows

    def test_master_source_restores_when_no_peer_is_healthy(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(
            records, replicas=2
        )
        table = epoch_table(service)
        engine.quarantine.record(0, table, None, "test")
        engine.quarantine.record(1, table, None, "test")
        coordinator = RecoveryCoordinator(provider, service)
        outcomes = coordinator.repair_replicas()
        assert {o.outcome for o in outcomes} == {"repaired"}
        # Replica 0 had no healthy peer left → rebuilt from the DP's
        # retained epoch package; replica 1 then re-synced from it.
        assert [o.source for o in outcomes] == ["master", "peer:0"]
        answer, stats = service.execute_point(
            PointQuery(index_values=("ap0",), timestamp=60)
        )
        assert answer == ground_truth_count(
            records, location="ap0", t0=60, t1=60
        )

    def test_no_source_leaves_the_quarantine_in_place(self):
        # Both replicas quarantined, no master source, AND their stored
        # snapshots diverge — so not even the stored-state quorum can
        # break the tie.  Nothing trustworthy exists; repair declines.
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(
            records, replicas=2
        )
        table = epoch_table(service)
        engine.quarantine.record(0, table, None, "test")
        engine.quarantine.record(1, table, None, "test")
        assert members[1].corrupt_stored(table) > 0
        outcomes = AntiEntropyRepairer(engine).run_once()  # no master source
        assert {o.outcome for o in outcomes} == {"no-source"}
        assert engine.tables_needing_repair() == [(0, table), (1, table)]

    def test_stored_state_quorum_unwedges_a_fully_quarantined_group(self):
        # Every replica quarantined (a Byzantine response channel
        # tampered answers without touching disks), no master source:
        # the strict majority of byte-identical stored snapshots is
        # adopted and the whole group re-converges.
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        for rid in range(len(members)):
            engine.quarantine.record(rid, table, None, "tampered-response")
        outcomes = AntiEntropyRepairer(engine).run_once()
        assert {o.outcome for o in outcomes} == {"repaired"}
        assert outcomes[0].source.startswith("quorum:")
        assert engine.tables_needing_repair() == []
        answer, _ = service.execute_point(
            PointQuery(index_values=("ap0",), timestamp=60)
        )
        assert answer == ground_truth_count(
            records, location="ap0", t0=60, t1=60
        )

    def test_one_pass_drains_a_multi_replica_quarantine(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        engine.quarantine.record(0, table, 3, "chain-mismatch")
        engine.quarantine.record(1, table, None, "write-divergence:insert")
        outcomes = AntiEntropyRepairer(engine).run_once()
        assert len(outcomes) == 2
        assert all(o.outcome == "repaired" for o in outcomes)
        assert engine.tables_needing_repair() == []


class TestRotationFence:
    """Satellite regression: epoch rotation must fence replica repair."""

    def test_repair_is_fenced_while_a_rewrite_is_in_flight(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        engine.quarantine.record(0, table, None, "test")
        engine.begin_rewrite()
        outcomes = AntiEntropyRepairer(engine).run_once()
        assert [o.outcome for o in outcomes] == ["fenced"]
        # The work stays queued and succeeds once the fence lifts.
        assert engine.tables_needing_repair() == [(0, table)]
        engine.end_rewrite()
        outcomes = AntiEntropyRepairer(engine).run_once()
        assert [o.outcome for o in outcomes] == ["repaired"]

    def test_resync_with_a_stale_generation_is_refused(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        # A repair takes a peer's image, capturing the generation…
        generation = engine.rewrite_generation
        image = members[1].image(table)
        # …then a whole rotation begins AND completes before it applies:
        # the snapshot holds pre-rotation ciphertexts and must not land.
        engine.begin_rewrite()
        engine.end_rewrite()
        with pytest.raises(RepairFenced):
            engine.resync_replica(0, image, expected_generation=generation)

    def test_key_rotation_bumps_the_generation_and_still_verifies(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        assert engine.rewrite_generation == 0
        token = rotation_token(MASTER_KEY, NEW_MASTER)
        rotated = rotate_service_keys(service, NEW_MASTER, token)
        provider.adopt_master(NEW_MASTER)
        assert rotated > 0
        assert engine.rewrite_generation == 2  # begin + end
        assert not engine.rewrite_in_progress
        answer, stats = service.execute_point(
            PointQuery(index_values=("ap1",), timestamp=120)
        )
        assert answer == ground_truth_count(
            records, location="ap1", t0=120, t1=120
        )
        assert stats.failovers == 0

    def test_master_source_is_the_rekeyed_image(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        coordinator = RecoveryCoordinator(provider, service)
        landed = coordinator.master_source(table)
        assert landed == members[0].image(table)
        token = rotation_token(MASTER_KEY, NEW_MASTER)
        rotate_service_keys(service, NEW_MASTER, token)
        provider.adopt_master(NEW_MASTER)
        # Rotation installs the re-keyed image and keeps it as the
        # master; the pre-rotation one would install rows that can
        # never verify again.
        rotated = coordinator.master_source(table)
        assert rotated == members[0].image(table) != landed


class TestMasterRepair:
    """The master image repairs what no peer and no stored-state quorum
    can, after a key rotation too."""

    def test_every_copy_quarantined_after_a_rotation_repairs_from_the_master(self):
        records = replication_records()
        provider, service, engine, members, clock = make_replicated_stack(records)
        table = epoch_table(service)
        token = rotation_token(MASTER_KEY, NEW_MASTER)
        rotate_service_keys(service, NEW_MASTER, token)
        provider.adopt_master(NEW_MASTER)
        # Each copy tampered differently (every row, every second, every
        # third): no two stored images agree, so no quorum exists.
        for every, member in enumerate(members, start=1):
            assert member.corrupt_stored(table, every=every) > 0
        images = [member.image(table) for member in members]
        assert all(a != b for i, a in enumerate(images) for b in images[i + 1 :])
        for rid in range(len(members)):
            engine.quarantine.record(rid, table, None, "tampered-storage")
        outcomes = RecoveryCoordinator(provider, service).repair_replicas()
        assert {o.outcome for o in outcomes} == {"repaired"}
        assert outcomes[0].source == "master"
        assert engine.tables_needing_repair() == []
        for location in LOCATIONS:
            for timestamp in (0, 120, 300):
                answer, stats = service.execute_point(
                    PointQuery(index_values=(location,), timestamp=timestamp)
                )
                assert stats.verified and stats.failovers == 0
                assert answer == ground_truth_count(
                    records, location=location, t0=timestamp, t1=timestamp
                )
