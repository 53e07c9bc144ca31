"""Tests for service-level features: replay protection, the automatic
range-method planner, and the bulk landing of an epoch."""

import random

import pytest

from repro import DataProvider, ServiceConfig, ServiceProvider, WIFI_SCHEMA
from repro.core.epoch import EncryptedRow
from repro.core.queries import PointQuery
from repro.exceptions import (
    AuthenticationError,
    StorageError,
    TransientStorageError,
)
from repro.faults.chaos import run_chaos
from repro.faults.clock import VirtualClock
from repro.faults.injector import FaultEvent, FaultInjector
from repro.storage.engine import StorageEngine
from repro.workloads.queries import build_q1, build_q2

from tests.conftest import MASTER_KEY, TIME_STEP, make_stack, stored_rows


@pytest.fixture
def registered_stack(grid_spec, wifi_records):
    provider, service = make_stack(grid_spec, wifi_records)
    credential = provider.register_user("alice", device_id="dev1")
    service.install_registry(provider.sealed_registry())
    return provider, service, credential


class TestReplayProtection:
    def test_fresh_challenge_accepted(self, registered_stack):
        _, service, credential = registered_stack
        challenge = service.challenge()
        entry = service.authenticate(
            credential, challenge, credential.answer_challenge(challenge)
        )
        assert entry.user_id == "alice"

    def test_replayed_pair_rejected(self, registered_stack):
        """A captured (challenge, response) pair is single-use."""
        _, service, credential = registered_stack
        challenge = service.challenge()
        response = credential.answer_challenge(challenge)
        service.authenticate(credential, challenge, response)
        with pytest.raises(AuthenticationError):
            service.authenticate(credential, challenge, response)

    def test_self_minted_challenge_rejected(self, registered_stack):
        """An adversary cannot substitute its own challenge."""
        _, service, credential = registered_stack
        forged = b"\x00" * 16
        with pytest.raises(AuthenticationError):
            service.authenticate(
                credential, forged, credential.answer_challenge(forged)
            )

    def test_failed_attempt_consumes_challenge(self, registered_stack):
        _, service, credential = registered_stack
        challenge = service.challenge()
        with pytest.raises(AuthenticationError):
            service.authenticate(credential, challenge, b"\x00" * 32)
        # even the right response is now too late
        with pytest.raises(AuthenticationError):
            service.authenticate(
                credential, challenge, credential.answer_challenge(challenge)
            )


class TestAutoMethodPlanner:
    def test_selective_query_routes_to_ebpb(self, stack):
        _, service = stack
        context = service.context_for(0)
        query = build_q1("ap1", 0, 1200)
        assert service.choose_range_method(query, context) == "ebpb"

    def test_tiny_span_routes_to_multipoint(self, stack):
        _, service = stack
        context = service.context_for(0)
        query = build_q1("ap1", 0, 30)  # within one subinterval
        assert service.choose_range_method(query, context) == "multipoint"

    def test_domain_sweep_routes_to_winsecrange(self, stack, wifi_records):
        _, service = stack
        context = service.context_for(0)
        locations = tuple(sorted({r[0] for r in wifi_records}))
        query = build_q2(locations, 0, 1200, k=3)
        assert service.choose_range_method(query, context) == "winsecrange"

    def test_auto_method_returns_correct_answers(self, stack, wifi_records):
        _, service = stack
        for t0, t1 in [(0, 30), (0, 1200), (600, 3000)]:
            answer, _ = service.execute_range(
                build_q1("ap2", t0, t1), method="auto"
            )
            expected = sum(
                1 for r in wifi_records if r[0] == "ap2" and t0 <= r[1] <= t1
            )
            assert answer == expected


def _unlanded_stack(grid_spec, schedule=(), engine=None, **config):
    """A provisioned provider/service pair, nothing ingested, with a
    scheduled injector on the (unreplicated) engine and a virtual clock."""
    injector = FaultInjector.from_schedule(
        [FaultEvent("storage.write.transient", index) for index in schedule]
    )
    provider = DataProvider(
        WIFI_SCHEMA, grid_spec, first_epoch_id=0, master_key=MASTER_KEY,
        time_granularity=TIME_STEP, rng=random.Random(1),
    )
    service = ServiceProvider(
        WIFI_SCHEMA,
        ServiceConfig(verify=True, **config),
        engine=engine or StorageEngine(fault_injector=injector),
        clock=VirtualClock(),
    )
    provider.provision_enclave(service.enclave)
    return provider, service, injector


class TestBulkLanding:
    """``ingest_epoch`` lands an epoch once, resumably, all-or-nothing."""

    def _stored(self, service):
        return [row.columns for row in stored_rows(service.engine, "epoch_0")]

    @pytest.mark.parametrize("where", ["first", "middle", "last", "two", "same"])
    def test_transient_lands_every_row_exactly_once(
        self, where, grid_spec, wifi_records
    ):
        package = _unlanded_stack(grid_spec)[0].encrypt_epoch(wifi_records, epoch_id=0)
        last = len(package.rows) - 1
        # Consultation indices; a retried row is consulted again, so the
        # second fault of "two" hits row 700 and "same" hits row 40 twice.
        schedule = {
            "first": [0], "middle": [last // 2], "last": [last],
            "two": [40, 701], "same": [40, 41],
        }[where]
        _, service, injector = _unlanded_stack(grid_spec, schedule)
        service.ingest_epoch(package)

        assert self._stored(service) == [tuple(r.as_columns()) for r in package.rows]
        assert service.engine.index_size("epoch_0", "index_key") == len(package.rows)
        assert service.engine.has_packed_bins("epoch_0")
        # One consultation per row plus one per retried row — what one
        # retried insert per row consulted — and per-row backoff: a row
        # that stalls once sleeps the base delay, whatever stalled before.
        assert [event.index for event in injector.fired] == schedule
        consulted = injector.consultations("storage.write.transient")
        assert consulted == len(package.rows) + len(schedule)
        expected_sleeps = [0.01, 0.02] if where == "same" else [0.01] * len(schedule)
        assert service.clock.sleeps == expected_sleeps
        # The host saw each row written once, in order.
        log = service.engine.access_log
        assert [e.detail for e in log] == list(range(len(package.rows)))
        location, timestamp, _ = wifi_records[0]
        answer, stats = service.execute_point(
            PointQuery(index_values=(location,), timestamp=timestamp)
        )
        assert stats.verified
        assert answer == sum(
            1 for r in wifi_records if r[0] == location and r[1] == timestamp
        )

    def test_exhausted_retries_drop_the_table_and_leave_no_sidecar(
        self, grid_spec, wifi_records
    ):
        # Row 5 fails on each of its four attempts: a permanent failure.
        provider, service, injector = _unlanded_stack(grid_spec, [5, 6, 7, 8])
        package = provider.encrypt_epoch(wifi_records, epoch_id=0)
        with pytest.raises(TransientStorageError):
            service.ingest_epoch(package)
        assert not service.engine.has_table("epoch_0")
        assert service.ingested_epochs() == []
        assert injector.consultations("storage.write.transient") == 9
        # The schedule is spent: the same package now lands whole.
        service.ingest_epoch(package)
        assert len(self._stored(service)) == len(package.rows)
        assert service.engine.has_packed_bins("epoch_0")

    def test_failed_sidecar_install_drops_the_table_too(
        self, grid_spec, wifi_records
    ):
        class NoSidecars(StorageEngine):
            def store_packed_bins(self, table, packed_bins):
                raise StorageError("disk full")

        provider, service, _ = _unlanded_stack(grid_spec, engine=NoSidecars())
        with pytest.raises(StorageError):
            service.ingest_epoch(provider.encrypt_epoch(wifi_records, epoch_id=0))
        assert not service.engine.has_table("epoch_0")
        assert service.ingested_epochs() == []

    def test_malformed_row_is_permanent_and_not_retried(self, grid_spec, wifi_records):
        provider, service, injector = _unlanded_stack(grid_spec)
        package = provider.encrypt_epoch(wifi_records, epoch_id=0)
        broken = package.rows[3]
        package.rows[3] = EncryptedRow(
            filters=broken.filters[:1], payload=broken.payload,
            index_key=broken.index_key,
        )
        with pytest.raises(StorageError):
            service.ingest_epoch(package)
        assert not service.engine.has_table("epoch_0")
        assert service.clock.sleeps == []

    def test_collector_state_is_restored(self, grid_spec, wifi_records):
        import gc

        provider, service, _ = _unlanded_stack(grid_spec, [5, 6, 7, 8])
        package = provider.encrypt_epoch(wifi_records, epoch_id=0)
        assert gc.isenabled()
        with pytest.raises(TransientStorageError):
            service.ingest_epoch(package)
        assert gc.isenabled()
        gc.disable()
        try:
            service.ingest_epoch(package)
            assert not gc.isenabled()  # a caller's own setting survives
        finally:
            gc.enable()

    def test_chaos_seed_4014_two_shards_resumes_instead_of_reinserting(self):
        """The regression for a bulk retry that is not resumable.

        Seed 4014 at ``--shards 2`` fires ``storage.write.transient`` at
        consultation 12 of the first ingest.  A retry that restarted the
        landing from row 0 re-inserted the twelve rows before the fault:
        duplicated index keys, and a silently wrong ``final-verify``.
        """
        report = run_chaos(4014, shards=2)
        assert b"storage.write.transient@12" in report.schedule
        assert report.silent_wrong == []
        assert [(o.op, o.ok) for o in report.outcomes][-2:] == [
            ("final-verify", True)
        ] * 2
