"""Tests for the enclave simulator: provisioning, EPC budget, sealing."""

import pytest

from repro.crypto.keys import derive_epoch_key
from repro.enclave.enclave import Enclave, EnclaveConfig, generate_master_key
from repro.exceptions import EnclaveError, EnclaveMemoryError

KEY = b"\x33" * 32


@pytest.fixture
def enclave():
    return Enclave(EnclaveConfig(epc_bytes=1024))


class TestProvisioning:
    def test_unprovisioned_refuses_queries(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.require_provisioned()
        with pytest.raises(EnclaveError):
            _ = enclave.master_key

    def test_provision_installs_schedule(self, enclave):
        enclave.provision(KEY, first_epoch_id=100, epoch_duration=60)
        assert enclave.provisioned
        assert enclave.master_key == KEY
        assert enclave.key_schedule.epoch_id_for_time(161) == 160
        assert enclave.key_schedule.current_key(100) == derive_epoch_key(KEY, 100)

    def test_double_provision_rejected(self, enclave):
        enclave.provision(KEY, 0, 60)
        with pytest.raises(EnclaveError):
            enclave.provision(KEY, 0, 60)


class TestEpcBudget:
    def test_charge_within_budget(self, enclave):
        enclave.charge_memory(512)
        assert enclave.epc_used == 512
        enclave.charge_memory(512)
        assert enclave.epc_used == 1024

    def test_over_budget_rejected(self, enclave):
        enclave.charge_memory(1000)
        with pytest.raises(EnclaveMemoryError):
            enclave.charge_memory(100)

    def test_release_restores_budget(self, enclave):
        enclave.charge_memory(1000)
        enclave.release_memory(1000)
        enclave.charge_memory(1024)  # fits again

    def test_release_never_negative(self, enclave):
        enclave.release_memory(999)
        assert enclave.epc_used == 0

    def test_negative_charge_rejected(self, enclave):
        with pytest.raises(ValueError):
            enclave.charge_memory(-1)

    def test_high_water_tracked(self, enclave):
        enclave.charge_memory(800)
        enclave.release_memory(800)
        enclave.charge_memory(100)
        assert enclave.epc_high_water == 800
        enclave.reset_epc_stats()
        assert enclave.epc_high_water == 100


class TestMasterKey:
    def test_generate_master_key_length(self):
        assert len(generate_master_key()) == 32

    def test_generate_master_key_seeded(self):
        import random

        a = generate_master_key(random.Random(1))
        b = generate_master_key(random.Random(1))
        assert a == b
