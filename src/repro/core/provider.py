"""The data provider DP (Figure 1, left).

A trusted entity that collects spatial time-series readings, encrypts
them epoch by epoch with Algorithm 1, and ships the encrypted packages
— plus the encrypted user registry — to the untrusted service provider.
Before anything is shipped, the provider attests the service provider's
enclave and provisions the shared secret ``s_k`` into it.
"""

from __future__ import annotations

import os
import random
from collections.abc import Sequence

from repro.core.collector import collector_quiet
from repro.core.encryptor import EpochEncryptor, FakeStrategy
from repro.core.epoch import EpochPackage
from repro.core.grid import GridSpec
from repro.core.registry import Registry, UserCredential
from repro.core.schema import DatasetSchema
from repro.crypto.keys import derive_epoch_key
from repro.crypto.nondet import RandomizedCipher
from repro.enclave.attestation import measure_code, verify_quote
from repro.enclave.enclave import ENCLAVE_CODE_IDENTITY, Enclave
from repro.exceptions import EpochError


class DataProvider:
    """Owns the data, the master key, and the user registry.

    >>> # A provider is configured once with schema + grid geometry:
    >>> # provider = DataProvider(WIFI_SCHEMA, spec, first_epoch_id=0)
    >>> # then: provider.provision_enclave(sp.enclave)
    >>> #       package = provider.encrypt_epoch(records, epoch_id=0)
    """

    def __init__(
        self,
        schema: DatasetSchema,
        grid_spec: GridSpec,
        first_epoch_id: int,
        master_key: bytes | None = None,
        fake_strategy: FakeStrategy = FakeStrategy.SIMULATED,
        bin_size: int | None = None,
        max_cells_per_bin: int | None = None,
        time_granularity: int = 1,
        rng: random.Random | None = None,
        ingest_workers: int = 1,
        agg_tree: bool = True,
        agg_tree_fanout: int = 4,
        agg_tree_entities: int | None = None,
    ):
        self.schema = schema
        self.grid_spec = grid_spec
        self.first_epoch_id = first_epoch_id
        self.master_key = master_key if master_key is not None else os.urandom(32)
        self.registry = Registry()
        self._rng = rng if rng is not None else random.Random()
        self.encryptor = EpochEncryptor(
            schema=schema,
            grid_spec=grid_spec,
            master_key=self.master_key,
            fake_strategy=fake_strategy,
            bin_size=bin_size,
            max_cells_per_bin=max_cells_per_bin,
            time_granularity=time_granularity,
            rng=self._rng,
            workers=ingest_workers,
            agg_tree=agg_tree,
            agg_tree_fanout=agg_tree_fanout,
            agg_tree_entities=agg_tree_entities,
        )
        self._shipped_epochs: set[int] = set()

    # ----------------------------------------------------------- attestation

    def provision_enclave(self, enclave: Enclave) -> None:
        """Attest the enclave, then provision ``s_k`` + epoch parameters.

        The provider challenges with a fresh nonce, verifies the quote
        against the *published* Concealer enclave measurement (never the
        enclave's self-reported one — that would be circular), and only
        then releases the key — the substitute for the paper's
        out-of-scope key-exchange machinery.
        """
        nonce = (
            self._rng.randbytes(16)
            if hasattr(self._rng, "randbytes")
            else os.urandom(16)
        )
        quote = enclave.quote(nonce)
        expected = measure_code(ENCLAVE_CODE_IDENTITY)
        verify_quote(quote, expected, nonce)
        enclave.provision(
            master_key=self.master_key,
            first_epoch_id=self.first_epoch_id,
            epoch_duration=self.grid_spec.epoch_duration,
        )

    # -------------------------------------------------------------- registry

    def register_user(
        self, user_id: str, device_id: str = "", aggregate_allowed: bool = True
    ) -> UserCredential:
        """Phase 0: enrol a user for this service provider's applications."""
        return self.registry.register(
            user_id, device_id=device_id, aggregate_allowed=aggregate_allowed,
            rng=self._rng if hasattr(self._rng, "randbytes") else None,
        )

    def sealed_registry(self) -> bytes:
        """The encrypted registry blob shipped alongside the data.

        Sealed under a registry-specific key derived from ``s_k`` (epoch
        id 0 of a reserved label), so only the enclave can open it.
        """
        cipher = RandomizedCipher(derive_epoch_key(self.master_key, 0))
        return self.registry.seal(cipher)

    # -------------------------------------------------------------- rotation

    def adopt_master(self, new_master: bytes) -> None:
        """Adopt a rotated master key (rotation protocol step 4).

        Called after :func:`repro.core.rotation.rotate_service_keys`
        succeeds: future epochs are encrypted under the new master, and
        a later :meth:`provision_enclave` (e.g. recovering a crashed
        enclave) provisions the new key — matching what the rotated
        service-side state now expects.
        """
        self.master_key = new_master
        self.encryptor.master_key = new_master

    # ------------------------------------------------------------------ data

    def _check_shippable(self, epoch_id: int) -> None:
        if epoch_id < self.first_epoch_id:
            raise EpochError(
                f"epoch {epoch_id} precedes first epoch {self.first_epoch_id}"
            )
        if (epoch_id - self.first_epoch_id) % self.grid_spec.epoch_duration:
            raise EpochError(
                f"epoch id {epoch_id} is not aligned to the epoch duration "
                f"{self.grid_spec.epoch_duration}"
            )
        if epoch_id in self._shipped_epochs:
            raise EpochError(f"epoch {epoch_id} was already encrypted and shipped")

    def encrypt_epoch(self, records: Sequence[tuple], epoch_id: int) -> EpochPackage:
        """Phase 1: run Algorithm 1 over one epoch's readings."""
        self._check_shippable(epoch_id)
        package = self.encryptor.encrypt_epoch(records, epoch_id)
        self._shipped_epochs.add(epoch_id)
        return package

    def _partition(self, records: Sequence[tuple], epoch_id: int, topology):
        """Per shard, its records and their slice of the one placement."""
        placement = self.encryptor.place(records, epoch_id)
        slots: list[list[int]] = [[] for _ in range(topology.shard_count)]
        for slot, cid in enumerate(placement.cell_ids):
            slots[topology.shard_of(cid)].append(slot)
        return [([records[s] for s in owned], placement.select(owned)) for owned in slots]

    def partition_records(
        self, records: Sequence[tuple], epoch_id: int, topology
    ) -> list[list[tuple]]:
        """Split one epoch's records by owning shard (provider-side).

        Placement uses the *same* keyed grid construction Algorithm 1
        uses, then the public cell-id → shard map — so the shard a
        record lands on is exactly the shard whose bins a query for it
        will touch.  Record order within each partition is preserved
        (counter assignment, and therefore the verifiable tag chains,
        stay deterministic per shard).
        """
        return [part for part, _ in self._partition(records, epoch_id, topology)]

    @collector_quiet()
    def encrypt_epoch_sharded(
        self, records: Sequence[tuple], epoch_id: int, topology
    ) -> list[EpochPackage]:
        """Phase 1 for a sharded fleet: one full package per shard.

        Every shard's package is a complete Algorithm-1 run over its
        partition — its own fakes, bins, metadata vectors, and tag
        chains — so each shard verifies independently and non-owned
        cell-ids still materialise as fake-only bins (queries hashing
        there retrieve only fakes, exactly like empty cells today).
        Records are placed on the grid once, for the whole fleet, and
        the epoch is marked shipped once.
        """
        self._check_shippable(epoch_id)
        packages = [
            self.encryptor.encrypt_epoch(part, epoch_id, placement=placement)
            for part, placement in self._partition(records, epoch_id, topology)
        ]
        self._shipped_epochs.add(epoch_id)
        return packages

    def unship_epoch(self, epoch_id: int) -> None:
        """Forget a shipped epoch so it can be re-encrypted and re-sent.

        The two-phase sharded ingest calls this when a shard crashed
        mid-landing and the already-landed shards were evicted — the
        epoch never became queryable anywhere, so the provider may ship
        it again on retry.
        """
        self._shipped_epochs.discard(epoch_id)

    def epoch_id_for_time(self, timestamp: int) -> int:
        """Which epoch a reading belongs to."""
        duration = self.grid_spec.epoch_duration
        offset = (timestamp - self.first_epoch_id) // duration
        return self.first_epoch_id + offset * duration
