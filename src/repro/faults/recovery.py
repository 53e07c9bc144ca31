"""Crash recovery: rebuild a killed enclave, restore checkpointed storage.

A real SGX enclave killed by an asynchronous exit or power event loses
its entire EPC — keys, unsealed registry, decrypted metadata vectors.
Recovery mirrors the original Phase-0 handshake:

1. the host constructs a **fresh enclave instance** (same code identity,
   so its measurement matches the published one);
2. the data provider **re-attests** it (challenge nonce → quote →
   verification against the published measurement) and re-provisions
   ``s_k`` plus the epoch parameters — :meth:`DataProvider.provision_enclave`
   is exactly this handshake;
3. the sealed **registry is re-shipped** and re-opened inside the new
   enclave;
4. per-epoch **contexts rebuild lazily** from the stored (encrypted)
   epoch packages on the next query — the metadata vectors live in the
   packages, not only in enclave memory, which is what makes the design
   restartable.

Storage recovery is orthogonal: if the host also lost its DBMS, the
engine is restored from the latest integrity-checked checkpoint
(:mod:`repro.storage.checkpoint`) and re-adopted by the service.
"""

from __future__ import annotations

from pathlib import Path

from repro import telemetry
from repro.core.provider import DataProvider
from repro.core.service import ServiceProvider
from repro.enclave.enclave import Enclave
from repro.exceptions import StorageError
from repro.storage.checkpoint import checkpoint_engine, read_checkpoint, restore_engine
from repro.storage.table import TableImage


def _count_recovery(component: str) -> None:
    telemetry.counter(
        "concealer_recoveries_total",
        "completed crash recoveries, by component",
        labels=("component",),
    ).labels(component=component).inc()


class RecoveryCoordinator:
    """Drives enclave and storage recovery for one (provider, service) pair.

    >>> # coordinator = RecoveryCoordinator(provider, service, path)
    >>> # coordinator.checkpoint()            # periodic durability point
    >>> # ... enclave dies mid-query ...
    >>> # coordinator.recover()               # service answers again
    """

    def __init__(
        self,
        provider: DataProvider,
        service: ServiceProvider,
        checkpoint_path: str | Path | None = None,
    ):
        self.provider = provider
        self.service = service
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None

    # ----------------------------------------------------------- durability

    def checkpoint(self) -> Path:
        """Snapshot the service's storage engine to the checkpoint path.

        The enclave may be killed mid-checkpoint (a chaos kill point):
        the snapshot write itself is host-side and atomic, so either the
        previous snapshot survives intact or the new one replaces it
        whole — never a torn file (unless the torn-write fault is
        armed, in which case restore fails loudly instead).
        """
        if self.checkpoint_path is None:
            raise StorageError("no checkpoint path configured")
        if not self.service.enclave.crashed:
            self.service.enclave.kill_point("enclave.kill.checkpoint")
        # A replicated engine nominates a healthy replica (unwrapped
        # from any Byzantine response channel) so the checkpoint
        # captures trustworthy *stored* state, not served state.
        engine = self.service.engine
        source = getattr(engine, "checkpoint_source", lambda: engine)()
        return checkpoint_engine(
            source,
            self.checkpoint_path,
            fault_injector=source.fault_injector,
        )

    # ------------------------------------------------------------- recovery

    def recover_enclave(self) -> Enclave:
        """Re-attest and re-provision a replacement for a dead enclave.

        The replacement inherits the old instance's config (code
        identity → same measurement) and fault injector (the chaos
        schedule keeps running across recoveries).  The service drops
        its cached contexts and unsealed registry; both rebuild from
        host-stored ciphertext (epoch packages, sealed registry blob).
        """
        old = self.service.enclave
        fresh = Enclave(old.config, fault_injector=old.fault_injector)
        self.service.adopt_enclave(fresh)
        self.provider.provision_enclave(fresh)
        self.service.install_registry(self.provider.sealed_registry())
        _count_recovery("enclave")
        return fresh

    def recover_storage(self) -> None:
        """Restore storage from the latest checkpoint and re-adopt it.

        For a plain engine the restored instance simply replaces the
        old one.  A **replicated** group must survive recovery (a plain
        engine would strip the shard of failover and quarantine), so
        every replica drops its stale tables and installs each table
        image the checkpoint holds (read once, no engine in between),
        row ids and sealed bins kept; then quarantines clear, breakers
        reset, and the same group is re-adopted.
        """
        if self.checkpoint_path is None:
            raise StorageError("no checkpoint path configured")
        engine = self.service.engine
        if getattr(engine, "supports_replicated_reads", False):
            images = read_checkpoint(self.checkpoint_path)["images"]
            for replica in engine.replicas:
                target = getattr(replica, "inner", replica)
                for stale in set(target.table_names()) - {i.table for i in images}:
                    target.drop_table(stale)
                for image in images:
                    target.install(image)
            for replica_id, table in list(engine.quarantine.tables()):
                engine.quarantine.clear(replica_id, table)
            for breaker in engine.breakers:
                breaker.reset()
            self.service.adopt_engine(engine)
        else:
            self.service.adopt_engine(restore_engine(self.checkpoint_path))
        _count_recovery("storage")

    def master_source(self, table: str) -> TableImage | None:
        """The table's master image, kept by the service since ingest:
        the rows outside the sealed bins, the bins it shares with the
        engine and the tree it landed, at their ingest row ids.  The
        anti-entropy repairer's last resort when no healthy peer holds
        the table.  Rotation replaces it with the re-keyed image it
        installs; a §6 rewrite drops it, so a rewritten epoch declines
        (``None``).
        """
        return next((m for m in self.service._masters.values() if m.table == table), None)

    def repair_replicas(self, fence=None) -> list:
        """One anti-entropy pass over the service's replicated engine.

        No-op (empty list) for unreplicated engines; otherwise each
        quarantined (replica, table) re-syncs from a healthy peer or,
        failing that, from this coordinator's :meth:`master_source`.
        ``fence`` is an optional zero-arg callable consulted per
        repair: in a sharded fleet it reflects the *cross-shard*
        two-phase journal, declining repairs while any shard sits
        between prepare and commit (this shard's own engine generation
        cannot see that window).
        """
        from repro.replication.repair import AntiEntropyRepairer

        engine = self.service.engine
        if not getattr(engine, "supports_replicated_reads", False):
            return []
        repairer = AntiEntropyRepairer(
            engine, master_source=self.master_source, fence=fence
        )
        return repairer.run_once()

    def recover(self, restore_storage: bool = False) -> dict:
        """Recover whatever is broken; returns a summary of actions taken.

        ``restore_storage=True`` additionally rolls the engine back to
        the last checkpoint (for host restarts, not just enclave
        crashes).
        """
        actions: dict[str, bool] = {"enclave": False, "storage": False}
        if restore_storage:
            self.recover_storage()
            actions["storage"] = True
        if self.service.enclave.crashed or not self.service.enclave.provisioned:
            self.recover_enclave()
            actions["enclave"] = True
        return actions
