"""Anti-entropy repair: re-sync quarantined replicas from healthy peers.

The repairer walks the engine's quarantine worklist — every (replica,
table) scope a failed verification or write divergence put there — and
installs each quarantined table from a trustworthy
:class:`~repro.storage.table.TableImage`, sealed bins and tree included:

- **Peer source.**  The majority image of the healthy peers holding
  the table (a lone peer is trusted as-is): a peer whose *stored*
  state silently rotted, never asked on the read path, cannot poison
  the repair.
- **Master source.**  When no healthy peer holds the table, an
  optional ``master_source`` callback (wired to the data provider via
  :class:`~repro.faults.recovery.RecoveryCoordinator`) reconstructs
  the table's image from the retained epoch package.
- **Stored-state quorum.**  When even the master declines (e.g. after
  a key rotation invalidated the retained packages), a strict majority
  of identical *stored* images across the whole group —
  quarantined members included — is adopted: quarantine distrusts a
  replica's response channel, not its disk, and independent rot cannot
  mint a matching majority.

Every repair is **fenced against epoch rotation**: the engine's
rewrite generation is captured before the image is taken and re-checked by
:meth:`~repro.replication.engine.ReplicatedStorageEngine.resync_replica`
at apply time.  A rotation that begins (or completes) in between aborts
the repair with :class:`~repro.exceptions.RepairFenced` — applying a
pre-rotation image would resurrect old-key ciphertexts that no
longer verify.  Fenced repairs stay on the worklist and succeed on the
next pass.

Repair outcomes are public-size telemetry: counts of repairs by
outcome reveal fault behaviour, not data.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import RepairFenced
from repro.replication.engine import ReplicatedStorageEngine
from repro.storage.table import TableImage

# master_source(table) -> the table's image, or None to decline
MasterSource = Callable[[str], "TableImage | None"]


@dataclass(frozen=True)
class RepairOutcome:
    """One repair attempt's result, for reports and assertions."""

    replica_id: int
    table: str
    outcome: str  # "repaired" | "fenced" | "no-source"
    rows: int = 0
    source: str = ""  # "peer:<id>" | "majority:<k>/<n>" | "master" | "quorum:<k>/<n>" | ""


def _majority(images: dict[int, TableImage]) -> list[int]:
    """The largest group of replicas holding equal images (the first
    such group on a tie), in replica order."""
    groups = [[rid for rid in images if images[rid] == image] for image in images.values()]
    return max(groups, key=len)


class AntiEntropyRepairer:
    """Drains the quarantine worklist by re-syncing replicas."""

    def __init__(
        self,
        engine: ReplicatedStorageEngine,
        master_source: MasterSource | None = None,
        fence: Callable[[], bool] | None = None,
    ):
        self.engine = engine
        self.master_source = master_source
        # An *external* fence beyond the engine's own rewrite flag: in a
        # sharded fleet a two-phase rotation holds some OTHER shard
        # between prepare and commit while this shard's engine already
        # committed (its rewrite_in_progress is False again).  Applying
        # a repair then would race the fleet-wide journal — a phase-2
        # crash reverse-rotates every committed shard, and the repair's
        # snapshot would be rewritten under keys the journal is about
        # to roll back.  The callable returns True while the cross-shard
        # operation is in flight; repairs decline with "fenced".
        self.fence = fence

    def run_once(self) -> list[RepairOutcome]:
        """One repair pass over the current quarantine worklist."""
        outcomes = []
        for replica_id, table in self.engine.tables_needing_repair():
            outcomes.append(self._repair(replica_id, table))
        return outcomes

    # -------------------------------------------------------------- internal

    def _repair(self, replica_id: int, table: str) -> RepairOutcome:
        engine = self.engine
        if engine.rewrite_in_progress or (self.fence is not None and self.fence()):
            return self._outcome(replica_id, table, "fenced")
        generation = engine.rewrite_generation
        chosen = self._choose_source(replica_id, table)
        if chosen is None:
            return self._outcome(replica_id, table, "no-source")
        image, source = chosen
        try:
            installed = engine.resync_replica(
                replica_id, image, expected_generation=generation
            )
        except RepairFenced:
            return self._outcome(replica_id, table, "fenced")
        engine.quarantine.clear(replica_id, table)
        engine.breakers[replica_id].reset()
        return self._outcome(
            replica_id, table, "repaired", rows=installed, source=source
        )

    def _choose_source(self, replica_id: int, table: str):
        """Pick a trustworthy ``(image, source)``: peer majority or lone
        peer, then the master, then a stored-state quorum."""
        engine = self.engine
        quarantined = {rid for rid, _ in engine.quarantine.tables()}
        holders = [
            rid for rid, replica in enumerate(engine.replicas) if replica.has_table(table)
        ]
        peers = [
            rid
            for rid in holders
            if rid != replica_id
            and rid not in quarantined
            and engine.breakers[rid].state == "closed"
        ]
        if peers:
            images = {rid: engine.replicas[rid].image(table) for rid in peers}
            majority = _majority(images)
            if len(peers) == 1:
                return images[peers[0]], f"peer:{peers[0]}"
            return images[majority[0]], f"majority:{len(majority)}/{len(peers)}"
        if self.master_source is not None:
            image = self.master_source(table)
            if image is not None:
                return image, "master"
        # Last resort: a stored-state quorum across the WHOLE group,
        # quarantined members included.  Quarantine marks a replica's
        # *response channel* untrusted (tampered answers, stale
        # replays), not its disk — a Byzantine response channel leaves
        # stored rows untouched.  When every peer is quarantined and
        # the master declines, a strict majority of identical stored
        # images cannot have arisen from independent rot, so it is
        # adopted as truth and the group re-converges instead of
        # staying wedged forever.
        if len(holders) > 1:
            images = {rid: engine.replicas[rid].image(table) for rid in holders}
            quorum = _majority(images)
            if len(quorum) > len(engine.replicas) // 2:
                return images[quorum[0]], f"quorum:{len(quorum)}/{len(holders)}"
        return None

    def _outcome(
        self,
        replica_id: int,
        table: str,
        outcome: str,
        rows: int = 0,
        source: str = "",
    ) -> RepairOutcome:
        telemetry.counter(
            "concealer_replica_repairs_total",
            "anti-entropy repair attempts, by outcome",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("outcome",),
        ).labels(outcome=outcome).inc()
        return RepairOutcome(replica_id, table, outcome, rows=rows, source=source)
