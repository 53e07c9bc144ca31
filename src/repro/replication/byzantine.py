"""A Byzantine storage replica: correct storage, adversarial responses.

Wraps one :class:`~repro.storage.engine.StorageEngine` and perturbs its
*read responses* under the seeded fault injector — the replica-targeted
misbehaviours §7's hash chains must detect and the replication layer
must survive:

- ``replica.tamper`` — flip bytes of one row in the returned batch
  (a tampering SP);
- ``replica.replay.stale`` — serve a remembered earlier batch instead
  of the live rows (a stale-epoch replay: after a key rotation the
  remembered ciphertexts no longer decrypt, which is exactly how the
  enclave catches it);
- ``replica.bin.drop`` — drop rows from the batch (bin suppression);
- ``replica.slow`` — stall on the injectable clock past the read
  budget (a straggler or resource-exhaustion attack).

Every read kind — trapdoor rows, packed bins, aggregate-tree nodes —
goes through the one channel, :meth:`ByzantineReplica._respond`, which
consults the four sites in that fixed order (slow → replay.stale →
read → tamper → bin.drop; seeded schedules replay only while it holds).
A kind declares its remember-key and how one of its answers is tampered
with and shortened; a read method that is *not* declared here would
fall through ``__getattr__`` to the honest engine and bypass the
adversary the chaos corpus arms.

Writes and DDL pass through untouched — the Byzantine model here is a
replica whose *stored* state converges with its peers but whose
*served* state may lie.  Persistent stored-state corruption (the other
half of the model) is available via :meth:`corrupt_stored`, which the
degraded-mode tests use to build a permanently tampering replica.
"""

from __future__ import annotations

from repro.faults.clock import SystemClock
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.storage.engine import StorageEngine
from repro.storage.table import Row

# How long a `replica.slow` stall lasts — deliberately longer than any
# sane per-attempt budget so the fault reliably converts to a timeout.
SLOW_STALL_SECONDS = 5.0


def _fresh(answer):
    """A copy the caller (or a tamper helper) may mutate: row and node
    batches are lists, packed bins are immutable."""
    return list(answer) if isinstance(answer, list) else answer


def _without_item(batch: list, victim: int) -> list:
    del batch[victim]
    return batch


class ByzantineReplica:
    """One replica's engine behind an adversarial response channel."""

    def __init__(
        self,
        inner: StorageEngine,
        replica_id: int,
        fault_injector: FaultInjector | None = None,
        clock=None,
        slow_stall: float = SLOW_STALL_SECONDS,
    ):
        self.inner = inner
        self.replica_id = replica_id
        self.fault_injector = fault_injector or NULL_INJECTOR
        self.clock = clock if clock is not None else SystemClock()
        self.slow_stall = slow_stall
        # Last unperturbed answer served per remember-key — the replay
        # fault's ammunition.
        self._remembered: dict[tuple, object] = {}
        # Tables whose *stored* rows were persistently corrupted.
        self.tampered_tables: set[str] = set()

    # ------------------------------------------------------------ read path

    def lookup_many(self, table: str, column: str, keys) -> list[Row]:
        """Batched bin fetch; the replay remembers one batch per table."""
        return self._respond(
            ("rows", table),
            lambda: self.inner.lookup_many(table, column, keys),
            self._tamper_row,
            _without_item,
        )

    def fetch_packed_bin(self, table: str, runs):
        """Columnar read: one run (a whole bin) remembered per (table,
        bin), several per table like a row batch."""
        return self._respond(
            ("packed", table, runs[0][0]) if len(runs) == 1 else ("runs", table),
            lambda: self.inner.fetch_packed_bin(table, runs),
            self._tamper_packed_cell,
            lambda packed, victim: packed.without_row(victim),
        )

    def fetch_tree_nodes(self, table: str, coords):
        """Aggregate-tree node read; remembered per (table, coordinates).

        A dropped node is a batch-length mismatch to the enclave.
        """
        return self._respond(
            ("tree", table, tuple(coords)),
            lambda: self.inner.fetch_tree_nodes(table, coords),
            self._tamper_node,
            _without_item,
        )

    def _respond(self, remember_key: tuple, read, tamper, drop):
        """The adversarial response channel, once, for every read kind.

        ``read()`` asks the wrapped engine (``None`` = no sidecar, which
        passes through untouched); ``tamper(answer)`` flips bytes of one
        unit; ``drop(answer, victim)`` removes one.  Both work on a
        fresh copy, so the remembered answer stays as the engine served
        it.
        """
        injector = self.fault_injector
        if injector.fire("replica.slow") is not None:
            # The stall is observable time, not an error: the replicated
            # engine's per-attempt budget is what converts it into a
            # typed ReplicaTimeout.
            self.clock.sleep(self.slow_stall)
        if injector.fire("replica.replay.stale") is not None:
            stale = self._remembered.get(remember_key)
            if stale is not None:
                return _fresh(stale)
        answer = read()
        if answer is None:
            return None
        self._remembered[remember_key] = answer
        answer = _fresh(answer)
        if len(answer) and injector.fire("replica.tamper") is not None:
            answer = tamper(answer)
        if len(answer) and injector.fire("replica.bin.drop") is not None:
            answer = drop(
                answer, injector.choose(len(answer), "replica.bin.drop")
            )
        return answer

    def _tamper_row(self, rows: list[Row]) -> list[Row]:
        injector = self.fault_injector
        victim = injector.choose(len(rows), "replica.tamper")
        row = rows[victim]
        position = injector.choose(len(row.columns), "replica.tamper")
        columns = list(row.columns)
        if isinstance(columns[position], bytes):
            columns[position] = injector.corrupt_bytes(
                columns[position], site="replica.tamper"
            )
            rows[victim] = Row(row_id=row.row_id, columns=tuple(columns))
        return rows

    def _tamper_packed_cell(self, packed):
        injector = self.fault_injector
        victim = injector.choose(packed.row_count, "replica.tamper")
        position = injector.choose(len(packed.columns), "replica.tamper")
        return packed.with_corrupted_cell(
            victim,
            position,
            lambda cell: injector.corrupt_bytes(cell, site="replica.tamper"),
        )

    def _tamper_node(self, nodes: list) -> list:
        injector = self.fault_injector
        victim = injector.choose(len(nodes), "replica.tamper")
        nodes[victim] = injector.corrupt_bytes(nodes[victim], site="replica.tamper")
        return nodes

    # --------------------------------------------- persistent stored tamper

    def corrupt_stored(self, table: str, every: int = 1) -> int:
        """Corrupt the replica's *stored* rows in place (persistently).

        Flips one byte of the first filter column of every ``every``-th
        row (the column stays unindexed, so the row is still *found* by
        its trapdoor — and then fails its hash chain).  Models a replica
        whose disk state was tampered with: all of its responses for the
        table fail verification until an anti-entropy repair resyncs it
        from a healthy peer.  Returns the number of rows corrupted.
        """
        tampered = 0
        for row_id, stored in self.inner.image(table).all_rows().items():
            if row_id % every:
                continue
            columns = list(stored)
            payload = columns[0]
            if isinstance(payload, bytes) and payload:
                columns[0] = payload[:-1] + bytes([payload[-1] ^ 0x5A])
                self.inner.overwrite(table, row_id, columns)
                tampered += 1
        if tampered:
            self.tampered_tables.add(table)
        return tampered

    # --------------------------------------------------------- delegation

    def __getattr__(self, name: str):
        # Everything not intercepted (DDL, writes, scans, counts, the
        # access log) behaves exactly like the wrapped engine.
        return getattr(self.inner, name)
