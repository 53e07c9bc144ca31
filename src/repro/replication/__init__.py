"""Byzantine-resilient replication for the Concealer bin store.

The paper's threat model (§3) trusts nothing outside the enclave: the
storage provider may tamper with, drop, replay, or delay any response.
Concealer *detects* this with per-cell hash chains — this package adds
*resilience*: N replicas behind verify-then-failover reads, so a
tampering or failing replica costs a failover instead of a failed
query.

Layer map:

- :mod:`~repro.replication.engine` —
  :class:`~repro.replication.engine.ReplicatedStorageEngine`, the
  drop-in engine fronting N replicas, plus the per-cell
  :class:`~repro.replication.engine.ReplicaQuarantine`;
- :mod:`~repro.replication.breaker` — per-replica circuit breakers;
- :mod:`~repro.replication.deadline` — request deadline budgets,
  threaded service → enclave → storage;
- :mod:`~repro.replication.repair` — the anti-entropy repairer
  (majority-digest peer sync, DP-master fallback, rotation fencing);
- :mod:`~repro.replication.byzantine` — the adversarial replica
  wrapper driven by the seeded fault injector (chaos harness).
"""

from repro.replication.breaker import BreakerConfig, CircuitBreaker
from repro.replication.byzantine import ByzantineReplica
from repro.replication.deadline import Deadline
from repro.replication.engine import (
    QuarantineEntry,
    ReplicaQuarantine,
    ReplicatedStorageEngine,
    ReplicationPolicy,
)
from repro.replication.repair import AntiEntropyRepairer, RepairOutcome

__all__ = [
    "AntiEntropyRepairer",
    "BreakerConfig",
    "ByzantineReplica",
    "CircuitBreaker",
    "Deadline",
    "QuarantineEntry",
    "RepairOutcome",
    "ReplicaQuarantine",
    "ReplicatedStorageEngine",
    "ReplicationPolicy",
]
