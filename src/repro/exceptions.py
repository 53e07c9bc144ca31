"""Exception hierarchy for the Concealer reproduction.

Every error raised by the library derives from :class:`ConcealerError`
so callers can catch library failures with a single ``except`` clause.
The sub-classes mirror the subsystems: crypto, storage, enclave, and the
core query-processing pipeline.

Orthogonally to the subsystem axis, errors are classified by *retry
semantics* so recovery policy can be type-driven:

- :class:`TransientError` — the operation may succeed if repeated
  (possibly after recovery action, e.g. rebuilding a crashed enclave);
- :class:`PermanentError` — repeating the operation cannot help; the
  failure reflects tampering or a corrupted artifact that must be
  quarantined or restored from a known-good copy.

Both are mixins: concrete exceptions multiply inherit from their
subsystem class *and* a retry-semantics class, so existing
``except StorageError`` call sites keep working unchanged.
"""

from __future__ import annotations


class ConcealerError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TransientError(ConcealerError):
    """A fault that may clear on retry (after recovery, if needed)."""


class PermanentError(ConcealerError):
    """A fault retrying cannot fix (tampering, corrupted artifact)."""


class CryptoError(ConcealerError):
    """A cryptographic operation failed (bad key, malformed ciphertext)."""


class DecryptionError(CryptoError):
    """Ciphertext failed authentication or could not be decrypted."""


class KeyDerivationError(CryptoError):
    """Key material was missing or malformed during derivation."""


class StorageError(ConcealerError):
    """The storage engine rejected an operation."""


class TransientStorageError(StorageError, TransientError):
    """A storage read/write failed transiently; safe to retry.

    Raised *before* any state change, so a retried write never applies
    twice.  :class:`repro.faults.clock.RetryPolicy` targets this type.
    """


class ReplicationError(StorageError):
    """The replicated storage layer could not satisfy an operation."""


class ReplicaTimeout(ReplicationError, TransientError):
    """A single replica's read exceeded its per-attempt budget.

    Consumed by the failover loop in
    :class:`repro.replication.engine.ReplicatedStorageEngine`; only
    surfaces to callers when every replica is slow.
    """


class NoHealthyReplica(ReplicationError, TransientStorageError):
    """Every replica was skipped, failed, or timed out for a read.

    A :class:`TransientStorageError`: retrying after backoff lets open
    circuit breakers reach half-open and probe their replicas again.
    """


class RepairFenced(ReplicationError, TransientError):
    """Anti-entropy repair aborted because an epoch rewrite is in flight.

    A repair copying bins concurrently with a
    :class:`~repro.core.rotation.RotationJournal` rewrite could
    resurrect pre-rotation ciphertexts; the repairer re-checks the
    engine's rewrite generation before applying and backs off instead.
    """


class DeadlineExceeded(TransientError):
    """A query's deadline budget expired before the operation finished.

    Deliberately *not* a :class:`TransientStorageError`: retrying within
    the same request cannot help (the budget stays spent); the caller
    must re-issue the request with a fresh deadline.
    """


class ServiceOverloaded(TransientError):
    """The admission queue was full and the request was shed.

    Raised *before* any work happens, so a shed request observes
    nothing about the data and is safe to retry after backoff.
    """


class TableNotFoundError(StorageError):
    """A referenced table does not exist in the storage engine."""


class IndexNotFoundError(StorageError):
    """A referenced secondary index does not exist on the table."""


class EnclaveError(ConcealerError):
    """The enclave simulator rejected an operation."""


class EnclaveMemoryError(EnclaveError):
    """An in-enclave working set exceeded the simulated EPC budget."""


class AttestationError(EnclaveError):
    """Remote attestation of the enclave failed."""


class EnclaveCrashed(EnclaveError, TransientError):
    """The enclave was killed (AEX / power event) and lost sealed state.

    Transient in the operational sense: a fresh enclave can be
    re-attested and re-provisioned (see
    :class:`repro.faults.recovery.RecoveryCoordinator`), after which the
    failed operation can be repeated.
    """


class ShardError(ConcealerError):
    """The sharded service layer could not satisfy an operation."""


class ShardUnavailable(ShardError, TransientError):
    """The shard owning the touched cell-ids is isolated right now.

    Raised for point queries (and non-mergeable range aggregates) whose
    single owning shard is crashed, breaker-open, or past its deadline
    budget.  Transient: the router re-admits the shard after
    re-attestation + checkpoint restore, after which a re-issued
    request succeeds.  Carries ``shard_ids`` so callers (and the chaos
    oracle) know exactly which partitions were missing.
    """

    def __init__(self, message: str, shard_ids: tuple[int, ...] = ()):
        super().__init__(message)
        self.shard_ids = tuple(shard_ids)


class NoHealthyShard(ShardError, TransientError):
    """Every shard of the topology is isolated; nothing can be planned."""


class RouterFenced(ShardError, TransientError):
    """A cross-shard two-phase operation (epoch ingest, key rotation)
    holds the router fence; queries are rejected rather than risk a
    mixed-epoch or mixed-key answer.  Safe to retry once the fence
    lifts — no query work happened.
    """


class ShardMisrouted(ShardError):
    """A shard received a single-shard query for cell-ids it does not
    own — a router bug (or a tampered router); the shard fails loudly
    instead of answering from a partition that cannot hold the rows.
    """


class AuthenticationError(ConcealerError):
    """A user could not be authenticated against the registry."""


class AuthorizationError(ConcealerError):
    """An authenticated user requested data it is not entitled to."""


class IntegrityError(ConcealerError):
    """Hash-chain verification detected tampered, missing or injected rows."""


class IntegrityViolation(IntegrityError, PermanentError):
    """A structured integrity-verification failure report.

    Carries enough context for the service to quarantine the affected
    cell-id and for an operator to act on the report, instead of a bare
    exception string.  ``kind`` is one of ``"counter-gap"``,
    ``"missing-tag"``, ``"chain-mismatch"``, ``"missing-cell"``,
    ``"quarantined"``, ``"undecryptable"``, ``"malformed-batch"`` (the
    answer is not a table of fixed-width byte cells), or, for
    aggregate-tree nodes, ``"missing-node"`` / ``"tree-node"``.
    """

    def __init__(
        self,
        message: str,
        *,
        epoch_id: int | None = None,
        cell_id: int | None = None,
        table: str | None = None,
        kind: str = "chain-mismatch",
    ):
        super().__init__(message)
        self.epoch_id = epoch_id
        self.cell_id = cell_id
        self.table = table
        self.kind = kind

    def report(self) -> dict:
        """A structured, serialisable view of the violation."""
        return {
            "message": str(self),
            "epoch_id": self.epoch_id,
            "cell_id": self.cell_id,
            "table": self.table,
            "kind": self.kind,
        }


class TelemetryError(ConcealerError):
    """The metrics registry rejected a registration or an update."""


class LeakageAuditError(ConcealerError):
    """A metric tagged public-size diverged between equal-public-size runs.

    Raised by :mod:`repro.telemetry.audit` when the volume-hiding
    contract encoded in the secrecy tags is violated — either a genuine
    volume leak, or a data-dependent metric mislabeled ``public-size``.
    """


class QueryError(ConcealerError):
    """A query was malformed or referenced values outside the data domain."""


class EpochError(ConcealerError):
    """An epoch package was malformed, duplicated, or out of order."""


class BinningError(ConcealerError):
    """Bin-packing could not satisfy its size or disjointness constraints."""
