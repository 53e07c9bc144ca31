"""Master-key rotation (§1.2(i), implemented as an extension).

The paper scopes key rotation out, citing updatable oblivious key
management [20].  Operationally it matters: a long-lived deployment
must be able to retire ``s_k`` (operator turnover, suspected exposure)
without re-shipping every epoch from the data provider.

Protocol (all re-encryption happens *inside the enclave*; the service
provider host never sees plaintext):

1. The data provider authorizes the rotation with a token proving
   knowledge of the *current* master key, bound to a commitment of the
   new key — the host cannot forge a rotation to a key it controls.
2. The enclave verifies the token against its sealed master key.
3. Per ingested epoch, the enclave first holds the stored rows to the
   epoch's sealed tags (the §5 check of a verified read, over the whole
   table: every populated cell present, counters complete, chains
   equal) — rotation seals *new* tags over what it finds, so it must
   not find anything the data provider did not ship.  It then decrypts
   every stored column under the old epoch key and re-encrypts under
   the new one (fake columns are re-randomized at the same length),
   in memory, packs the re-keyed rows into new sealed bins by the old
   slot layout (the one whole-table write that packs), then installs
   the re-keyed table whole — same row ids, same slot layout, so the
   epoch keeps reading sealed bins — and makes it the epoch's master.
   The tree sidecar is dropped: its directory is keyed by combination
   digests the enclave cannot re-key.  The epoch package's metadata
   vectors are re-encrypted and the tags rebuilt over the new
   ciphertexts, so verification keeps working after rotation.
4. The enclave swaps its sealed key schedule; the provider adopts the
   new master for future epochs.

Restrictions: epochs already touched by §6 dynamic rewrites carry
per-bin generations this routine does not track; rotate before going
dynamic, or re-ship those rounds.

**Crash safety.**  Rotation rewrites every stored table, so an enclave
killed between two epochs (AEX, power event) would otherwise strand
some epochs under the old key and some under the new.  Rotation
therefore runs under a :class:`RotationJournal`: an *intent* record
holds each epoch's pre-rotation table image and package
before it is rewritten, the sealed key swap happens only after the
journal *commits*, and any failure (including an injected
:class:`~repro.exceptions.EnclaveCrashed`) installs every touched
epoch's image back — the old key remains valid and the old epoch
stays queryable, sealed bins and tree included, after recovery.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import replace

from repro import telemetry
from repro.core.epoch import FAKE_CHAIN_LABEL, EpochPackage, encode_int_vector, rekey_row
from repro.core.grid import derive_grid_key
from repro.core.packed import PackedBin
from repro.core.service import ServiceProvider
from repro.crypto.kernels import (
    CHAIN_INIT,
    DeterministicCipher,
    RandomizedCipher,
    batch_chain_extend,
)
from repro.crypto.keys import EpochKeySchedule, derive_epoch_key
from repro.crypto.prf import Prf
from repro.exceptions import AuthorizationError, CryptoError, IntegrityViolation
from repro.storage.table import Row, TableImage


def rotation_token(old_master: bytes, new_master: bytes) -> bytes:
    """The DP's proof of authority over the current key, binding the new."""
    commitment = Prf(new_master)(b"rotation-commitment")
    return Prf(old_master)(b"authorize-rotation", commitment)


class RotationJournal:
    """Intent/commit journal giving rotation all-or-nothing semantics.

    ``begin_epoch`` files an intent — the epoch's verified pre-rotation
    image (its sealed bins held whole, no copy) and package — just
    before the table is rewritten, so an epoch that failed verification
    is never rolled back onto its peers.  The rewrite gives the epoch a
    re-keyed package and master image.  ``commit`` discards the intents
    (the point of no return preceding the sealed key swap), so no
    pre-rotation bin stays reachable; ``rollback`` installs every
    intent's image and makes it and the package the epoch's again.
    """

    @staticmethod
    def _count_phase(phase: str, amount: int = 1) -> None:
        telemetry.counter(
            "concealer_rotation_epochs_total",
            "rotation journal transitions, by phase "
            "(intent / commit / rollback)",
            labels=("phase",),
        ).labels(phase=phase).inc(amount)

    def __init__(self):
        self._intents: list[tuple[int, TableImage, EpochPackage]] = []
        self.committed = False

    def begin_epoch(
        self, service: ServiceProvider, epoch_id: int, image: TableImage
    ) -> None:
        """File the intent to rewrite one epoch from ``image``."""
        self._intents.append((epoch_id, image, service._packages[epoch_id]))
        self._count_phase("intent")

    def commit(self) -> None:
        """Point of no return: every epoch rewrote cleanly."""
        self._count_phase("commit", len(self._intents))
        self._intents.clear()
        self.committed = True

    def rollback(self, service: ServiceProvider) -> int:
        """Restore every intent's epoch to its pre-rotation state.

        Runs host-side (the ciphertexts being restored are the host's
        own stored bytes), so it works even when the enclave is dead.
        Returns the number of epochs restored.
        """
        restored = 0
        for epoch_id, image, package in self._intents:
            service.engine.install(image)
            service._masters[epoch_id], service._packages[epoch_id] = image, package
            restored += 1
        self._count_phase("rollback", restored)
        self._intents.clear()
        # Cached contexts may hold ciphers for half-rotated state.
        service._drop_contexts()
        return restored


class PreparedRotation:
    """Phase-1 output: every table rewritten, nothing irreversible yet.

    Between :func:`prepare_rotation` and :func:`commit_rotation` the
    stored rows are under the *new* epoch keys but the enclave still
    seals the *old* master and the journal still holds every intent —
    so :func:`abort_rotation` can install the pre-rotation images
    host-side even if the enclave has since died.  The engine's rewrite
    fence (``begin_rewrite``) is held across the whole window; both
    ``commit`` and ``abort`` release it.
    """

    def __init__(
        self,
        service: ServiceProvider,
        journal: RotationJournal,
        old_master: bytes,
        new_master: bytes,
        rotated_rows: int,
    ):
        self.service = service
        self.journal = journal
        self.old_master = old_master
        self.new_master = new_master
        self.rotated_rows = rotated_rows
        self._settled = False

    def _settle(self) -> None:
        if self._settled:
            raise CryptoError("rotation already committed or aborted")
        self._settled = True
        self.service.engine.end_rewrite()


def prepare_rotation(
    service: ServiceProvider, new_master: bytes, token: bytes
) -> PreparedRotation:
    """Phase 1: verify the token and rewrite every epoch under the journal.

    On any failure (including an injected enclave kill) the journal
    rolls the touched epochs back, the rewrite fence lifts, and the
    exception propagates — the old key stays fully valid.  On success
    the returned :class:`PreparedRotation` *must* be settled with
    :func:`commit_rotation` or :func:`abort_rotation`.
    """
    enclave = service.enclave
    enclave.require_provisioned()
    old_master = enclave.master_key
    expected = rotation_token(old_master, new_master)
    if not _hmac.compare_digest(token, expected):
        raise AuthorizationError("rotation token invalid: not authorized by DP")

    journal = RotationJournal()
    # Fence the engine: anti-entropy repair copying a table while this
    # rewrite is in flight would resurrect pre-rotation ciphertexts.
    # begin/end both bump the engine's rewrite generation, so a repair
    # that took its image *before* the rotation aborts at apply time
    # even if it runs after the fence lifts.
    service.engine.begin_rewrite()
    with telemetry.span(
        "rotation.prepare", epochs=len(service.ingested_epochs())
    ) as rotate_span:
        try:
            rotated_rows = _rotate_all_epochs(
                service, old_master, new_master, journal
            )
        except BaseException:
            journal.rollback(service)
            service.engine.end_rewrite()
            raise
        rotate_span.set(rows=rotated_rows)
    return PreparedRotation(service, journal, old_master, new_master, rotated_rows)


def commit_rotation(prepared: PreparedRotation) -> int:
    """Phase 2: point of no return — journal commits, sealed key swaps."""
    service = prepared.service
    enclave = service.enclave
    # The sealed key swap is an ecall; a dead enclave cannot commit.
    enclave.require_provisioned()
    prepared.journal.commit()
    prepared._settle()
    telemetry.counter(
        "concealer_rotation_rows_total",
        "rows re-encrypted by committed key rotations",
        secrecy=telemetry.PUBLIC_SIZE,
    ).inc(prepared.rotated_rows)

    # Swap the sealed key material; cached contexts hold old ciphers,
    # so they are dropped and rebuilt under the new key on next use.
    old_schedule = enclave.key_schedule
    enclave.swap_master_key(
        prepared.new_master,
        EpochKeySchedule(
            master_key=prepared.new_master,
            first_epoch_id=old_schedule.first_epoch_id,
            epoch_duration=old_schedule.epoch_duration,
        ),
    )
    service._drop_contexts()
    return prepared.rotated_rows


def abort_rotation(prepared: PreparedRotation) -> int:
    """Undo a prepared rotation: install the pre-rotation images.

    Works with a dead enclave (rollback reinstalls the host's own stored
    ciphertexts); the old master stays the live key.  Returns the
    number of epochs restored.
    """
    restored = prepared.journal.rollback(prepared.service)
    prepared._settle()
    return restored


def rotate_service_keys(
    service: ServiceProvider, new_master: bytes, token: bytes
) -> int:
    """Re-encrypt every ingested epoch under keys from ``new_master``.

    The single-service entry point: prepare + commit in one call.
    Returns the number of rows re-encrypted.  Raises
    :class:`AuthorizationError` on a bad token and
    :class:`CryptoError` if the stored rows fail verification against
    the epoch's sealed tags (the storage was tampered with — rotation
    aborts before swapping keys, leaving the old key valid).  The
    sharded tier drives the two phases separately
    (:mod:`repro.sharding.coordinator`) so every shard prepares before
    any shard commits.
    """
    prepared = prepare_rotation(service, new_master, token)
    return commit_rotation(prepared)


def _rotate_all_epochs(
    service: ServiceProvider,
    old_master: bytes,
    new_master: bytes,
    journal: RotationJournal,
) -> int:
    """Re-key every epoch's table in memory and install it whole,
    journalling the verified pre-rotation image first."""
    enclave = service.enclave
    rotated_rows = 0
    chained_columns = len(service.schema.filter_groups) + 1
    for epoch_id in service.ingested_epochs():
        package = service._packages[epoch_id]
        image = service.engine.image(service._table_name(epoch_id))
        enclave.kill_point("enclave.kill.rotation")
        # The epoch as the old key opens it (commit and rollback both
        # drop it); the new ciphers prime their HMAC bases once per epoch.
        context = service.context_for(epoch_id)
        new_key = derive_epoch_key(new_master, epoch_id)
        new_det, new_nd = DeterministicCipher(new_key), RandomizedCipher(new_key)

        table = image.table
        rows = [Row(row_id, columns) for row_id, columns in image.all_rows().items()]
        # New tags are sealed over whatever is stored, so what is stored
        # is first held to the old ones — every populated cell present,
        # counters 1..c_tuple, each column's chain — or a tampered row
        # would come out of rotation authenticated.
        try:
            context.verify_rows(rows, range(len(context.c_tuple)))
        except IntegrityViolation as violation:
            raise CryptoError(
                f"{table} fails verification against its sealed tags — "
                f"storage tampered, rotation aborted: {violation}"
            ) from violation

        # Verifiable tags chain the *stored* ciphertexts, so rotation
        # rebuilds the chains over the new ones, ordered by each real
        # row's counter within its cell-id and each fake's id.
        numbered: dict[int, list[tuple[int, list[bytes]]]] = {}
        rekeyed: dict[int, tuple] = {}
        for row in rows:
            # One kill point per row, as when rows were rewritten one
            # at a time, so a seeded fault schedule draws the same.
            enclave.kill_point("enclave.kill.rotation")
            columns, meta = rekey_row(row.columns, context.det, new_det, new_nd)
            label = int(meta[1]) if meta[0] == b"idx" else FAKE_CHAIN_LABEL
            numbered.setdefault(label, []).append(
                (int(meta[-1]), columns[:chained_columns])
            )
            rekeyed[row.row_id] = tuple(columns)
        journal.begin_epoch(service, epoch_id, image)
        # The one whole-table write that changes sealed bytes: the
        # re-keyed rows go into new bins by the old slot layout.
        bins = image.bins and {
            index: PackedBin.pack(index, [Row(r, rekeyed[r]) for r in packed.row_ids])
            for index, packed in image.bins.items()
        }
        loose = {row_id: rekeyed[row_id] for row_id in image.rows}
        service._masters[epoch_id] = replace(image, rows=loose, bins=bins, tree=None)
        service.engine.install(service._masters[epoch_id])
        rotated_rows += len(rekeyed)

        new_tags: dict[int, tuple[bytes, ...]] = {}
        for label, entries in numbered.items():
            entries.sort(key=lambda pair: pair[0])
            chains = batch_chain_extend(
                [CHAIN_INIT] * chained_columns,
                [
                    [columns[position] for _, columns in entries]
                    for position in range(chained_columns)
                ],
                counted=False,
            )
            new_tags[label] = tuple(new_nd.encrypt(digest) for digest in chains)

        # Metadata vectors and tags move to the new epoch key too.
        # Pre-rotation packages derived placement from the master key;
        # pin the old derivation explicitly so placements survive.
        service._packages[epoch_id] = replace(
            package,
            enc_cell_id_vector=new_nd.encrypt(encode_int_vector(context.cell_id_vector)),
            enc_c_tuple_vector=new_nd.encrypt(encode_int_vector(context.c_tuple)),
            enc_cell_counts=new_nd.encrypt(encode_int_vector(context.cell_counts)),
            enc_grid_key=new_nd.encrypt(
                context.nd.decrypt(package.enc_grid_key)
                if package.enc_grid_key
                else derive_grid_key(old_master, epoch_id)
            ),
            enc_tags=new_tags,
        )
    return rotated_rows
