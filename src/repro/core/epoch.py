"""The encrypted epoch package a data provider ships (§3, Table 2c).

One :class:`EpochPackage` is Algorithm 1's complete output for one
epoch:

- the permuted encrypted rows — per row, one DET ciphertext per filter
  group, the DET-encrypted full tuple, and the index-column ciphertext
  ``E_k(cid ‖ counter)`` (or ``E_k(f ‖ j)`` for fakes);
- the two metadata vectors ``cell_id[]`` and ``c_tuple[]``, encrypted
  with the randomized cipher ``E_nd``;
- the per-cell tuple counts (what §5.2's eBPB needs instead of
  ``c_tuple[]``), also under ``E_nd``;
- the encrypted verifiable tags (one hash-chain digest per encrypted
  column per cell-id);
- public metadata: epoch id, grid spec, row counts and the time
  granularity of readings (all part of the setup leakage ``L_s``).

Index-column plaintexts are produced by :func:`index_plaintext` /
:func:`fake_index_plaintext` so the data provider and the enclave's
trapdoor generator always agree bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.grid import GridSpec
from repro.crypto.nondet import RandomizedCipher
from repro.exceptions import EpochError

_SEP = b"\x1f"

# Chain label for the fake-tuple hash chain (a reproduction extension:
# the paper chains only real tuples, leaving fakes unverifiable).
FAKE_CHAIN_LABEL = -1

# Fixed index-key plaintext width: real and fake index ciphertexts must
# be the same length, or the stored column would reveal which rows are
# fake at rest.
INDEX_PAD_WIDTH = 32


def index_plaintext(cell_id: int, counter: int) -> bytes:
    """Plaintext of a real row's index key: ``cid_z || c_t`` (padded)."""
    from repro.core.schema import pad_plaintext

    raw = b"idx" + _SEP + str(cell_id).encode() + _SEP + str(counter).encode()
    return pad_plaintext(raw, INDEX_PAD_WIDTH)


def fake_index_plaintext(fake_id: int) -> bytes:
    """Plaintext of a fake row's index key: ``f || j`` (padded)."""
    from repro.core.schema import pad_plaintext

    raw = b"fake" + _SEP + str(fake_id).encode()
    return pad_plaintext(raw, INDEX_PAD_WIDTH)


def rekey_row(columns, old_det, new_det, nd) -> tuple[list[bytes], list[bytes]]:
    """One stored row moved from ``old_det`` to ``new_det`` (key
    rotation, the §6 rewrite): the new columns, and the fields of its
    index key — ``[b"idx", cid, counter]`` or ``[b"fake", j]``.

    The index key says what the row is, so it must decrypt; so must
    every column of a real row (:class:`DecryptionError` otherwise —
    the stored row was tampered with).  A fake's filter and payload
    columns are ``E_nd`` garbage and get fresh garbage of the same
    length (the 32 bytes of ``E_nd`` framing stay constant).
    """
    from repro.core.schema import unpad_plaintext

    *cells, index_key = columns
    index_plain = old_det.decrypt(index_key)
    meta = unpad_plaintext(index_plain).split(_SEP)
    if meta[0] == b"idx":
        cells = new_det.encrypt_many(
            old_det.decrypt_many(cells, counted=False), counted=False
        )
    else:
        cells = [nd.encrypt(b"\x00" * max(0, len(cell) - 32)) for cell in cells]
    return cells + [new_det.encrypt(index_plain)], meta


def encode_int_vector(values: list[int]) -> bytes:
    """Serialize an integer vector for ``E_nd`` encryption.

    zlib-compressed JSON: the §9.1 vectors are large (31 MB at paper
    scale) but highly repetitive, so compression cuts the shipped
    metadata several-fold.  The compressed length leaks only vector
    entropy, which is derived from public grid geometry plus row
    counts already in L_s.
    """
    import zlib

    raw = json.dumps(values, separators=(",", ":")).encode("ascii")
    return b"z" + zlib.compress(raw, level=6)


def decode_int_vector(blob: bytes) -> list[int]:
    """Inverse of :func:`encode_int_vector` (accepts legacy raw JSON)."""
    import zlib

    if blob[:1] == b"z":
        try:
            blob = zlib.decompress(blob[1:])
        except zlib.error as error:
            raise EpochError(f"corrupt metadata vector: {error}") from error
    values = json.loads(blob.decode("ascii"))
    if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
        raise EpochError("decrypted metadata vector is not an int list")
    return values


@dataclass(frozen=True)
class EncryptedRow:
    """One row of the outsourced relation (a line of Table 2c)."""

    filters: tuple[bytes, ...]
    payload: bytes
    index_key: bytes

    def as_columns(self) -> list[bytes]:
        """Flatten for storage-engine insertion (filters, payload, index)."""
        return [*self.filters, self.payload, self.index_key]


@dataclass
class EpochPackage:
    """Everything the data provider transmits for one epoch."""

    schema_name: str
    epoch_id: int
    grid_spec: GridSpec
    time_granularity: int
    # ``None``: metadata only — a landed epoch's kept package, whose
    # rows live in storage (repro.core.service.ServiceProvider).
    rows: list[EncryptedRow] | None
    enc_cell_id_vector: bytes
    enc_c_tuple_vector: bytes
    enc_cell_counts: bytes
    enc_tags: dict[int, tuple[bytes, ...]] = field(default_factory=dict)
    real_count: int = 0
    fake_count: int = 0
    # Public packing parameters: the enclave's deterministic packing must
    # match the fakes the provider shipped.  ``bin_size=None`` means the
    # default |b| = max cell-id population; ``max_cells_per_bin`` caps
    # cell-ids per bin (bounds the §4.3 oblivious schedule).
    bin_size: int | None = None
    max_cells_per_bin: int | None = None
    # The sealed placement secret: E_nd(grid_key).  Kept separate from
    # the master key so master-key rotation re-encrypts this blob but
    # preserves its value — placements survive rotation.  Empty means
    # "derive from the master key" (pre-rotation compatibility).
    enc_grid_key: bytes = b""
    # Columnar form of the same rows, one PackedBin per Theorem-4.1 bin
    # in canonical slot order (see repro.core.packed).  ``None`` means
    # the provider did not (or could not) pack — the epoch is read by
    # trapdoor.  Once landed, the bins are the record of truth for the
    # rows they hold (repro.storage.table.Table), and the service keeps
    # them, the rows outside them and the tree as the epoch's master
    # image (repro.core.service.ServiceProvider).
    packed_bins: "list | None" = None
    # The hierarchical aggregate-tree sidecar (repro.core.aggtree):
    # fixed-shape encrypted aggregates at every power-of-k time
    # granularity.  ``None`` means no tree shipped — long-range
    # aggregates fall back to the bin path.
    agg_tree: "object | None" = None

    def __post_init__(self):
        if self.rows is not None and self.real_count + self.fake_count != len(self.rows):
            raise EpochError(
                f"row accounting broken: {self.real_count} real + "
                f"{self.fake_count} fake != {len(self.rows)} rows"
            )
        if self.time_granularity < 1:
            raise EpochError("time granularity must be >= 1")

    # The vector payloads below are decrypted *inside the enclave*; the
    # methods exist so enclave code does not repeat serialization details.

    def decrypt_cell_id_vector(self, cipher: RandomizedCipher) -> list[int]:
        """Enclave-side: recover ``cell_id[]``."""
        return decode_int_vector(cipher.decrypt(self.enc_cell_id_vector))

    def decrypt_c_tuple_vector(self, cipher: RandomizedCipher) -> list[int]:
        """Enclave-side: recover ``c_tuple[]`` (per-cell-id populations)."""
        return decode_int_vector(cipher.decrypt(self.enc_c_tuple_vector))

    def decrypt_cell_counts(self, cipher: RandomizedCipher) -> list[int]:
        """Enclave-side: recover per-cell populations (eBPB metadata)."""
        return decode_int_vector(cipher.decrypt(self.enc_cell_counts))

    @property
    def column_names(self) -> list[str]:
        """Storage column names for this package's rows."""
        rows = self._rows()
        arity = len(rows[0].as_columns()) if rows else 2
        return [f"filter_{i}" for i in range(arity - 2)] + ["payload", "index_key"]

    def stored_rows(self) -> list[tuple]:
        """Every row's stored column tuple, in row-id (position) order."""
        return [tuple(row.as_columns()) for row in self._rows()]

    def _rows(self) -> list[EncryptedRow]:
        if self.rows is None:
            raise EpochError(f"epoch {self.epoch_id}'s kept package holds no rows")
        return self.rows

    def metadata_bytes(self) -> int:
        """Size of the encrypted metadata vectors (reported by §9.1)."""
        return (
            len(self.enc_cell_id_vector)
            + len(self.enc_c_tuple_vector)
            + len(self.enc_cell_counts)
        )

    # ------------------------------------------------------------ wire format

    def serialize(self) -> bytes:
        """Encode the package for transmission to the service provider.

        A self-describing JSON envelope with base64 ciphertext fields —
        everything in it is either public metadata (L_s) or ciphertext.
        """
        import base64
        import json as _json

        b64 = lambda b: base64.b64encode(b).decode("ascii")  # noqa: E731
        envelope = {
            "schema_name": self.schema_name,
            "epoch_id": self.epoch_id,
            "grid": {
                "dimension_sizes": list(self.grid_spec.dimension_sizes),
                "cell_id_count": self.grid_spec.cell_id_count,
                "epoch_duration": self.grid_spec.epoch_duration,
                "time_local_cell_ids": self.grid_spec.time_local_cell_ids,
            },
            "time_granularity": self.time_granularity,
            "bin_size": self.bin_size,
            "max_cells_per_bin": self.max_cells_per_bin,
            "real_count": self.real_count,
            "fake_count": self.fake_count,
            "grid_key": b64(self.enc_grid_key),
            "cell_id_vector": b64(self.enc_cell_id_vector),
            "c_tuple_vector": b64(self.enc_c_tuple_vector),
            "cell_counts": b64(self.enc_cell_counts),
            "tags": {
                str(label): [b64(d) for d in digests]
                for label, digests in self.enc_tags.items()
            },
            "rows": [
                [[b64(f) for f in columns[:-2]], b64(columns[-2]), b64(columns[-1])]
                for columns in self.stored_rows()
            ],
        }
        if self.packed_bins is not None:
            envelope["packed_bins"] = [
                b64(packed.to_bytes()) for packed in self.packed_bins
            ]
        if self.agg_tree is not None:
            envelope["agg_tree"] = b64(self.agg_tree.to_bytes())
        return _json.dumps(envelope, separators=(",", ":")).encode("utf-8")

    @classmethod
    def deserialize(cls, blob: bytes) -> "EpochPackage":
        """Inverse of :meth:`serialize`."""
        import base64
        import json as _json

        from repro.core.grid import GridSpec

        from repro.core.aggtree import AggTree
        from repro.core.packed import PackedBin

        b64d = base64.b64decode
        try:
            envelope = _json.loads(blob.decode("utf-8"))
            packed_bins = None
            if envelope.get("packed_bins") is not None:
                packed_bins = [
                    PackedBin.from_bytes(b64d(encoded))
                    for encoded in envelope["packed_bins"]
                ]
            agg_tree = None
            if envelope.get("agg_tree") is not None:
                agg_tree = AggTree.from_bytes(b64d(envelope["agg_tree"]))
            rows = [
                EncryptedRow(
                    filters=tuple(b64d(f) for f in filters),
                    payload=b64d(payload),
                    index_key=b64d(index_key),
                )
                for filters, payload, index_key in envelope["rows"]
            ]
            return cls(
                schema_name=envelope["schema_name"],
                epoch_id=envelope["epoch_id"],
                grid_spec=GridSpec(
                    dimension_sizes=tuple(envelope["grid"]["dimension_sizes"]),
                    cell_id_count=envelope["grid"]["cell_id_count"],
                    epoch_duration=envelope["grid"]["epoch_duration"],
                    time_local_cell_ids=envelope["grid"].get(
                        "time_local_cell_ids", True
                    ),
                ),
                time_granularity=envelope["time_granularity"],
                rows=rows,
                enc_grid_key=b64d(envelope.get("grid_key", "")),
                enc_cell_id_vector=b64d(envelope["cell_id_vector"]),
                enc_c_tuple_vector=b64d(envelope["c_tuple_vector"]),
                enc_cell_counts=b64d(envelope["cell_counts"]),
                enc_tags={
                    int(label): tuple(b64d(d) for d in digests)
                    for label, digests in envelope["tags"].items()
                },
                real_count=envelope["real_count"],
                fake_count=envelope["fake_count"],
                bin_size=envelope["bin_size"],
                max_cells_per_bin=envelope["max_cells_per_bin"],
                packed_bins=packed_bins,
                agg_tree=agg_tree,
            )
        except (KeyError, ValueError, TypeError) as error:
            raise EpochError(f"malformed epoch package: {error}") from error
