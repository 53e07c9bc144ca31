"""Algorithm 1: data-provider-side epoch encryption.

For each epoch the data provider:

1. derives the epoch key ``k = KDF(s_k, eid)`` (Line 2);
2. places every tuple on the grid, bumps the per-cell-id counter, and
   DET-encrypts the filter columns, the full tuple, and the index key
   ``E_k(cid ‖ counter)`` (Lines 4–11);
3. manufactures fake tuples (Lines 12–15) using one of two strategies:
   ``EQUAL`` ships one fake per real tuple (the worst case Theorem 4.1
   allows), while ``SIMULATED`` runs the very same deterministic bin
   packing the enclave will run and ships exactly the fakes the padded
   bins need;
4. builds one hash chain per cell-id per encrypted column and seals the
   final digests as verifiable tags (Lines 16–21);
5. permutes real and fake rows together and emits the
   :class:`~repro.core.epoch.EpochPackage` (Lines 22–25).

Throughput of this function is the paper's Exp 1 (≈37,185 rows/min on
the authors' hardware).

**Row encryption.**  Every column of an epoch goes through one batched
pass of the cipher suite (:mod:`repro.crypto.kernels`) over the epoch's
*distinct* plaintexts.  Lines 4–21 are also embarrassingly parallel per
cell-id: every row's ciphertexts depend only on the epoch key and the
row's own ``(cid, counter)`` assignment, and the per-cell hash chains
never cross cells.  With ``workers=N`` rows are partitioned *by
cell-id* across a bounded process pool, each worker running Lines 4–21
for its cells, and the parent merging results by original row position.
Everything RNG-ordered — fake nonces, tag nonces, the Line-24
permutation, the metadata vectors — stays single-threaded in the
parent, in a fixed sequence, so a ``workers=4`` package is
**bit-for-bit identical** to ``workers=1``, and both to fixed golden
digests (``tests/core/test_parallel_encryptor.py``).  Pool failures (no
fork support, pickling issues) fall back to the serial path.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from repro.core.aggtree import build_agg_tree, default_entity_count
from repro.core.binning import pack_bins
from repro.core.collector import collector_quiet
from repro.core.epoch import (
    FAKE_CHAIN_LABEL,
    EncryptedRow,
    EpochPackage,
    encode_int_vector,
    fake_index_plaintext,
    index_plaintext,
)
from repro.core.grid import Grid, GridSpec, Placement, derive_grid_key
from repro.core.schema import DatasetSchema
from repro.crypto.kernels import (
    CHAIN_INIT,
    DeterministicCipher,
    RandomizedCipher,
    record_kernel_ops,
)
from repro.crypto.keys import derive_epoch_key
from repro.exceptions import EpochError


class FakeStrategy(str, Enum):
    """§3's two fake-tuple generation methods."""

    EQUAL = "equal"          # method (i): one fake per real tuple
    SIMULATED = "simulated"  # method (ii): simulate binning, ship exactly enough


@dataclass
class EncryptionReport:
    """Accounting emitted alongside a package (drives Exp 1 / Exp 6)."""

    epoch_id: int
    real_rows: int
    fake_rows: int
    bin_size: int
    bin_count: int
    metadata_bytes: int
    workers: int = 1


def _encrypt_partition(args: tuple) -> tuple[list, dict]:
    """Worker body: Lines 4–11 + 16–21 for one cell-id partition.

    ``records`` and ``cids`` are parallel; every record of a given
    cell-id, in original record order, lives in exactly one partition,
    so the worker recomputes the per-cell counters and chain folds
    locally and they match the global assignment.  Rows come back in
    input order.  Module-level so the process pool can pickle it.
    """
    epoch_key, schema, records, cids = args
    det = DeterministicCipher(epoch_key)
    sha = hashlib.sha256
    filter_count = len(schema.filter_groups)

    # Phase 1 — collect plaintexts, deduplicated.  DET is deterministic,
    # so identical plaintexts yield identical ciphertexts: the
    # (location, time) filter repeats across rows, and each repeat saves
    # a full SIV encryption.
    unique: dict[bytes, int] = {}
    counters: dict[int, int] = {}
    refs: list[int] = []
    for record, cid in zip(records, cids):
        counter = counters[cid] = counters.get(cid, 0) + 1
        for plaintext in schema.column_plaintexts(record):
            refs.append(unique.setdefault(plaintext, len(unique)))
        refs.append(unique.setdefault(index_plaintext(cid, counter), len(unique)))

    # Phase 2 — one batched SIV pass over the distinct plaintexts.
    ciphertexts = det.encrypt_many(list(unique), counted=False)

    # Phase 3 — assemble rows and fold the per-cell chains.
    digests: dict[int, list[bytes]] = {}
    rows: list[EncryptedRow] = []
    width = filter_count + 2
    for number, cid in enumerate(cids):
        columns = [ciphertexts[i] for i in refs[number * width : (number + 1) * width]]
        rows.append(
            EncryptedRow(
                filters=tuple(columns[:filter_count]),
                payload=columns[filter_count],
                index_key=columns[-1],
            )
        )
        chain = digests.get(cid)
        if chain is None:
            chain = digests[cid] = [CHAIN_INIT] * (filter_count + 1)
        for position in range(filter_count + 1):
            chain[position] = sha(columns[position] + chain[position]).digest()
    return rows, digests


class EpochEncryptor:
    """Runs Algorithm 1 for a fixed schema/grid configuration.

    ``bin_size`` optionally overrides the packing bin size (default:
    the epoch's maximum cell-id population — the paper's ``|b| = max``).
    ``rng`` seeds the Line-24 permutation *and* the randomized-cipher
    nonces; pass a seeded ``random.Random`` for reproducible packages.
    ``workers`` sets the default ingest parallelism (overridable per
    call).
    """

    # A partition below this many rows is not worth a fork: the pool
    # spawn + pickle overhead would eat the win.
    min_rows_per_worker = 64

    def __init__(
        self,
        schema: DatasetSchema,
        grid_spec: GridSpec,
        master_key: bytes,
        fake_strategy: FakeStrategy = FakeStrategy.SIMULATED,
        bin_size: int | None = None,
        max_cells_per_bin: int | None = None,
        time_granularity: int = 1,
        rng: random.Random | None = None,
        workers: int = 1,
        agg_tree: bool = True,
        agg_tree_fanout: int = 4,
        agg_tree_entities: int | None = None,
    ):
        self.schema = schema
        self.grid_spec = grid_spec
        self.master_key = master_key
        self.fake_strategy = FakeStrategy(fake_strategy)
        self.bin_size = bin_size
        self.max_cells_per_bin = max_cells_per_bin
        self.time_granularity = time_granularity
        # The hierarchical aggregate-tree sidecar (repro.core.aggtree):
        # fanout k of the time-aggregation tree and the public entity
        # capacity (None → one entity per time-free prefix cell).
        self.agg_tree = agg_tree
        self.agg_tree_fanout = agg_tree_fanout
        self.agg_tree_entities = agg_tree_entities
        # §1.2(iii): different per-epoch row counts (day vs night) leak;
        # optionally pad every shipped epoch to a fixed total row count
        # with additional fakes.  None disables (the paper's default).
        self.pad_epoch_rows_to: int | None = None
        self._rng = rng if rng is not None else random.Random()
        # Nonce source for E_nd: the caller's rng when one was supplied
        # (reproducible packages), os.urandom otherwise.
        self._nonce_rng = rng
        self.workers = workers
        self.last_report: EncryptionReport | None = None

    def place(self, records: Sequence[tuple], epoch_id: int) -> Placement:
        """Validate one epoch's records and place them on its grid — once
        per epoch: a sharded provider hands each shard a slice of this."""
        for record in records:
            self._check_record(record, epoch_id)
        grid = Grid(
            self.grid_spec, self.schema, self.master_key, epoch_id,
            grid_key=derive_grid_key(self.master_key, epoch_id),
        )
        return grid.place_records(records)

    @collector_quiet()
    def encrypt_epoch(
        self,
        records: Sequence[tuple],
        epoch_id: int,
        workers: int | None = None,
        placement: Placement | None = None,
    ) -> EpochPackage:
        """Encrypt one epoch's records into a transmissible package.

        ``workers`` overrides the instance default for this call.  The
        produced package bytes depend only on ``(records, epoch_id,
        master_key, rng state)`` — never on ``workers``.  ``placement``:
        :meth:`place` of these records.
        """
        workers = self.workers if workers is None else workers
        if workers < 1:
            raise EpochError("workers must be >= 1")
        records = list(records)
        if placement is None:
            placement = self.place(records, epoch_id)
        grid = placement.grid
        epoch_key = derive_epoch_key(self.master_key, epoch_id)
        nd = RandomizedCipher(epoch_key, rng=self._nonce_rng)

        c_tuple = [0] * self.grid_spec.cell_id_count
        cell_counts = [0] * self.grid_spec.total_cells
        column_count = len(self.schema.filter_groups) + 1

        # Serial pre-pass (Lines 6–7): the (cid, counter) assignment
        # every later stage keys off.
        cids = placement.cell_ids
        counters: list[int] = []
        for flat, cid in zip(placement.flats, cids):
            cell_counts[flat] += 1
            c_tuple[cid] += 1
            counters.append(c_tuple[cid])
        cid_order = list(dict.fromkeys(cids))  # first appearance fixes tag order

        # Row encryption + per-cell chain folds (Lines 8–11, 16–21).
        effective = min(workers, max(1, len(records) // self.min_rows_per_worker))
        if effective > 1:
            real_rows, digests = self._encrypt_rows_parallel(records, cids, epoch_key, effective)
        else:
            real_rows, digests = _encrypt_partition((epoch_key, self.schema, records, cids))
        if records:
            # Worker-side encryptions are counted here, in the parent,
            # so the public kernel-op count is identical for every
            # ``workers`` setting (and for the pool-failure fallback).
            record_kernel_ops("det_encrypt", (column_count + 1) * len(records))

        fake_rows, fake_digests = self._make_fake_rows(
            epoch_key, nd, c_tuple, column_count
        )

        # Tag sealing consumes one nonce per (label, column), in cell
        # first-appearance order with the fake chain last — a fixed,
        # single-threaded sequence regardless of the row-encryption path.
        tags = {
            label: tuple(nd.encrypt(digest) for digest in digests[label])
            for label in cid_order
        }
        if fake_digests is not None:
            tags[FAKE_CHAIN_LABEL] = tuple(
                nd.encrypt(digest) for digest in fake_digests
            )

        all_rows = real_rows + fake_rows
        self._rng.shuffle(all_rows)  # Line 24: mix real and fake tuples

        packed_bins = self._build_packed_bins(
            all_rows, real_rows, fake_rows, cids, counters, c_tuple
        )

        # The aggregate-tree sidecar.  Built in the serial parent with a
        # fixed nd-nonce order (directory, root tag) *before* the
        # package's metadata-vector encryptions, so packages stay
        # bit-identical for every ``workers`` setting.
        agg_tree = None
        if self.agg_tree and records:
            agg_tree = build_agg_tree(
                records,
                placement.buckets,
                self.schema,
                grid.spec.time_buckets,
                epoch_key,
                nd,
                fanout=self.agg_tree_fanout,
                entity_count=self.agg_tree_entities
                or default_entity_count(
                    self.grid_spec.total_cells, self.grid_spec.time_buckets
                ),
                time_granularity=self.time_granularity,
            )
            if agg_tree is not None:
                record_kernel_ops("det_encrypt", agg_tree.node_count)

        package = EpochPackage(
            schema_name=self.schema.name,
            epoch_id=epoch_id,
            grid_spec=self.grid_spec,
            time_granularity=self.time_granularity,
            rows=all_rows,
            enc_cell_id_vector=nd.encrypt(encode_int_vector(grid.cell_id_vector())),
            enc_c_tuple_vector=nd.encrypt(encode_int_vector(c_tuple)),
            enc_cell_counts=nd.encrypt(encode_int_vector(cell_counts)),
            enc_tags=tags,
            real_count=len(real_rows),
            fake_count=len(fake_rows),
            bin_size=self.bin_size,
            max_cells_per_bin=self.max_cells_per_bin,
            enc_grid_key=nd.encrypt(derive_grid_key(self.master_key, epoch_id)),
            packed_bins=packed_bins,
            agg_tree=agg_tree,
        )
        layout_size = self.bin_size or max(max(c_tuple), 1)
        self.last_report = EncryptionReport(
            epoch_id=epoch_id,
            real_rows=len(real_rows),
            fake_rows=len(fake_rows),
            bin_size=layout_size,
            bin_count=-(-sum(c_tuple) // layout_size) if sum(c_tuple) else 0,
            metadata_bytes=package.metadata_bytes(),
            workers=effective,
        )
        return package

    # --------------------------------------------------------- columnar bins

    def _build_packed_bins(
        self, all_rows, real_rows, fake_rows, cids, counters, c_tuple
    ):
        """Columnar form of the shuffled rows, one PackedBin per bin.

        Runs the same deterministic :func:`pack_bins` the enclave runs
        and lays each bin's member rows out in canonical slot order
        (per cell-id counters ``1..c_tuple[cid]``, then the bin's fake
        ids ascending).  Row ids are the rows' positions in the shuffled
        package — exactly the physical ids sequential ingest assigns —
        so the packed bins hold byte-for-byte what a trapdoor fetch of
        the bin would return.  Returns ``None`` whenever packing is
        impossible (no real rows, or an explicit epoch-pad override
        shipped fewer fakes than the layout needs): the epoch is then
        read by trapdoor.
        """
        from repro.core.packed import PackedBin
        from repro.storage.table import Row

        if not real_rows:
            return None
        layout = pack_bins(
            c_tuple,
            bin_size=self.bin_size,
            max_cells_per_bin=self.max_cells_per_bin,
        )
        if layout.total_fakes > len(fake_rows):
            return None
        position = {id(row): index for index, row in enumerate(all_rows)}
        slot_rows = dict(zip(zip(cids, counters), real_rows))
        packed = []
        for chosen in layout.bins:
            members = []
            for cid in chosen.cell_ids:
                members.extend(
                    slot_rows[(cid, counter)]
                    for counter in range(1, c_tuple[cid] + 1)
                )
            members.extend(fake_rows[fid - 1] for fid in chosen.fake_ids())
            try:
                packed.append(
                    PackedBin.pack(
                        chosen.index,
                        [
                            Row(position[id(row)], tuple(row.as_columns()))
                            for row in members
                        ],
                    )
                )
            except ValueError:
                return None
        return packed

    # ------------------------------------------------------------- row paths

    def _encrypt_rows_parallel(
        self, records, cids, epoch_key: bytes, workers: int
    ) -> tuple[list[EncryptedRow], dict[int, list[bytes]]]:
        """Fan Lines 4–21 out over a bounded process pool, by cell-id.

        Partitioning by cell-id keeps each per-cell chain entirely
        inside one worker; the merge is order-free for chains and
        slot-indexed for rows, so the result is byte-identical to the
        serial path.  Any pool failure falls back to the serial path.
        """
        by_cid: dict[int, list[int]] = {}
        for slot, cid in enumerate(cids):
            by_cid.setdefault(cid, []).append(slot)
        # Greedy balance: biggest cells first onto the lightest worker.
        buckets: list[list[int]] = [[] for _ in range(workers)]
        loads = [0] * workers
        for cid in sorted(by_cid, key=lambda c: -len(by_cid[c])):
            lightest = loads.index(min(loads))
            buckets[lightest].extend(by_cid[cid])
            loads[lightest] += len(by_cid[cid])
        slot_lists = [slots for slots in buckets if slots]
        tasks = [
            (
                epoch_key,
                self.schema,
                [records[slot] for slot in slots],
                [cids[slot] for slot in slots],
            )
            for slots in slot_lists
        ]
        try:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(tasks)
            ) as pool:
                partitions = list(pool.map(_encrypt_partition, tasks))
        except Exception:
            # No fork support / pickling trouble: correctness first.
            return _encrypt_partition((epoch_key, self.schema, records, cids))
        rows: list[EncryptedRow | None] = [None] * len(records)
        digests: dict[int, list[bytes]] = {}
        for slots, (part_rows, part_digests) in zip(slot_lists, partitions):
            for slot, row in zip(slots, part_rows):
                rows[slot] = row
            digests.update(part_digests)
        return rows, digests

    # ------------------------------------------------------------------ fakes

    def _make_fake_rows(
        self,
        epoch_key: bytes,
        nd,
        c_tuple: list[int],
        column_count: int,
    ) -> tuple[list[EncryptedRow], list[bytes] | None]:
        """Lines 12–15: manufacture ciphertext-secure fake tuples.

        Fake filter/payload columns are randomized garbage (``E_nd``),
        indistinguishable from real DET ciphertexts to anyone without
        the key; index keys are ``E_k(f ‖ j)`` so the enclave can
        formulate fake trapdoors.  Fakes get their own hash chain so
        integrity covers them too (a reproduction extension).

        Returns ``(rows, chain_digests)``; digests are ``None`` when no
        fakes ship.  ``nd`` draws one nonce per encrypted column in row
        order.
        """
        total_real = sum(c_tuple)
        if self.fake_strategy is FakeStrategy.EQUAL:
            fake_total = total_real
        else:
            if total_real == 0:
                fake_total = 0
            else:
                layout = pack_bins(
                    c_tuple,
                    bin_size=self.bin_size,
                    max_cells_per_bin=self.max_cells_per_bin,
                )
                fake_total = layout.total_fakes
        if self.pad_epoch_rows_to is not None:
            if total_real + fake_total > self.pad_epoch_rows_to:
                raise EpochError(
                    f"epoch holds {total_real + fake_total} rows, above the "
                    f"fixed epoch size {self.pad_epoch_rows_to}"
                )
            fake_total = self.pad_epoch_rows_to - total_real

        if not fake_total:
            return [], None

        # Fake filter/payload ciphertexts must be byte-for-byte the same
        # LENGTH as real ones, or length alone would out them at rest.
        # E_nd carries 32 bytes of overhead vs DET's 16, hence the -16.
        fake_filter_body = b"\x00" * (self.schema.filter_pad_width - 16)
        fake_payload_body = b"\x00" * (self.schema.payload_pad_width - 16)

        # One E_nd per column per fake, nonces drawn in row order.
        bodies = ([fake_filter_body] * (column_count - 1) + [fake_payload_body]) * (
            fake_total
        )
        encrypted = nd.encrypt_many(bodies)
        index_keys = DeterministicCipher(epoch_key).encrypt_many(
            [fake_index_plaintext(fid) for fid in range(1, fake_total + 1)]
        )

        sha = hashlib.sha256
        fake_digests = [CHAIN_INIT] * column_count
        fake_rows: list[EncryptedRow] = []
        for fake_index in range(fake_total):
            columns = encrypted[
                fake_index * column_count : (fake_index + 1) * column_count
            ]
            fake_rows.append(
                EncryptedRow(
                    filters=tuple(columns[:-1]),
                    payload=columns[-1],
                    index_key=index_keys[fake_index],
                )
            )
            for position, ciphertext in enumerate(columns):
                fake_digests[position] = sha(
                    ciphertext + fake_digests[position]
                ).digest()
        return fake_rows, fake_digests

    # ------------------------------------------------------------------ misc

    def _check_record(self, record: tuple, epoch_id: int) -> None:
        if len(record) != len(self.schema.attributes):
            raise EpochError(
                f"record arity {len(record)} != schema arity "
                f"{len(self.schema.attributes)}"
            )
        timestamp = self.schema.time_of(record)
        if not (
            epoch_id <= timestamp < epoch_id + self.grid_spec.epoch_duration
        ):
            raise EpochError(
                f"record time {timestamp} outside epoch "
                f"[{epoch_id}, {epoch_id + self.grid_spec.epoch_duration})"
            )
