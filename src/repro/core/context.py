"""Enclave-resident per-epoch state and shared query machinery.

When the first query touches an epoch, the enclave decrypts that
epoch's metadata vectors (``cell_id[]``, ``c_tuple[]``, per-cell
counts), rebuilds the grid from the sealed master key, and runs the
deterministic bin packing (STEP 0 of Algorithm 2).  All of that is
cached here as an :class:`EpochContext`, charged against the simulated
EPC budget.

The context also provides the building blocks every executor shares:

- trapdoor generation for a set of cell-ids + fake ids (STEP 3),
- the two fetch kinds — slot runs of the sealed bins, or rows pulled by
  trapdoor and packed at this boundary — both handing back a
  :class:`~repro.core.packed.PackedBin` (DESIGN.md §16),
- DET filter generation for predicates over timestamp sets,
- hash-chain verification of a fetched batch against the verifiable tags,
- columnar and (§4.3) oblivious filtering, and payload decryption.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import replace
from typing import NamedTuple

from repro import telemetry
from repro.core.binning import Bin, BinLayout, pack_bins
from repro.core.epoch import (
    FAKE_CHAIN_LABEL,
    INDEX_PAD_WIDTH,
    EpochPackage,
    fake_index_plaintext,
    index_plaintext,
)
from repro.core.grid import Grid
from repro.core.packed import PackedBin
from repro.core.queries import Predicate, QueryStats
from repro.core.schema import DatasetSchema
from repro.crypto.kernels import (
    CHAIN_INIT,
    DET_TAG_BYTES,
    DeterministicCipher,
    RandomizedCipher,
    extend_chain_slices,
)
from repro.crypto.keys import derive_epoch_key
from repro.enclave.enclave import Enclave
from repro.enclave.sort import bitonic_sort, column_sort
from repro.exceptions import (
    DecryptionError,
    EpochError,
    IntegrityViolation,
    QueryError,
)
from repro.storage.engine import StorageEngine
from repro.storage.table import Row


# Rough per-item resident estimate for the footnote-5 sorter choice
# (a (flag, ciphertext/row) pair with framing).
_ROW_ESTIMATE_BYTES = 512

# Batches at least this large route through the vectorised bitonic
# network; below it the pure-Python reference is faster than the numpy
# setup cost.
_VECTOR_SORT_THRESHOLD = 512


def _count_tuples(real: int, fake: int) -> None:
    """Record the real/fake split of a trapdoor batch.

    The *total* is public-size (it is the bin size), but the split is
    the very thing volume hiding conceals from the host — only the
    enclave, which generated the trapdoors, can account for it, and the
    family is tagged data-dependent so the leakage auditor never
    requires it to match across datasets.
    """
    tuples = telemetry.counter(
        "concealer_tuples_fetched_total",
        "tuples requested via trapdoors, split real vs. fake (enclave-"
        "private knowledge; the host sees only the public total)",
        labels=("kind",),
    )
    tuples.labels(kind="real").inc(real)
    tuples.labels(kind="fake").inc(fake)


class SlotRequest(NamedTuple):
    """A trapdoor fetch as the enclave made it: ``cell_ids``' slots in
    order, then its fakes', and the ``trapdoors`` it sent for them —
    the index keys an honest host returns, in that order."""

    cell_ids: Sequence[int]
    trapdoors: Sequence[bytes]

    @property
    def total_tuples(self) -> int:
        return len(self.trapdoors)


class RunRequest(NamedTuple):
    """A read of ``cell_ids``' slots (``real_tuples``), then ``fake_ids``',
    as maximal ``runs`` ``(bin, start, stop)`` of the sealed bins."""

    cell_ids: Sequence[int]
    fake_ids: Sequence[int]
    runs: Sequence[tuple[int, int, int]]
    real_tuples: int

    @property
    def total_tuples(self) -> int:
        return self.real_tuples + len(self.fake_ids)


class _Verification:
    """What :meth:`EpochContext._verification` returns: the span, then
    the outcome counters on exit.  A plain class: it wraps every
    verified fetch."""

    __slots__ = ("_span", "_outcomes")

    def __init__(self, span):
        self._span = span

    def __enter__(self) -> None:
        self._outcomes = telemetry.counter(
            "concealer_hashchain_verifications_total",
            "hash-chain verifications of fetched row batches, by outcome",
            labels=("result",),
        )
        self._span.__enter__()

    def __exit__(self, kind, error, traceback) -> None:
        if kind is None:
            self._outcomes.labels(result="ok").inc()
        elif issubclass(kind, IntegrityViolation):
            self._outcomes.labels(result="violation").inc()
            telemetry.counter(
                "concealer_integrity_violations_total",
                "structured integrity-verification failures, by kind",
                labels=("kind",),
            ).labels(kind=error.kind).inc()
        self._span.__exit__(kind, error, traceback)


class EpochContext:
    """Decrypted, enclave-private view of one outsourced epoch."""

    def __init__(
        self,
        enclave: Enclave,
        package: EpochPackage,
        schema: DatasetSchema,
        table_name: str | None = None,
        verifies: bool = True,
        oblivious: bool = False,
    ):
        enclave.require_provisioned()
        self.enclave = enclave
        self.schema = schema
        self.package = package
        self.epoch_id = package.epoch_id
        self.table_name = table_name or f"epoch_{package.epoch_id}"

        epoch_key = derive_epoch_key(enclave.master_key, package.epoch_id)
        # Kept for lazily-derived subkeys (the aggregate-tree keys);
        # enclave-private like every other derived key here.
        self._epoch_key = epoch_key
        self.det = DeterministicCipher(epoch_key)
        self.nd = RandomizedCipher(epoch_key)
        grid_key = (
            self.nd.decrypt(package.enc_grid_key)
            if package.enc_grid_key
            else None
        )

        with enclave.trace.disabled():
            self.cell_id_vector = package.decrypt_cell_id_vector(self.nd)
            self.c_tuple = package.decrypt_c_tuple_vector(self.nd)
            self.cell_counts = package.decrypt_cell_counts(self.nd)
        # The vector is the grid's allocation (Algorithm 1 ships it), so
        # a query's cell-ids are list lookups, never PRF calls.
        self.grid = Grid(
            package.grid_spec, schema, enclave.master_key, package.epoch_id,
            grid_key=grid_key, allocation=self.cell_id_vector,
        )
        # The stored table's shape, a function of the schema alone: what
        # an answer entering the enclave is held to (:meth:`_admit`).
        self.column_widths = (DET_TAG_BYTES + schema.filter_pad_width,) * len(
            schema.filter_groups
        ) + (DET_TAG_BYTES + schema.payload_pad_width, DET_TAG_BYTES + INDEX_PAD_WIDTH)
        # Opened verifiable tags, by cell-id (:meth:`_tag_digests`): they
        # live and die with this context, like ``c_tuple``.
        self._tag_memo: dict[int, tuple[bytes, ...]] = {}
        # What the memo holds when full — one digest per chained column
        # and real cell-id tag shipped, a function of the package's
        # public sizes; nothing for a service that never verifies.
        tagged = len(package.enc_tags) - (FAKE_CHAIN_LABEL in package.enc_tags)
        self.tag_memo_bytes = verifies * len(CHAIN_INIT) * (len(self.column_widths) - 1) * tagged
        self.layout: BinLayout = pack_bins(
            self.c_tuple,
            bin_size=package.bin_size,
            max_cells_per_bin=package.max_cells_per_bin,
        )
        # SHA-256 of index keys (:meth:`_index_digest`): of each sealed
        # bin's column and of its fakes' keys, by bin index, and of each
        # cell-id's keys, by cell-id — a digest per public bin, padded bin
        # and tagged cell-id when full, never per row, and nothing for a
        # service that never verifies by position (one that does not
        # verify, or an oblivious one).
        self._index_memo: dict[tuple[str, int], bytes] = {}
        padded = sum(chosen.fake_count > 0 for chosen in self.layout.bins)
        self.index_memo_bytes = (verifies and not oblivious) * len(CHAIN_INIT) * (
            len(self.layout.bins) + padded + tagged
        )
        # Where each cell-id's slots and each bin's fakes start in the
        # sealed bins, once a run read needs them (:meth:`slot_runs`).
        self._slot_starts = None
        # The §9.1 observation that the vectors are small enough for the
        # enclave: charge them against the EPC budget (8 bytes/int), with
        # the slot starts, and reserve both memos in the same single
        # charge, so that when they fill says nothing and moves no fault
        # site.
        self._metadata_charge = self.tag_memo_bytes + self.index_memo_bytes + 8 * (
            len(self.cell_id_vector) + 2 * len(self.c_tuple) + len(self.cell_counts) + 2 * padded
        )
        enclave.charge_memory(self._metadata_charge)
        self.fake_pool_size = package.fake_count
        self._super_layouts: dict[int, object] = {}
        # What the range executor sizes its fetches by (the eBPB budget
        # state, the winSecRange window budget per λ): derived from this
        # epoch's metadata, so it is kept here and nowhere else — a
        # table on the side, keyed by anything that outlives the
        # context, hands one epoch's budget to another.
        self.range_sizing: dict = {}
        # Aggregate-tree state, decrypted lazily on first tree-path
        # query: (engine generation, (meta, directory) | None).
        self._tree_state: tuple[int, object] | None = None
        self._tree_key_pair: tuple[bytes, bytes] | None = None
        self._tree_det: DeterministicCipher | None = None

    def super_layout(self, super_bin_count: int):
        """The §8 super-bin grouping of this epoch's bins, cached per f.

        ``super_bin_count`` is the requested number of super-bins; the
        largest divisor of the bin count not exceeding it is used (§8
        requires f to divide the bin count evenly).  Bin "uniqueness" is
        proxied by its number of cell-ids — the quantity that drives
        retrieval frequency under a uniform per-cell-id workload.
        """
        from repro.core.superbin import build_super_bins

        if super_bin_count not in self._super_layouts:
            bin_count = len(self.layout.bins)
            f = max(
                d for d in range(1, min(super_bin_count, bin_count) + 1)
                if bin_count % d == 0
            )
            uniques = [len(b.cell_ids) for b in self.layout.bins]
            self._super_layouts[super_bin_count] = build_super_bins(uniques, f)
        return self._super_layouts[super_bin_count]

    def release(self) -> None:
        """Return this context's EPC charge (the cached metadata and the
        two memos) to the enclave it was charged on; once."""
        charge, self._metadata_charge = self._metadata_charge, 0
        if charge:
            self.enclave.release_memory(charge)

    # --------------------------------------------------------------- filters

    def filter_group_position(self, group: tuple[str, ...]) -> int:
        """Which stored filter column corresponds to a predicate group."""
        try:
            return self.schema.filter_groups.index(group)
        except ValueError:
            raise QueryError(
                f"schema {self.schema.name!r} has no filter group {group}"
            ) from None

    def filters_for(
        self, predicate: Predicate, timestamps: Iterable[int]
    ) -> list[bytes]:
        """DET filter ciphertexts for (predicate values × timestamps).

        Table 4's "SM using the filters E_k(l|t_1) ... E_k(l|t_x)",
        for every value combination a wildcard predicate names.
        """
        timestamps = list(timestamps)
        return self.det.encrypt_many(
            [
                self.schema.filter_plaintext_for_values(predicate.group, values, t)
                for values in predicate.combinations()
                for t in timestamps
            ]
        )

    def query_timestamps(self, start: int, end: int) -> list[int]:
        """Enumerate the discrete reading timestamps in ``[start, end]``."""
        step = self.package.time_granularity
        first = start + (-start) % step if start % step else start
        return list(range(first, end + 1, step))

    # ------------------------------------------------------------- trapdoors

    def trapdoors_for_cell_ids(
        self, cell_ids: Sequence[int], fake_ids: Sequence[int] = ()
    ) -> list[bytes]:
        """STEP 3: index-key ciphertexts for whole cell-ids plus fakes.

        Slots are deduplicated within the request (fake ids cycle when
        a range query needs more fakes than the pool holds, so one
        query can name the same fake many times) and the distinct ones
        derived under the live epoch key in one DET batch.  The list is
        in slot order: each cell-id's counters, then the fakes.
        """
        prefix = (self.epoch_id, self.table_name)
        c_tuple = self.c_tuple
        slots = [
            (*prefix, "real", cid, j)
            for cid in cell_ids
            for j in range(1, c_tuple[cid] + 1)
        ]
        real = len(slots)
        slots += [(*prefix, "fake", fid, 0) for fid in fake_ids]
        _count_tuples(real, len(slots) - real)

        distinct = list(dict.fromkeys(slots))
        if not distinct:  # no kernel call, so no zero-count metric sample
            return []
        derived = self.det.encrypt_many([
            index_plaintext(cid, j) if kind == "real" else fake_index_plaintext(cid)
            for _, _, kind, cid, j in distinct
        ])
        resolved = dict(zip(distinct, derived))
        return [resolved[slot] for slot in slots]

    def trapdoors_for_bin(self, chosen: Bin) -> list[bytes]:
        """All trapdoors retrieving one point-query bin (|b| rows)."""
        return self.trapdoors_for_cell_ids(chosen.cell_ids, chosen.fake_ids())

    def oblivious_trapdoors_for_bin(self, chosen: Bin) -> list[bytes]:
        """§4.3 STEP 3: same trapdoors, via a data-independent schedule.

        Generates ``#Cmax × #max`` candidate slots plus ``#fmax`` fake
        slots for *every* bin, flags each with v ∈ {0,1} using oblivious
        comparisons, bitonic-sorts by v, and returns the v=1 prefix —
        exactly ``bin_size`` trapdoors for any bin, with an identical
        in-enclave event trace for all bins.
        """
        trace = self.enclave.trace
        cells_max = max(len(b.cell_ids) for b in self.layout.bins)
        tuples_max = max(self.c_tuple) if self.c_tuple else 0
        fakes_max = max(b.fake_count for b in self.layout.bins)
        # One event summarises the whole schedule: the slot iteration
        # order below is a fixed function of these three public maxima,
        # and each slot's flag is computed branch-free.
        trace.emit(
            "oblivious_trapdoor_schedule", cells_max, tuples_max, fakes_max
        )

        # Every candidate slot is derived unconditionally, so the
        # schedule's memory-touch sequence stays bin-independent.
        slots: list[tuple[int, bytes]] = []
        cell_list = list(chosen.cell_ids) + [0] * (cells_max - len(chosen.cell_ids))
        in_bin_count = len(chosen.cell_ids)
        encrypt = self.det.encrypt
        for position in range(cells_max):
            cid = cell_list[position]
            in_bin = ((position - in_bin_count) >> 63) & 1  # 1 iff slot is used
            population = self.c_tuple[cid]
            for j in range(1, tuples_max + 1):
                within = ((population - j) >> 63) & 1 ^ 1  # 1 iff j <= population
                slots.append((in_bin & within, encrypt(index_plaintext(cid, j))))
        fake_ids = chosen.fake_ids()
        fake_count = len(fake_ids)
        for j in range(1, fakes_max + 1):
            v = ((fake_count - j) >> 63) & 1 ^ 1  # 1 iff j <= fake_count
            fid = fake_ids[j - 1] if j <= fake_count else 0
            slots.append((v, encrypt(fake_index_plaintext(fid))))

        real = sum(v for v, _ in slots[: cells_max * tuples_max])
        fake = sum(v for v, _ in slots[cells_max * tuples_max:])
        _count_tuples(real, fake)
        ordered = self._oblivious_sort(slots, key=lambda s: -s[0])
        return [ct for v, ct in ordered[: self.layout.bin_size]]

    def _oblivious_sort(self, items, key):
        """Footnote 5 of §4.3: bitonic in-EPC, column sort beyond it.

        The batch's resident footprint is estimated against the free
        EPC budget; batches that would not fit are sorted with
        Leighton's column sort, which only ever holds one column of
        the matrix resident.  In-EPC batches above a small threshold
        use the vectorised bitonic network (same compare-exchange
        sequence, numpy-applied).
        """
        estimated_bytes = _ROW_ESTIMATE_BYTES * len(items)
        available = self.enclave.config.epc_bytes - self.enclave.epc_used
        if estimated_bytes > available and len(items) > 1:
            return column_sort(items, key=key, recorder=self.enclave.trace)
        if len(items) >= _VECTOR_SORT_THRESHOLD:
            from repro.enclave.sort_np import bitonic_sort_np

            return bitonic_sort_np(items, key=key, recorder=self.enclave.trace)
        return bitonic_sort(items, key=key, recorder=self.enclave.trace)

    # ------------------------------------------------------------------ fetch

    def _fetch(
        self,
        engine,
        method: str,
        args: tuple,
        stats: QueryStats,
        deadline,
        verifier,
        cells: Sequence[int] | None,
        epc_bytes: int,
        stage: str,
        **span_attrs,
    ) -> tuple[object, bool]:
        """STEP 3, once, for every blob kind: ``(answer, verified)``.

        Kill point, deadline gate and the EPC reservation for the blob
        in transit (so oversized reads feel the budget here rather than
        succeeding silently) are the same whatever is read;
        ``engine.<method>(table, *args)`` is the read.

        This is the one place on the read path that asks whether the
        engine is a replica group.  Callers always hand down their
        ``verifier(answer, cells)``.  A replica group takes it — bound
        to the requested ``cells``, so a replica substituting a
        different (valid) batch fails verification, not just a
        different chain — and runs it on every replica attempt before
        acceptance; a plain engine cannot, so the answer comes back
        ``verified=False`` and the caller's own verification (end of
        query, or before the bin becomes reusable) still runs.

        ``None`` means the engine holds no such sidecar and the caller
        falls back; failovers and the degraded flag a replica group
        absorbed on the way to that ``None`` are folded into ``stats``
        all the same.
        """
        with telemetry.span(
            "enclave.fetch", stage=stage, epoch=self.epoch_id, **span_attrs
        ):
            self.enclave.kill_point("enclave.kill.query")
            if deadline is not None:
                deadline.check("enclave.fetch")
            read = getattr(engine, method)
            with self.enclave.memory(epc_bytes):
                if not getattr(engine, "supports_replicated_reads", False):
                    return read(self.table_name, *args), False
                check = None
                if verifier is not None:
                    expected = list(cells) if cells is not None else None
                    check = lambda answer: verifier(answer, expected)
                answer = read(
                    self.table_name, *args,
                    verifier=check, deadline=deadline, cells=cells,
                )
                stats.failovers += engine.last_read_failovers
                stats.degraded = stats.degraded or engine.degraded
                verified = answer is not None and verifier is not None
                if verified:
                    stats.verified = True
                return answer, verified

    def _malformed(self, detail) -> IntegrityViolation:
        return IntegrityViolation(
            f"fetched batch is not a well-formed bin: {detail}",
            epoch_id=self.epoch_id,
            table=self.table_name,
            kind="malformed-batch",
        )

    def _admit(self, packed: PackedBin) -> PackedBin:
        """The boundary every fetched batch crosses once: a bin without
        the stored table's columns at the schema's widths is a typed
        violation here, never an ``IndexError`` or zero-width slice.  A
        real-row mask is the enclave's to set, so one arriving is dropped."""
        if packed.column_widths != self.column_widths:
            widths = f"{packed.column_widths}, the table's are {self.column_widths}"
            raise self._malformed(f"column widths {widths}")
        return packed if packed.real_rows is None else replace(packed, real_rows=None)

    def pack_rows(self, rows: Sequence[Row], bin_index: int = 0) -> PackedBin:
        """The pack boundary: fetched rows → the one in-enclave form.

        Rows come from the untrusted host, so a batch that is not a
        table of fixed-width byte cells is a typed integrity violation
        here, never a crash further in.  No rows at all pack to a
        zero-row bin of the table's shape — a fetch may ask for nothing,
        and whether an empty answer is a violation is the cell
        binding's call (:meth:`_require_cells`).
        """
        if not rows:
            empty = (b"",) * len(self.column_widths)
            return PackedBin(bin_index, 0, self.column_widths, empty, ())
        try:
            return self._admit(PackedBin.pack(bin_index, rows))
        except ValueError as error:
            raise self._malformed(error) from error

    def fetch(
        self,
        engine: StorageEngine,
        trapdoors: Sequence[bytes],
        stats: QueryStats,
        deadline=None,
        verify: bool = False,
        cells: Sequence[int] | None = None,
        bin_index: int = 0,
        request: Bin | SlotRequest | None = None,
    ) -> tuple[PackedBin, bool]:
        """The trapdoor fetch kind: submit trapdoors to the DBMS, pull
        the rows (one per trapdoor, ~256 B of ciphertext each) and pack
        them here, once; ``(packed, verified)``.

        With ``verify`` a replica group packs and verifies each
        replica's answer before accepting it, so a malformed or
        tampered batch costs a failover there and not the query.  A
        fetch retrieves complete cell-id populations, so checking it
        alone is sound even before a range method de-duplicates across
        its fetches.  ``request``: the slot request the trapdoors make
        (never the oblivious schedule's, which is in sorted order).
        """
        packed = None

        def verifier(rows, expected):
            nonlocal packed  # the last answer verified is the one accepted
            packed = self.verified_bin(self.pack_rows(rows, bin_index), expected, request)

        stats.trapdoors_generated += len(trapdoors)
        rows, verified = self._fetch(
            engine, "lookup_many", ("index_key", list(trapdoors)),
            stats, deadline, verifier if verify else None, cells,
            256 * len(trapdoors), stage="fetch", trapdoors=len(trapdoors),
        )
        stats.rows_fetched += len(rows)
        if not rows and not verify:
            # Verification reports an empty answer to a populated
            # request (and counts it); without it the answer is still
            # plainly wrong, no key needed to tell.
            self._require_cells((), cells)
        return (packed if verified else self.pack_rows(rows, bin_index)), verified

    def slot_runs(self, cell_ids: Sequence[int], fake_ids: Sequence[int]) -> RunRequest | None:
        """The slots a trapdoor fetch of ``cell_ids`` and ``fake_ids``
        reads, in its order, as a :class:`RunRequest`; ``None`` when some
        pool fake has no bin slot (an EQUAL or epoch-padded pool)."""
        # Both are public: the runs are the row ids that fetch would show
        # the host, cut where the sidecar it stores has them adjacent
        # (SECURITY.md item 8).
        import numpy as np

        layout = self.layout
        if self.fake_pool_size != layout.total_fakes:
            return None
        size, c_tuple = layout.bin_size, self.c_tuple
        if self._slot_starts is None:
            # Flat slot positions (bin × |b| + slot): where each cell-id's
            # slots start, and each padded bin's first fake id and slot.
            cells, fake_lo, fake_at = [0] * len(c_tuple), [], []
            for chosen in layout.bins:
                at = chosen.index * size
                for cid in chosen.cell_ids:
                    cells[cid], at = at, at + c_tuple[cid]
                if chosen.fake_id_range is not None:
                    fake_lo.append(chosen.fake_id_range[0])
                    fake_at.append(at)
            self._slot_starts = cells, np.array(fake_lo, dtype=int), np.array(fake_at, dtype=int)
        cells, fake_lo, fake_at = self._slot_starts
        fakes = np.asarray(fake_ids, dtype=np.int64)
        owner = np.searchsorted(fake_lo, fakes, side="right") - 1  # fake ids ascend by bin
        slots = np.concatenate([
            *(np.arange(cells[cid], cells[cid] + c_tuple[cid]) for cid in cell_ids),
            fake_at[owner] + fakes - fake_lo[owner],
        ])
        # A run ends where the next slot is not the adjacent one, or
        # opens the next bin.
        cuts = np.flatnonzero((np.diff(slots) != 1) | (slots[1:] % size == 0)) + 1
        bounds = [0, *cuts.tolist(), len(slots)] if len(slots) else [0]
        return RunRequest(cell_ids, fake_ids, [
            (first // size, first % size, first % size + stop - start)
            for first, start, stop in zip(slots[bounds[:-1]].tolist(), bounds, bounds[1:])
        ], sum(c_tuple[cid] for cid in cell_ids))

    def fetch_packed(
        self,
        engine,
        chosen: Bin | RunRequest,
        stats: QueryStats,
        deadline=None,
        verify: bool = False,
    ) -> tuple[PackedBin | None, bool]:
        """The sidecar fetch kind: a bin whole, or a :class:`RunRequest`.

        Returns ``(packed, verified)``; ``packed`` is ``None`` when the
        engine holds no sidecar for this table (after a dynamic insert,
        a repair or a rotation) — the caller then makes the trapdoor
        fetch, which is authoritative for errors.  The rows transit the
        enclave either way, so the EPC charge is the same.  The batch is
        checked as ``chosen``, whatever ``bin_index`` it claims.
        """
        accepted = verifier = None
        if verify:
            def verifier(packed, cells):
                nonlocal accepted  # the last answer verified is the one accepted
                accepted = self.verified_bin(self._admit(packed), cells, chosen)

        total = chosen.total_tuples
        packed, verified = self._fetch(
            engine, "fetch_packed_bin", (chosen.runs,), stats, deadline, verifier,
            chosen.cell_ids, 256 * total, stage="fetch", trapdoors=total,
        )
        if packed is not None:
            packed = accepted if verified else self._admit(packed)
            if not verify and not packed.row_count:
                self._require_cells((), chosen.cell_ids)  # as in fetch()
            # Volume counters move only once the fetch is known to have
            # gone the sidecar way — a None fallback leaves them for
            # the trapdoor fetch to account.
            stats.trapdoors_generated += total
            _count_tuples(chosen.real_tuples, total - chosen.real_tuples)
            stats.rows_fetched += packed.row_count
        return packed, verified

    # -------------------------------------------------------- aggregate tree

    def _tree_keys(self) -> tuple[bytes, bytes]:
        """(encryption key, MAC key) of this epoch's tree, derived once."""
        if self._tree_key_pair is None:
            from repro.core.aggtree import derive_tree_keys

            self._tree_key_pair = derive_tree_keys(self._epoch_key)
        return self._tree_key_pair

    def tree_state(self, engine):
        """``(meta, directory)`` of the engine's tree sidecar, or ``None``.

        The sealed directory is decrypted inside the enclave on first
        use and fenced on the engine's ``rewrite_generation``: a
        rewrite (key rotation, §6 bin rewrite) drops the decrypted
        state so a stale tree can never answer post-rewrite queries.
        ``None`` means no sidecar is available
        (un-sealed epoch, post-mutation) — callers fall back to the bin
        path.
        """
        if getattr(engine, "rewrite_in_progress", False):
            return None
        generation = getattr(engine, "rewrite_generation", 0)
        if self._tree_state is not None and self._tree_state[0] == generation:
            return self._tree_state[1]
        meta = engine.fetch_agg_tree_meta(self.table_name)
        if meta is None:
            self._tree_state = (generation, None)
            return None
        from repro.core.aggtree import decode_directory

        try:
            directory = decode_directory(
                self.nd.decrypt(meta.enc_directory), meta.entity_count
            )
        except (DecryptionError, EpochError) as error:
            raise IntegrityViolation(
                f"tree directory fails authenticated decryption: {error}",
                epoch_id=self.epoch_id,
                table=self.table_name,
                kind="undecryptable",
            ) from error
        state = (meta, directory)
        self._tree_state = (generation, state)
        return state

    def tree_entity_for(self, meta, directory, index_values) -> tuple[int, bool]:
        """``(entity, present)`` for one index-value combination.

        An absent combination resolves — inside the enclave — to a
        decoy entity whose nodes are fetched exactly like a real
        entity's (the host-visible access is a uniform entity index
        either way); ``present=False`` tells the executor to discard
        the decoy's decoded values and answer "no matching records".
        """
        from repro.core.aggtree import combo_digest, decoy_entity

        _, mac_key = self._tree_keys()
        digest = combo_digest(mac_key, tuple(index_values))
        entity = directory.get(digest[:16])
        if entity is not None:
            return entity, True
        return decoy_entity(digest, meta.entity_count), False

    def fetch_tree_nodes(
        self, engine, meta, coords, stats: QueryStats, deadline=None,
        verify: bool = False,
    ):
        """Pull encrypted tree nodes by coordinate; ``None`` = fall back.

        With ``verify`` the node verifier is the authenticated decode
        bound to the requested coordinates, so against a replica group
        a tampered replica costs a failover, not the query.  Node count
        rides on the span and the stats — it is a pure function of the
        public range decomposition.
        """
        verifier = None
        if verify:
            verifier = lambda nodes, _cells: self.decode_tree_nodes(
                meta, coords, nodes
            )
        nodes, _ = self._fetch(
            engine, "fetch_tree_nodes", (coords,),
            stats, deadline, verifier, None, meta.node_width * len(coords),
            stage="tree_fetch", nodes=len(coords),
        )
        if nodes is not None:
            stats.rows_fetched += len(coords)
        return nodes

    def decode_tree_nodes(self, meta, coords, nodes):
        """Authenticate and decode fetched tree nodes.

        Returns ``[(count, [(sum, min, max), ...]), ...]`` aligned with
        ``coords``.  Every failure mode — flipped ciphertext byte (SIV
        authentication), substituted node (position header), dropped or
        duplicated node (batch length), cross-epoch replay (fresh tree
        key) — raises a structured :class:`IntegrityViolation`; the
        tree path never returns silently wrong aggregates.
        """
        with self._verification("tree_verify", nodes=len(coords)):
            return self._decode_tree_nodes(meta, coords, nodes)

    def _decode_tree_nodes(self, meta, coords, nodes):
        from repro.core.aggtree import decode_node

        if len(nodes) != len(coords):
            raise IntegrityViolation(
                f"tree node batch has {len(nodes)} nodes, "
                f"{len(coords)} were requested (dropped or duplicated)",
                epoch_id=self.epoch_id,
                table=self.table_name,
                kind="missing-node",
            )
        enc_key, mac_key = self._tree_keys()
        if self._tree_det is None:
            self._tree_det = DeterministicCipher(enc_key)
        plaintexts = self._tree_det.decrypt_many(list(nodes), errors="none")
        decoded = []
        for (entity, level, index), plaintext in zip(coords, plaintexts):
            if plaintext is None:
                raise IntegrityViolation(
                    f"tree node ({entity},{level},{index}) fails "
                    "authenticated decryption — the stored node was "
                    "tampered with or replayed across epochs",
                    epoch_id=self.epoch_id,
                    table=self.table_name,
                    kind="undecryptable",
                )
            try:
                decoded.append(
                    decode_node(
                        mac_key, plaintext, entity, level, index,
                        len(meta.targets),
                    )
                )
            except ValueError as error:
                raise IntegrityViolation(
                    f"tree node ({entity},{level},{index}): {error}",
                    epoch_id=self.epoch_id,
                    table=self.table_name,
                    kind="tree-node",
                ) from error
        return decoded

    # ----------------------------------------------------------- verification

    def _verification(self, stage: str, **span_attrs) -> "_Verification":
        """The accounting every verification shares: the
        ``enclave.verify`` span, the ok/violation outcome counter and
        the per-kind violation counter."""
        return _Verification(
            telemetry.span(
                "enclave.verify", stage=stage, epoch=self.epoch_id, **span_attrs
            )
        )

    def verify_rows(
        self, rows: Sequence[Row], expected_cells: Sequence[int] | None = None
    ) -> None:
        """Row-facing entry of :meth:`verify_packed`: pack, then verify."""
        self.verify_packed([self.pack_rows(rows)], expected_cells)

    def verify_packed(
        self,
        packed_bins: Sequence[PackedBin],
        expected_cells: Sequence[int] | None = None,
        keep=None,
        requested: Sequence[Bin] | None = None,
    ):
        """STEP 4 (optional): hash-chain verification of a fetched batch;
        returns the mask of rows it authenticated as real, the only ones
        STEP 4 may filter and decrypt (a fake's cells are under no tag).

        The enclave decrypts each real row's index key to recover
        ``(cid, counter)``, orders rows per cell-id by counter, rebuilds
        the per-column chains and compares against the sealed tags.
        Raises a structured :class:`IntegrityViolation` (an
        :class:`~repro.exceptions.IntegrityError` subclass carrying the
        epoch, table, cell-id, and violation kind) on any inconsistency.
        ``requested``, the slot request each batch was fetched by (a
        :class:`Bin` in canonical slot order, a :class:`RunRequest` or a
        :class:`SlotRequest`),
        first tries :meth:`_verify_positional`, which decrypts nothing.

        ``expected_cells`` binds the response to the *request*: every
        named cell-id with a non-zero population must appear in the
        batch.  Without it, a Byzantine replica replaying a different
        bin's (internally consistent) batch would verify cleanly while
        silently under-counting — per-cell chains prove each present
        cell is whole, not that the right cells are present.

        ``keep`` is an optional boolean mask over the concatenated rows
        (range queries dedup *before* verifying, so a tamper-duplicate
        is dropped there and not reported as a counter gap).  The mask
        returned is only ever of kept rows.
        """
        total = sum(pb.row_count for pb in packed_bins)
        # Row count here is the *fetched* volume — public-size by the
        # volume-hiding argument — so it may ride on the span.
        rows = int(keep.sum()) if keep is not None else total
        with self._verification("verify", rows=rows):
            if requested is not None:
                real = self._verify_positional(packed_bins, requested, expected_cells, keep)
                if real is not None:
                    return real if keep is None else real & keep
            cells, real = self._group_by_cell(packed_bins, keep)
            self._check_cells(cells, expected_cells)
            return real

    def verified_bin(
        self, packed: PackedBin, cells, request: Bin | SlotRequest | RunRequest | None = None
    ) -> PackedBin:
        """A batch verified at fetch time (by the slot ``request`` that
        fetched it, when given), carrying its real-row mask on to STEP 4."""
        real = self.verify_packed([packed], cells, requested=request and (request,))
        return replace(packed, real_rows=real)

    def _index_digest(self, key: tuple[str, int] | None, cell_ids, fake_ids=()) -> bytes:
        """SHA-256 of ``cell_ids``' then ``fake_ids``' index keys, kept under ``key``."""
        # No trapdoor table, no volume counter, and uncounted (first
        # touches follow the access order).
        digest = self._index_memo.get(key)
        if digest is None:
            c_tuple = self.c_tuple
            plaintexts = [index_plaintext(cid, j) for cid in cell_ids
                          for j in range(1, c_tuple[cid] + 1)]
            plaintexts += map(fake_index_plaintext, fake_ids)
            keys = self.det.encrypt_many(plaintexts, counted=False)
            digest = hashlib.sha256(b"".join(keys)).digest()
            if key is not None:  # ``None``: part of a fake range, not kept
                self._index_memo[key] = digest
        return digest

    def _index_matches(self, column: bytes, request: Bin | SlotRequest | RunRequest) -> bool:
        """Whether ``column`` holds the index keys ``request`` expects (DESIGN.md §16)."""
        if isinstance(request, SlotRequest):
            return column == b"".join(request.trapdoors)
        c_tuple, width, at = self.c_tuple, self.column_widths[-1], 0
        if isinstance(request, Bin):
            segments = [(("bin", request.index), request.cell_ids, request.fake_ids())]
        else:
            segments = [(("cell", cid), (cid,), ()) for cid in request.cell_ids if c_tuple[cid]]
            # The fakes, run by run past the real slots: a bin's whole
            # fake range is kept, a part of one (a cycling pool's first
            # or last) derived afresh.
            done = 0
            for b, first, stop in request.runs:
                first, done = first + max(0, request.real_tuples - done), done + stop - first
                if first < stop:
                    chosen = self.layout.bins[b]
                    # Slot ``s`` of a bin holds fake id ``lo + s``.
                    lo = chosen.fake_id_range[0] - chosen.real_tuples
                    ids = range(lo + first, lo + stop)
                    key = ("fakes", b) if len(ids) == chosen.fake_count else None
                    segments.append((key, (), ids))
        for key, cells, ids in segments:
            stop = at + width * (sum(c_tuple[cid] for cid in cells) + len(ids))
            if hashlib.sha256(column[at:stop]).digest() != self._index_digest(key, cells, ids):
                return False
            at = stop
        return True

    def _verify_positional(self, packed_bins, requested, expected_cells, keep):
        """Verification by request (DESIGN.md §16): each batch is its slot
        request whole — its row count, the table's widths, the index-key
        column the enclave expects (:meth:`_index_matches`) — and each
        cell's chains fold to its tags over the slots the request gives
        it; no cell twice, unless ``keep`` is the first-occurrence mask.
        The real-row mask, or ``None`` for the grouping path, which
        accepts whatever this does."""
        import numpy as np

        c_tuple = self.c_tuple
        cells = [cid for request in requested for cid in request.cell_ids]
        present = set(cells)
        if (
            not requested
            or len(requested) != len(packed_bins)
            or (keep is None and len(present) != len(cells))
            or any(c_tuple[cid] and cid not in present for cid in expected_cells or ())
        ):
            return None
        for pb, request in zip(packed_bins, requested):
            if (pb.row_count, pb.column_widths) != (
                request.total_tuples, self.column_widths
            ) or not self._index_matches(pb.columns[-1], request):
                return None
        if keep is not None and not np.array_equal(keep, self.packed_dedup_keep(packed_bins)):
            return None
        masks = []
        for pb, request in zip(packed_bins, requested):
            start = 0
            for cid in request.cell_ids:
                stop = start + c_tuple[cid]
                if stop > start and self._tag_digests(cid) != tuple(
                    extend_chain_slices(CHAIN_INIT, ((blob, width, start, stop),))
                    for blob, width in zip(pb.columns[:-1], pb.column_widths)
                ):
                    return None
                start = stop
            masks.append(np.arange(pb.row_count) < start)
        return np.concatenate(masks)

    def _group_by_cell(self, packed_bins: Sequence[PackedBin], keep) -> tuple[dict, object]:
        """The real rows of a batch grouped by cell-id, as *runs*
        ``[first counter, start slot, stop slot, bin]``: slots adjacent
        in one bin whose counters are consecutive.  A sealed bin and a
        trapdoor answer hold each cell as one run from counter 1
        (canonical slot order); a permuted, split, thinned or replayed
        batch just makes more runs for :meth:`_check_cells` to order.
        With them, the mask of the rows found real."""
        import numpy as np

        from repro.core.schema import unpad_plaintext

        # Every kept row's index key, decrypted in one batch.
        # Cells are materialised by plain slicing, never through numpy
        # element access (S-dtype strips trailing NULs from ciphertext).
        batches: list[tuple[PackedBin, Sequence[int], int]] = []
        index_keys: list[bytes] = []
        offset = 0
        for pb in packed_bins:
            keys = pb.column_cells(len(pb.columns) - 1)
            slots: Sequence[int] = range(pb.row_count)
            if keep is not None:
                slots = np.flatnonzero(keep[offset : offset + pb.row_count]).tolist()
                keys = [keys[j] for j in slots]
            batches.append((pb, slots, offset))
            offset += pb.row_count
            index_keys += keys
        plaintexts = iter(self.det.decrypt_many(index_keys, errors="none"))
        from_bytes = int.from_bytes
        cells: dict[int, list[list]] = {}
        real = np.zeros(offset, dtype=bool)
        for pb, slots, base in batches:
            open_cid = run = None
            for j, plaintext in zip(slots, plaintexts):
                if plaintext is None:
                    raise IntegrityViolation(
                        f"row {pb.row_ids[j]}: index key fails decryption — the "
                        "stored ciphertext was tampered with",
                        epoch_id=self.epoch_id, table=self.table_name, kind="undecryptable",
                    )
                end = 4 + from_bytes(plaintext[:4], "big")  # unpad_plaintext
                if end > len(plaintext):
                    unpad_plaintext(plaintext)  # raises: corrupt padding
                parts = plaintext[4:end].split(b"\x1f")
                if parts[0] != b"idx":
                    continue  # fake rows are not covered by per-cid tags
                real[base + j] = True
                cid, counter = int(parts[1]), int(parts[2])
                if cid == open_cid and j == run[2] and counter - run[0] == j - run[1]:
                    run[2] = j + 1
                else:
                    open_cid, run = cid, [counter, j, j + 1, pb]
                    cells.setdefault(cid, []).append(run)
        return cells, real

    def _cell_violation(self, cid: int, kind: str, message: str) -> IntegrityViolation:
        return IntegrityViolation(
            f"cell {cid}: {message}",
            epoch_id=self.epoch_id,
            cell_id=cid,
            table=self.table_name,
            kind=kind,
        )

    def _require_cells(self, present, expected_cells) -> None:
        """The binding to the request: a populated cell-id that was
        asked for and is not among ``present`` is a violation."""
        for cid in expected_cells or ():
            if self.c_tuple[cid] > 0 and cid not in present:
                raise self._cell_violation(
                    cid, "missing-cell",
                    "requested but absent from the response batch "
                    "(a substituted or replayed answer)",
                )

    def _tag_digests(self, cid: int) -> tuple[bytes, ...]:
        """One cell-id's sealed per-column chain digests, opened once
        per context (they are constants of the epoch and its key)."""
        digests = self._tag_memo.get(cid)
        if digests is None:
            sealed = self.package.enc_tags.get(cid)
            if sealed is None:
                raise self._cell_violation(
                    cid, "missing-tag", "no verifiable tag shipped"
                )
            digests = self._tag_memo[cid] = tuple(map(self.nd.decrypt, sealed))
        return digests

    def _check_cells(
        self, cells: dict[int, list[list]], expected_cells: Sequence[int] | None
    ) -> None:
        """Counter sequence, chain fold and tag compare per cell-id
        (``cells`` as :meth:`_group_by_cell` returns them)."""
        self._require_cells(cells, expected_cells)
        for cid, runs in cells.items():
            if len(runs) > 1:
                runs.sort(key=lambda run: run[0])
            reached = 0  # the runs, in counter order, must count 1..c_tuple
            for first, start, stop, _ in runs:
                if first != reached + 1:
                    reached = -1
                    break
                reached += stop - start
            if reached != self.c_tuple[cid]:
                raise self._cell_violation(
                    cid, "counter-gap",
                    f"expected counters 1..{self.c_tuple[cid]}, observed runs "
                    f"{[(run[0], run[2] - run[1]) for run in runs[:5]]}... "
                    "(first counter, rows): rows dropped, duplicated or replayed",
                )
            digests = self._tag_digests(cid)
            # Each column's chain folds over the runs' slices of its
            # blob.  Uncounted: the fold count is the *real*-row volume,
            # which is exactly what volume hiding keeps from the host.
            chains = tuple(
                extend_chain_slices(CHAIN_INIT, [
                    (pb.columns[position], pb.column_widths[position], start, stop)
                    for _, start, stop, pb in runs
                ])
                for position in range(len(digests))
            )
            if chains != digests:
                position = next(i for i, d in enumerate(digests) if d != chains[i])
                raise self._cell_violation(
                    cid, "chain-mismatch",
                    f"column {position} hash chain mismatch",
                )

    # ------------------------------------------------------------- filtering

    def match_rows(
        self,
        rows: Sequence[Row],
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
    ) -> list[Row]:
        """Row-facing entry of :meth:`match_packed`: the matching rows."""
        mask = self.match_packed([self.pack_rows(rows)], filters, group, stats)
        return [row for row, hit in zip(rows, mask) if hit]

    def packed_dedup_keep(self, packed_bins: Sequence):
        """First-occurrence keep mask over concatenated packed rows.

        Deduplicates by index-key ciphertext, the row's *logical*
        identity — deterministic encryption of ``cid ‖ counter``
        (``fake ‖ j`` for fakes), byte-identical on every replica,
        where physical row ids are replica-local and diverge after a
        repair.  Fixed-width S-dtype equality is exact here: two
        distinct ``w``-byte strings cannot compare equal under
        trailing-NUL stripping at width ``w``.
        """
        import numpy as np

        keys = self._packed_column_array(packed_bins, -1)
        _, first = np.unique(keys, return_index=True)
        kept = np.zeros(len(keys), dtype=bool)
        kept[first] = True
        return kept

    def match_packed(
        self,
        packed_bins: Sequence,
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
        keep=None,
    ):
        """Plain (Concealer) string-matching of a batch against the
        filters: one ``np.isin`` per query.  Returns the boolean match
        mask over the concatenated rows (ANDed with ``keep`` when
        given)."""
        import numpy as np

        position = self.filter_group_position(group)
        cells = self._packed_column_array(packed_bins, position)
        # A filter of a different byte-length can never equal a stored
        # cell; drop such filters rather than let S-dtype truncate them
        # into spurious matches.
        width = cells.dtype.itemsize
        usable = [f for f in filters if len(f) == width]
        if usable:
            mask = np.isin(cells, np.array(usable, dtype=cells.dtype))
        else:
            mask = np.zeros(len(cells), dtype=bool)
        if keep is not None:
            mask &= keep
        stats.rows_matched += int(mask.sum())
        return mask

    def _packed_column_array(self, packed_bins: Sequence, column: int):
        """One column of every bin as a flat fixed-width numpy array.

        Used for *equality only* (isin/unique); byte materialisation
        always goes through :meth:`PackedBin.cell` slicing because
        S-dtype element access strips trailing NULs.
        """
        import numpy as np

        arrays = [
            np.frombuffer(
                pb.columns[column], dtype=f"S{pb.column_widths[column]}"
            )
            for pb in packed_bins
        ]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def match_rows_oblivious(
        self,
        rows: Sequence[Row],
        filters: Sequence[bytes],
        group: tuple[str, ...],
        stats: QueryStats,
        real=None,
    ) -> list[Row]:
        """§4.3 STEP 4: oblivious filtering.

        Every row is compared against *every* filter; the match flag is
        folded branch-free so the trace never reveals which filter
        hit.  Rows are then bitonic-sorted by flag (matches first) and
        the matched prefix is returned.  The in-enclave event trace
        depends only on ``(len(rows), len(filters))``.  ``real``, the
        verified real-row flags, is ANDed into each flag the same way.
        """
        trace = self.enclave.trace
        position = self.filter_group_position(group)
        trace.emit("oblivious_filter", len(rows), len(filters))
        # Pre-decode filters once; per (row, filter) the comparison is a
        # single full-width big-integer XOR (branch-free), and the flag
        # folds in with bitwise OR.
        filter_ints = [int.from_bytes(f, "big") for f in filters]
        max_width = max((len(f) for f in filters), default=0)
        if rows:
            max_width = max(max_width, len(rows[0][position]))
        shift = 8 * max_width + 8
        flagged: list[tuple[int, Row]] = []
        real_flags = [1] * len(rows) if real is None else list(map(int, real))
        for row, is_real in zip(rows, real_flags):
            cell = int.from_bytes(row[position], "big")
            v = 0
            for filter_int in filter_ints:
                diff = cell ^ filter_int
                v |= ((-diff) >> shift) & 1 ^ 1  # 1 iff diff == 0
            flagged.append((v & is_real, row))
        ordered = self._oblivious_sort(flagged, key=lambda fr: -fr[0])
        matched_count = sum(v for v, _ in flagged)
        stats.rows_matched += matched_count
        return [row for _, row in ordered[:matched_count]]

    # ------------------------------------------------------------ decryption

    def decrypt_records(self, rows: Sequence[Row], stats: QueryStats) -> list[tuple]:
        """Row-facing entry of :meth:`decrypt_packed_records` (§4.3's
        oblivious filter hands back rows)."""
        position = len(self.schema.filter_groups)
        return self._decrypt_payloads([row[position] for row in rows], stats)

    def decrypt_packed_records(
        self, packed_bins: Sequence[PackedBin], mask, stats: QueryStats
    ) -> list[tuple]:
        """Decrypt the mask-selected payload cells of a batch, in the
        concatenated bin order (the order the rows were fetched in)."""
        import numpy as np

        position = len(self.schema.filter_groups)
        selected = np.nonzero(mask)[0]
        payloads: list[bytes] = []
        offset = 0
        for pb in packed_bins:
            width = pb.column_widths[position]
            blob = pb.columns[position]
            end = offset + pb.row_count
            local = selected[(selected >= offset) & (selected < end)] - offset
            payloads.extend(
                blob[j * width : (j + 1) * width] for j in local.tolist()
            )
            offset = end
        return self._decrypt_payloads(payloads, stats)

    def _decrypt_payloads(self, payloads: list[bytes], stats: QueryStats) -> list[tuple]:
        """Payload ciphertexts → record tuples (skipping any fake that
        slipped through matching).

        One batch with ``counted=False``: the
        number of matched-and-decrypted rows is data-dependent, so it
        must not feed a public-size kernel counter.
        """
        # No row count on this span: matched-row volume is the answer
        # volume (data-dependent).  The span itself is fine — every query
        # has exactly one decrypt stage, a public fact.
        with telemetry.span("enclave.decrypt", stage="decrypt", epoch=self.epoch_id):
            plaintexts = self.det.decrypt_many(
                payloads, errors="none", counted=False
            )
            records = [
                self.schema.decode_payload(plaintext)
                for plaintext in plaintexts
                if plaintext is not None
            ]
            stats.rows_decrypted += len(records)
            return records
