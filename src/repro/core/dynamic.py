"""Dynamic insertion and cross-round query execution (§6).

Inserts are batched into rounds (= epochs); each round is encrypted
independently by Algorithm 1, which gives forward privacy for free
(fresh key per round).  But querying a value *across* rounds lets the
adversary correlate bins between rounds (Example 6.1).  The §6 fix,
inspired by Path-ORAM:

- a query spanning rounds fetches, **from every round in its span**,
  the same number of bins: the bins it needs plus randomly chosen
  extras, ``max(needed, ceil(log2 |Bin|))`` in total — rounds that
  contribute nothing are indistinguishable from rounds that do;
- every fetched bin is then *rewritten*: its rows are decrypted,
  re-encrypted under a fresh per-bin key (``k = s_k ‖ eid ‖ counter``,
  footnote 7), permuted among their storage slots, and written back —
  so a later query touching the same logical bin produces unlinkable
  trapdoors and row contents.

The enclave keeps the per-(round, bin) rewrite generation in sealed
memory — the "meta-index at the trusted entity" that lets Concealer
avoid Path-ORAM's external data structure.
"""

from __future__ import annotations

import math
import random

from repro import telemetry
from repro.core.aggregation import evaluate_aggregate
from repro.core.binning import Bin
from repro.core.context import EpochContext, _count_tuples
from repro.core.epoch import (
    EpochPackage,
    fake_index_plaintext,
    index_plaintext,
    rekey_row,
)
from repro.core.queries import Aggregate, QueryStats, RangeQuery, resolve_predicate
from repro.core.service import ServiceProvider
from repro.crypto.det import DeterministicCipher
from repro.crypto.keys import derive_rewrite_key
from repro.exceptions import QueryError
from repro.storage.table import Row


class DynamicConcealer:
    """Multi-round store and the §6 query executor.

    Wraps a provisioned :class:`ServiceProvider`; rounds are ingested
    through :meth:`ingest_round` and cross-round range queries run
    through :meth:`execute_range`.
    """

    def __init__(self, service: ServiceProvider, rng: random.Random | None = None):
        self.service = service
        self._rng = rng if rng is not None else random.Random()
        # (epoch_id, bin_index) -> rewrite generation (footnote 7 counter).
        self._generations: dict[tuple[int, int], int] = {}
        # (epoch_id, bin_index) -> DET cipher of the current generation.
        self._ciphers: dict[tuple[int, int], DeterministicCipher] = {}

    # -------------------------------------------------------------- ingestion

    def ingest_round(self, package: EpochPackage) -> None:
        """Land one round; Algorithm 1 ran independently at the provider."""
        self.service.ingest_epoch(package)

    def rounds(self) -> list[int]:
        """Ingested round (epoch) ids, sorted."""
        return self.service.ingested_epochs()

    def generation(self, epoch_id: int, bin_index: int) -> int:
        """Rewrite generation of one bin (0 = never rewritten)."""
        return self._generations.get((epoch_id, bin_index), 0)

    # ----------------------------------------------------------------- query

    def execute_range(self, query: RangeQuery) -> tuple[object, QueryStats]:
        """Run a range query spanning any number of rounds."""
        stats = QueryStats()
        span = self._rounds_in_span(query)
        if not span:
            raise QueryError("query range covers no ingested round")

        dynamic_bins = telemetry.counter(
            "concealer_dynamic_bins_fetched_total",
            "§6 cross-round bin fetches split needed vs. decoy (which "
            "rounds satisfy a query is exactly what the decoys hide)",
            labels=("role",),
        )
        all_matched: list[tuple[EpochContext, Bin, list[Row]]] = []
        with telemetry.span("dynamic.range_query", rounds=len(span)):
            for epoch_id in span:
                context = self.service.context_for(epoch_id)
                needed = self._needed_bins(query, context)
                fetch_set = self._fetch_set(needed, context)
                stats.bins_fetched += len(fetch_set)
                needed_indexes = {b.index for b in needed}
                dynamic_bins.labels(role="needed").inc(
                    sum(1 for b in fetch_set if b.index in needed_indexes)
                )
                dynamic_bins.labels(role="decoy").inc(
                    sum(1 for b in fetch_set if b.index not in needed_indexes)
                )

                self.service.engine.access_log.begin_query()
                try:
                    for chosen in fetch_set:
                        rows = self._fetch_bin(context, chosen, stats)
                        if any(b.index == chosen.index for b in needed):
                            all_matched.append((context, chosen, rows))
                        self._rewrite_bin(context, chosen, rows)
                finally:
                    self.service.engine.access_log.end_query()

        return self._aggregate(query, all_matched, stats)

    # ------------------------------------------------------------- internals

    def _rounds_in_span(self, query: RangeQuery) -> list[int]:
        rounds = []
        for epoch_id in self.rounds():
            ctx_duration = self.service.context_for(epoch_id).grid.spec.epoch_duration
            if epoch_id <= query.time_end and epoch_id + ctx_duration > query.time_start:
                rounds.append(epoch_id)
        return rounds

    def _needed_bins(self, query: RangeQuery, context: EpochContext) -> list[Bin]:
        """The bins actually satisfying the query within one round."""
        duration = context.grid.spec.epoch_duration
        start = max(query.time_start, context.epoch_id)
        end = min(query.time_end, context.epoch_id + duration - 1)
        if end < start:
            return []
        cids = context.grid.cell_ids_for_combinations(
            query.candidate_combinations(), start, end
        )
        return context.layout.bins_of_cell_ids(cids)

    def _fetch_set(self, needed: list[Bin], context: EpochContext) -> list[Bin]:
        """Needed bins plus random decoys, ≥ ceil(log2 |Bin|) in total.

        Rounds with no matching bin still fetch the same floor count,
        hiding which rounds satisfy the query (§6 step ii).
        """
        total_bins = len(context.layout.bins)
        floor = min(total_bins, max(1, math.ceil(math.log2(max(total_bins, 2)))))
        target = max(len(needed), floor)
        chosen = {b.index: b for b in needed}
        candidates = [b for b in context.layout.bins if b.index not in chosen]
        self._rng.shuffle(candidates)
        for decoy in candidates:
            if len(chosen) >= target:
                break
            chosen[decoy.index] = decoy
        return list(chosen.values())

    def _bin_cipher(self, context: EpochContext, bin_index: int) -> DeterministicCipher:
        """DET cipher of a bin's current rewrite generation."""
        key = (context.epoch_id, bin_index)
        cipher = self._ciphers.get(key)
        if cipher is None:
            generation = self._generations.get(key, 0)
            if generation == 0:
                cipher = context.det
            else:
                cipher = DeterministicCipher(
                    derive_rewrite_key(
                        self.service.enclave.master_key, context.epoch_id, generation
                    )
                )
            self._ciphers[key] = cipher
        return cipher

    def _fetch_bin(
        self, context: EpochContext, chosen: Bin, stats: QueryStats
    ) -> list[Row]:
        """Fetch one bin under its generation's trapdoors."""
        cipher = self._bin_cipher(context, chosen.index)
        trapdoors = [
            cipher.encrypt(index_plaintext(cid, j))
            for cid in chosen.cell_ids
            for j in range(1, context.c_tuple[cid] + 1)
        ]
        real = len(trapdoors)
        trapdoors.extend(
            cipher.encrypt(fake_index_plaintext(fid)) for fid in chosen.fake_ids()
        )
        _count_tuples(real, len(trapdoors) - real)
        stats.trapdoors_generated += len(trapdoors)
        rows = self.service.engine.lookup_many(
            context.table_name, "index_key", trapdoors
        )
        stats.rows_fetched += len(rows)
        return rows

    def _rewrite_bin(
        self, context: EpochContext, chosen: Bin, rows: list[Row]
    ) -> None:
        """§6 step iii: permute, re-encrypt with a fresh key, write back."""
        key = (context.epoch_id, chosen.index)
        old_cipher = self._bin_cipher(context, chosen.index)
        new_generation = self._generations.get(key, 0) + 1
        new_cipher = DeterministicCipher(
            derive_rewrite_key(
                self.service.enclave.master_key, context.epoch_id, new_generation
            )
        )

        contents = [
            rekey_row(row.columns, old_cipher, new_cipher, context.nd)[0]
            for row in rows
        ]

        slots = [row.row_id for row in rows]
        self._rng.shuffle(contents)
        # The write-back must be atomic with the generation bump: a
        # crash after some overwrites would otherwise leave the bin
        # half under generation g, half under g+1 — unreadable under
        # either.  On any failure the captured pre-rewrite rows are
        # restored (host-side bytes, so this works with a dead enclave)
        # and the generation stays put.
        enclave = self.service.enclave
        engine = self.service.engine
        # Fence generation-stamped consumers (the enclave's tree state,
        # anti-entropy repair): state captured before this rewrite must
        # not be used after it, even though the *logical* bin is the
        # same — its ciphertexts changed key and permutation.
        fenced = getattr(engine, "begin_rewrite", None) is not None
        if fenced:
            engine.begin_rewrite()
        written: list[int] = []
        try:
            try:
                for row_id, columns in zip(slots, contents):
                    enclave.kill_point("enclave.kill.rewrite")
                    engine.overwrite(context.table_name, row_id, columns)
                    written.append(row_id)
            except BaseException:
                originals = {row.row_id: row.columns for row in rows}
                for row_id in written:
                    engine.overwrite(
                        context.table_name, row_id, list(originals[row_id])
                    )
                raise
        finally:
            if fenced:
                engine.end_rewrite()

        self._generations[key] = new_generation
        self._ciphers[key] = new_cipher
        # Every fetched bin is rewritten, needed or decoy alike, so the
        # rewrite count is a pure function of the public fetch-set size.
        telemetry.counter(
            "concealer_bin_rewrites_total",
            "§6 step-iii bin rewrites (re-key + permute + write back)",
            secrecy=telemetry.PUBLIC_SIZE,
        ).inc()

    def _aggregate(
        self,
        query: RangeQuery,
        matched_bins: list[tuple[EpochContext, Bin, list[Row]]],
        stats: QueryStats,
    ) -> tuple[object, QueryStats]:
        """Filter the needed bins' rows and fold the aggregate across rounds.

        Note: rows were captured *before* the rewrite, so they decrypt
        under the generation that fetched them.
        """
        records: list[tuple] = []
        count = 0
        for context, chosen, rows in matched_bins:
            cipher = self._bin_cipher_before_rewrite(context, chosen)
            predicate = resolve_predicate(query, context.schema)
            duration = context.grid.spec.epoch_duration
            start = max(query.time_start, context.epoch_id)
            end = min(query.time_end, context.epoch_id + duration - 1)
            timestamps = context.query_timestamps(start, end)
            filters = {
                cipher.encrypt(
                    context.schema.filter_plaintext_for_values(
                        predicate.group, values, t
                    )
                )
                for values in predicate.combinations()
                for t in timestamps
            }
            position = context.filter_group_position(predicate.group)
            payload_pos = len(context.schema.filter_groups)
            for row in rows:
                if row[position] in filters:
                    count += 1
                    if query.aggregate is not Aggregate.COUNT:
                        plaintext = cipher.decrypt(row[payload_pos])
                        records.append(context.schema.decode_payload(plaintext))
        stats.rows_matched = count
        stats.rows_decrypted = len(records)
        if query.aggregate is Aggregate.COUNT:
            return count, stats
        answer = evaluate_aggregate(
            query.aggregate, records, self.service.schema, query.target, query.k
        )
        return answer, stats

    def _bin_cipher_before_rewrite(
        self, context: EpochContext, chosen: Bin
    ) -> DeterministicCipher:
        """Cipher of the generation the rows were fetched under."""
        key = (context.epoch_id, chosen.index)
        generation = self._generations.get(key, 1) - 1
        if generation <= 0:
            return context.det
        return DeterministicCipher(
            derive_rewrite_key(
                self.service.enclave.master_key, context.epoch_id, generation
            )
        )
