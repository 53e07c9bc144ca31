"""Per-epoch trapdoor memo table — an EPC-charged, rotation-fenced LRU.

STEP 3 of Algorithm 2 derives one DET trapdoor ``E_k(idx‖cid‖j)`` per
``(cell-id, counter)`` slot of every bin a query touches.  Trapdoors
are *deterministic per epoch*: the same slot yields the same ciphertext
until the epoch key changes.  Queries revisit bins constantly (the
whole point of bin-packing is that many cells share a bin), so without
memoization the enclave re-derives identical trapdoors on every query
— PR 4 deduplicated *fetches*; this table deduplicates the *crypto*.

Leakage: a hit/miss on this table is keyed by ``(epoch, table, kind,
id, counter)`` — exactly the slots the storage access log already
reveals when the trapdoors are sent out as index-lookup keys.  The
granularity equals the PR-4 BinCache's whole-bin granularity (every
slot of a bin is derived or memoized together), so the table leaks
nothing beyond what Theorem 4.1 already concedes: *which bins* a query
touched.  The §4.3 oblivious path never consults it — Concealer+'s
trace-identity guarantee forbids memory touches that depend on whether
a slot was seen before.

Staleness follows the BinCache discipline with one addition: entries
are stamped with both the storage engine's ``rewrite_generation`` *and*
the enclave's ``key_generation``, read at lookup time — before the
misses are derived, as ``BinCache`` stamps a bin before its fetch — and
a fill whose stamp no longer matches is not admitted.  Key rotation
bumps the key generation (and flushes the table outright); §6 dynamic
rewrites bump the engine generation.  A lookup observing either fence
moved — or a rewrite in flight — discards the entry instead of serving
a trapdoor derived under dead key material.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import EnclaveMemoryError

# EPC estimate per resident entry: a 48-byte trapdoor (32-byte padded
# index plaintext + 16-byte DET tag) plus key/stamp overhead.
ENTRY_ESTIMATE_BYTES = 96


def _hits():
    return telemetry.counter(
        "concealer_trapdoor_table_hits_total",
        "trapdoor-table hits (slot trapdoors served without re-derivation)",
        secrecy=telemetry.PUBLIC_SIZE,
    )


def _misses():
    return telemetry.counter(
        "concealer_trapdoor_table_misses_total",
        "trapdoor-table misses (slot trapdoors derived by the DET kernel)",
        secrecy=telemetry.PUBLIC_SIZE,
    )


def _evictions():
    return telemetry.counter(
        "concealer_trapdoor_table_evictions_total",
        "trapdoor-table evictions, by reason",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("reason",),
    )


def _occupancy():
    return telemetry.gauge(
        "concealer_trapdoor_table_entries",
        "trapdoors currently memoized in the enclave",
        secrecy=telemetry.PUBLIC_SIZE,
    )


@dataclass(frozen=True)
class _Entry:
    trapdoor: bytes
    engine_generation: int
    key_generation: int


class TrapdoorTable:
    """LRU memo of ``(epoch, table, kind, id, counter) → trapdoor``.

    Thread-safe (parallel batch-prefetch workers derive trapdoors for
    different bins concurrently).  Residency is EPC-charged; an entry
    that cannot reserve budget is simply not memoized — memoization is
    an optimisation, never a correctness requirement.
    """

    def __init__(
        self,
        enclave,
        engine,
        capacity: int,
        entry_bytes: int = ENTRY_ESTIMATE_BYTES,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.enclave = enclave
        self.engine = engine
        self.capacity = capacity
        self.entry_bytes = entry_bytes
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.RLock()

    # --------------------------------------------------------------- lookups

    def _fence(self):
        """The stamp a fill must carry: ``(engine generation, key
        generation)``, or ``None`` while a rewrite is in flight."""
        if getattr(self.engine, "rewrite_in_progress", False):
            return None
        return (
            getattr(self.engine, "rewrite_generation", 0),
            getattr(self.enclave, "key_generation", 0),
        )

    def lookup_many(self, keys) -> tuple[list, tuple | None]:
        """One pass for a whole request (one lock, one fence read, one
        increment per counter): the memoized trapdoor per key, ``None``
        on a miss or a stale entry, and the fence stamp the misses' fill
        must be handed (:meth:`insert_many`)."""
        found = []
        evicted = hits = 0
        with self._lock:
            stamp = self._fence()
            entries = self._entries
            for key in keys:
                entry = entries.get(key)
                if entry is not None and (entry.engine_generation, entry.key_generation) != stamp:
                    self._drop(key)
                    evicted += 1
                    entry = None
                if entry is None:
                    found.append(None)
                    continue
                entries.move_to_end(key)
                hits += 1
                found.append(entry.trapdoor)
            self._account(
                {"generation": evicted}, evicted, hits=hits, misses=len(found) - hits
            )
        return found, stamp

    def insert_many(self, pairs, stamp) -> int:
        """Memoize freshly derived ``(key, trapdoor)`` pairs, in order;
        returns how many became resident.

        Nothing is admitted unless the fence still reads ``stamp`` (the
        one :meth:`lookup_many` returned before the derivation): a
        rewrite or a rotation that began or ended in between may have
        made the derivation stale.  A pair the EPC cannot cover is
        skipped; each entry is charged on its own, in order.
        """
        if self.capacity <= 0 or stamp is None:
            return 0
        evicted = {"replaced": 0, "epc-full": 0, "capacity": 0}
        admitted = 0
        with self._lock:
            if self._fence() != stamp:
                return 0
            entries = self._entries
            try:  # a crashed enclave's charge raises: account what was done
                for key, trapdoor in pairs:
                    if key in entries:
                        self._drop(key)
                        evicted["replaced"] += 1
                    try:
                        self.enclave.charge_memory(self.entry_bytes)
                    except EnclaveMemoryError:
                        evicted["epc-full"] += 1
                        continue
                    while len(entries) >= self.capacity:
                        self._drop(next(iter(entries)))
                        evicted["capacity"] += 1
                    entries[key] = _Entry(trapdoor, *stamp)
                    admitted += 1
            finally:
                changed = admitted + evicted["replaced"] + evicted["capacity"]
                self._account(evicted, changed)
        return admitted

    # ------------------------------------------------------------ invalidation

    def invalidate_all(self, reason: str = "clear", release: bool = True) -> int:
        """Drop every entry; returns how many were resident."""
        with self._lock:
            dropped = len(self._entries)
            for key in list(self._entries):
                self._drop(key, release)
            self._account({reason: dropped}, dropped)
            return dropped

    def rebind_enclave(self, enclave) -> None:
        """Point at a replacement enclave after a crash (EPC already
        wiped by hardware, so charges are not returned)."""
        self.invalidate_all(reason="enclave-replaced", release=False)
        self.enclave = enclave

    def rebind_engine(self, engine) -> None:
        """Point at a replacement engine (checkpoint restore)."""
        self.invalidate_all(reason="engine-replaced", release=True)
        self.engine = engine

    def _drop(self, key: tuple, release: bool = True) -> None:
        self._entries.pop(key)
        if release:
            self.enclave.release_memory(self.entry_bytes)

    def _account(self, evicted: dict, changed: int, hits: int = 0, misses: int = 0) -> None:
        """One increment per counter and call, and the occupancy gauge
        set once if the entries ``changed``; a zero moves nothing."""
        if hits:
            _hits().inc(hits)
        if misses:
            _misses().inc(misses)
        for reason, count in evicted.items():
            if count:
                _evictions().labels(reason=reason).inc(count)
        if changed:
            _occupancy().set(len(self._entries))

    # ------------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def resident_bytes(self) -> int:
        """EPC bytes currently charged to memoized trapdoors."""
        with self._lock:
            return len(self._entries) * self.entry_bytes
