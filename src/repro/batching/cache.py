"""A fixed-capacity, epoch-fenced cache of verified whole bins.

The cache lives "inside" the enclave: its resident rows are charged
against the EPC budget (the same pressure any in-enclave working set
feels), and entries are only ever *whole bins* — the public retrieval
unit of Theorem 4.1.  A hit therefore reveals nothing beyond what the
storage access log already shows for a miss: which bin a query touched.

Staleness is handled the way :class:`RepairFenced` handles anti-entropy
repair: every entry is stamped with the storage engine's
``rewrite_generation`` at fill time, and a lookup that observes a newer
generation (or an in-flight rewrite) discards the entry instead of
serving it.  Key rotation and §6 dynamic bin rewrites both bump the
generation through ``begin/end_rewrite``, so a cached-then-rotated
epoch can never serve pre-rotation ciphertexts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import telemetry
from repro.exceptions import EnclaveMemoryError

# Same per-row EPC estimate the fetch path charges while a batch
# transits the enclave (see EpochContext.fetch).
ROW_ESTIMATE_BYTES = 256


def _hits():
    return telemetry.counter(
        "concealer_bin_cache_hits_total",
        "bin-cache hits (whole-bin lookups served without storage)",
        secrecy=telemetry.PUBLIC_SIZE,
    )


def _misses():
    return telemetry.counter(
        "concealer_bin_cache_misses_total",
        "bin-cache misses (whole-bin lookups that went to storage)",
        secrecy=telemetry.PUBLIC_SIZE,
    )


def _evictions():
    return telemetry.counter(
        "concealer_bin_cache_evictions_total",
        "bin-cache evictions, by reason",
        secrecy=telemetry.PUBLIC_SIZE,
        labels=("reason",),
    )


def _occupancy():
    return telemetry.gauge(
        "concealer_bin_cache_bins",
        "bins currently resident in the enclave bin cache",
        secrecy=telemetry.PUBLIC_SIZE,
    )


@dataclass(frozen=True)
class CachedBin:
    """One resident unit: its verified payload and the fence stamp.

    ``rows`` is what the fetcher admitted — a
    :class:`~repro.core.packed.PackedBin`, whichever fetch kind it came
    by, or one aggregate-tree node.
    """

    rows: tuple | object
    verified: bool
    generation: int
    charged_bytes: int


class BinCache:
    """LRU cache of whole bins, EPC-charged and generation-fenced.

    Thread-safe: the parallel fetch executor's workers look up and
    insert concurrently.  ``capacity_bins`` bounds residency; the byte
    cost additionally competes with query working sets for the EPC, so
    an insert that would not fit is simply skipped (caching is an
    optimisation, never a correctness requirement).
    """

    def __init__(
        self,
        enclave,
        engine,
        capacity_bins: int,
        row_bytes: int = ROW_ESTIMATE_BYTES,
    ):
        if capacity_bins < 0:
            raise ValueError("capacity_bins must be >= 0")
        self.enclave = enclave
        self.engine = engine
        self.capacity_bins = capacity_bins
        self.row_bytes = row_bytes
        self._entries: OrderedDict[tuple[str, int], CachedBin] = OrderedDict()
        self._lock = threading.RLock()

    # --------------------------------------------------------------- lookups

    def lookup(
        self, table: str, bin_index: int, require_verified: bool = False
    ) -> CachedBin | None:
        """Return the resident bin, or ``None`` on miss.

        A resident entry whose generation predates the engine's current
        ``rewrite_generation`` — or that was filled while a rewrite is
        in flight — is evicted rather than served; the caller re-fetches
        the rewritten bytes from storage.  ``require_verified`` refuses
        entries cached without hash-chain verification (a verify=True
        service must never serve rows no one has checked).
        """
        key = (table, bin_index)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._stale(entry):
                self._evict(key, "generation")
                entry = None
            if entry is None or (require_verified and not entry.verified):
                _misses().inc()
                return None
            self._entries.move_to_end(key)
            _hits().inc()
            return entry

    def _stale(self, entry: CachedBin) -> bool:
        if getattr(self.engine, "rewrite_in_progress", False):
            return True
        return entry.generation != getattr(self.engine, "rewrite_generation", 0)

    # --------------------------------------------------------------- inserts

    def insert(
        self,
        table: str,
        bin_index: int,
        rows: tuple,
        verified: bool,
        generation: int,
    ) -> bool:
        """Admit a bin fetched under ``generation``; returns residency.

        ``generation`` must be the engine generation snapshotted *before*
        the fetch: if a rewrite began (or completed) between the
        snapshot and the insert, the rows may mix pre- and
        post-rewrite bytes and must not be cached.  An insert that
        cannot reserve EPC is skipped — the budget belongs to query
        working sets first.
        """
        if self.capacity_bins <= 0:
            return False
        if getattr(self.engine, "rewrite_in_progress", False):
            return False
        if generation != getattr(self.engine, "rewrite_generation", 0):
            return False
        if hasattr(rows, "nbytes"):
            # Packed bins and tree nodes carry their exact resident
            # size; charging the per-row estimate would mis-account the
            # EPC (a packed bin is much denser than row_bytes × rows).
            stored = rows
            charged = int(rows.nbytes)
        else:
            stored = tuple(rows)
            charged = self.row_bytes * len(stored)
        with self._lock:
            try:
                self.enclave.charge_memory(charged)
            except EnclaveMemoryError:
                _evictions().labels(reason="epc-full").inc()
                return False
            key = (table, bin_index)
            if key in self._entries:
                self._evict(key, "replaced")
            while len(self._entries) >= self.capacity_bins:
                oldest = next(iter(self._entries))
                self._evict(oldest, "capacity")
            self._entries[key] = CachedBin(
                rows=stored,
                verified=verified,
                generation=generation,
                charged_bytes=charged,
            )
            _occupancy().set(len(self._entries))
            return True

    # ------------------------------------------------------------ invalidation

    def invalidate_all(self, reason: str = "clear", release: bool = True) -> int:
        """Drop every entry; returns how many were resident.

        ``release=False`` skips returning the EPC charge — used when the
        owning enclave crashed (hardware wiped the EPC wholesale, so
        there is nothing to return and the instance refuses ecalls).
        """
        with self._lock:
            dropped = len(self._entries)
            for key in list(self._entries):
                self._evict(key, reason, release=release)
            return dropped

    def rebind_enclave(self, enclave) -> None:
        """Point at a replacement enclave after a crash.

        The dead instance's EPC was wiped by hardware, so entries are
        dropped without releasing their (already-gone) charge.
        """
        self.invalidate_all(reason="enclave-replaced", release=False)
        self.enclave = enclave

    def rebind_engine(self, engine) -> None:
        """Point at a replacement engine (checkpoint restore).

        Restored storage may hold different bytes than what was cached,
        so everything is dropped; the enclave is still alive, so its
        charge is returned.
        """
        self.invalidate_all(reason="engine-replaced", release=True)
        self.engine = engine

    def _evict(self, key: tuple[str, int], reason: str, release: bool = True) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if release:
            self.enclave.release_memory(entry.charged_bytes)
        _evictions().labels(reason=reason).inc()
        _occupancy().set(len(self._entries))

    # ------------------------------------------------------------- inspection

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        return key in self._entries

    @property
    def resident_bytes(self) -> int:
        """EPC bytes currently charged to resident bins."""
        with self._lock:
            return sum(e.charged_bytes for e in self._entries.values())
