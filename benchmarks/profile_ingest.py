"""``make profile`` — where an epoch's ingest time goes.

Drives the whole write path — ``ingest_epoch_sharded`` on a 2-shard ×
3-replica fleet over a benchmark-sized epoch — three ways and writes
all three to ``benchmarks/results/profile.txt``:

* a wall-clock **phase split** (placement, pre-pass + sealing, row
  encryption, fakes, packed bins, tree, landing), timed with wrappers
  installed from here around the phases' entry points;
* the **collector's share**: seconds and collection count from
  ``gc.callbacks`` — time cProfile attributes to whichever function
  happened to allocate, so the table below cannot show it;
* the **live heap after landing**, on a 1×1 and a 2×3 fleet, each from
  its own run under ``tracemalloc``: the bytes the stored row
  representation (loose row tuples, sealed-row slot arrays,
  ``index_key`` B+-trees) holds per stored row per replica — what
  dropping every replica's tables frees, so the sealed bins the
  service's retained epoch package shares are not counted — then
  everything the ingest left alive per stored row (tables, indexes,
  sealed bins, retained packages), plus the process's GC-tracked
  objects and the time of one full collection over them;
* **whole-table moves** after landing, on a 1×1 and a 2×3 fleet: one
  table's ``image`` and ``install`` (onto a fresh engine), the fleet's
  ``checkpoint_all`` and its payload bytes, and every shard's
  ``recover_storage`` — its wall clock, the ``PackedBin.pack`` calls
  and the traced-heap growth across it (a second, ``tracemalloc`` run)
  — and whether every replica of a table then holds the same bins;
* the cProfile top-30 by cumulative time, from a second run (profiling
  inflates Python frames against native crypto, so the split above
  comes from the unprofiled run).

First stop when chasing an ingest regression: compare against the file
the nightly ``profile`` job uploads.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import gc
import io
import pstats
import random
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

TOP_N = 30
SHARDS, REPLICAS = 2, 3

# (phase, module, owner or None for a module-level function, name).
# Phases nest: a wrapper charges its phase the time not already charged
# to a phase nested inside it, so the split sums to the ingest's wall
# clock; what is left of ``encrypt_epoch`` is the (cid, counter)
# pre-pass, tag sealing, the Line-24 shuffle and the metadata vectors.
PHASES = [
    ("placement", "repro.core.provider", "DataProvider", "_partition"),
    ("pre-pass + sealing", "repro.core.encryptor", "EpochEncryptor", "encrypt_epoch"),
    ("row encryption", "repro.core.encryptor", None, "_encrypt_partition"),
    ("fakes", "repro.core.encryptor", "EpochEncryptor", "_make_fake_rows"),
    ("packed bins", "repro.core.encryptor", "EpochEncryptor", "_build_packed_bins"),
    ("tree", "repro.core.encryptor", None, "build_agg_tree"),
    ("landing", "repro.core.service", "ServiceProvider", "ingest_epoch"),
]


class PhaseTimer:
    """Self-time per phase, from wrappers this file installs and removes."""

    def __init__(self, phases=PHASES):
        self.phases = phases
        self.seconds: dict[str, float] = {phase: 0.0 for phase, *_ in phases}
        self._nested = [0.0]  # time charged to phases inside the open one
        self._patched: list[tuple] = []

    def _wrap(self, phase: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._nested.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[phase] += elapsed - self._nested.pop()
                self._nested[-1] += elapsed

        return wrapper

    def __enter__(self):
        import importlib

        for phase, module, owner, name in self.phases:
            holder = importlib.import_module(module)
            if owner is not None:
                holder = getattr(holder, owner)
            original = holder.__dict__[name]
            setattr(holder, name, self._wrap(phase, original))
            self._patched.append((holder, name, original))
        return self

    def __exit__(self, *exc):
        for holder, name, original in self._patched:
            setattr(holder, name, original)


class CollectorClock:
    """Seconds inside the cyclic collector, and how often it ran."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def fleet_and_records(workdir, shards=SHARDS, replicas=REPLICAS):
    """A fresh fleet (2×3 by default) and one benchmark-sized epoch (the
    e2e "full" shape: 48 APs × 240 minutes, 1,024 cell-ids, |b| pinned
    at 512)."""
    from repro import WIFI_SCHEMA, DataProvider, GridSpec
    from repro.sharding import ShardedConfig, ShardedService
    from repro.workloads import WifiConfig, generate_wifi_epoch

    epoch, duration = 10 * 3600, 4 * 3600
    records = generate_wifi_epoch(
        WifiConfig(access_points=48, devices=1200, rows_per_hour_offpeak=1200, seed=41),
        epoch, duration, rng=random.Random(41),
    )
    provider = DataProvider(
        WIFI_SCHEMA,
        GridSpec(
            dimension_sizes=(48, duration // 60), cell_id_count=1024,
            epoch_duration=duration,
        ),
        first_epoch_id=epoch,
        master_key=bytes.fromhex("3c" * 32),
        bin_size=512,
        time_granularity=60,
        rng=random.Random(7),
    )
    fleet = ShardedService.build(
        provider, ShardedConfig(shards=shards, replicas=replicas), workdir
    )
    return fleet, records, epoch


def ingest(*observers):
    """One whole ingest on a fresh fleet, inside the given context
    managers (entered after set-up, so they see the ingest only);
    returns (real rows, rows stored, wall seconds)."""
    from repro.sharding import ingest_epoch_sharded

    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir)
        gc.collect()
        with contextlib.ExitStack() as stack:
            for observer in observers:
                stack.enter_context(observer)
            start = time.perf_counter()
            stored = ingest_epoch_sharded(fleet, records, epoch)
            wall = time.perf_counter() - start
    return len(records), sum(stored.values()), wall


def live_heap(shards: int, replicas: int) -> str:
    """One "live heap after landing" line for a fresh shards × replicas
    fleet (see the module docstring)."""
    from repro.sharding import ingest_epoch_sharded

    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards, replicas)
        gc.collect()
        tracemalloc.start()
        try:
            stored = sum(ingest_epoch_sharded(fleet, records, epoch).values())
            gc.collect()
            tracked = len(gc.get_objects())
            start = time.perf_counter()
            gc.collect()
            collect_ms = 1e3 * (time.perf_counter() - start)
            before = tracemalloc.get_traced_memory()[0]
            for shard in fleet.shards:
                group = shard.replicated_engine()
                for engine in group.replicas if group else [shard.service.engine]:
                    for table in engine.table_names():
                        engine.drop_table(table)
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return (
        f"  {shards}x{replicas}: {freed / (stored * replicas):6.1f} B per stored "
        f"row per replica ({stored} rows x {replicas}), {before / stored:6.1f} B "
        f"per stored row held in all, {tracked:,} GC-tracked "
        f"objects, full collection {collect_ms:.1f} ms\n"
    )


def _best_ms(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def whole_table_moves(shards: int, replicas: int) -> str:
    """One "whole-table moves" line for a fresh shards × replicas fleet
    (see the module docstring)."""
    from repro.core.packed import PackedBin
    from repro.sharding import ingest_epoch_sharded
    from repro.storage.engine import StorageEngine

    def stores(shard):
        group = shard.replicated_engine()
        return [getattr(r, "inner", r) for r in group.replicas] if group else [shard.service.engine]

    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards, replicas)
        ingest_epoch_sharded(fleet, records, epoch)
        engine = fleet.shards[0].service.engine
        table = engine.table_names()[0]
        image_ms = _best_ms(lambda: engine.image(table))
        image = engine.image(table)
        install_ms = _best_ms(lambda: StorageEngine().install(image))
        start = time.perf_counter()
        payload = sum(path.stat().st_size for path in fleet.checkpoint_all())
        checkpoint_ms = 1e3 * (time.perf_counter() - start)

        def recover_all():
            for shard in fleet.shards:
                shard.coordinator.recover_storage()

        recover_ms = _best_ms(recover_all, repeats=1)
        packs = []
        pack = PackedBin.pack.__func__
        PackedBin.pack = classmethod(lambda cls, *a: packs.append(1) or pack(cls, *a))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            recover_all()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            PackedBin.pack = classmethod(pack)
        shared = all(
            all(
                held.packed_bins[b] is pb
                for held in (t._tables[name] for t in stores(shard)[1:])
                for b, pb in stores(shard)[0]._tables[name].packed_bins.items()
            )
            for shard in fleet.shards
            for name in stores(shard)[0].table_names()
        )
    return (
        f"  {shards}x{replicas}: image {image_ms:6.3f} ms, install {install_ms:6.1f} ms "
        f"({len(image.bins or ())} bins, {image.next_row_id} rows); checkpoint_all "
        f"{checkpoint_ms:6.1f} ms, {payload:,} B; recover_storage {recover_ms:7.1f} ms, "
        f"{len(packs)} packs, traced heap {grown / 2**20:+.1f} MiB; replicas share "
        f"every bin: {'yes' if shared else 'no'}\n"
    )


def main() -> int:
    out = io.StringIO()
    phases, collector = PhaseTimer(), CollectorClock()
    real, stored, wall = ingest(phases, collector)
    out.write(
        f"ingest_epoch_sharded, {SHARDS} shards x {REPLICAS} replicas: "
        f"{real} real rows, {stored} stored, {wall:.3f} s "
        f"({real / wall:,.0f} real rows/s)\n\nphase split (wall clock, self time)\n"
    )
    for phase, seconds in phases.seconds.items():
        out.write(f"  {phase:<20}{seconds:8.3f} s {100 * seconds / wall:5.1f}%\n")
    rest = wall - sum(phases.seconds.values())
    out.write(f"  {'fence + rest':<20}{rest:8.3f} s {100 * rest / wall:5.1f}%\n")
    out.write(
        f"\ncyclic collector: {collector.seconds:.3f} s in "
        f"{collector.collections} collections "
        f"({100 * collector.seconds / wall:.1f}% of the wall clock, spread over "
        "the phases above)\n\nlive heap after landing (row store, tracemalloc)\n"
    )
    for shards, replicas in ((1, 1), (SHARDS, REPLICAS)):
        out.write(live_heap(shards, replicas))
    out.write("\nwhole-table moves after landing (one table; every shard's recovery)\n")
    for shards, replicas in ((1, 1), (SHARDS, REPLICAS)):
        out.write(whole_table_moves(shards, replicas))
    out.write("\n")

    profiler = cProfile.Profile()
    ingest(profiler)  # a Profile is a context manager: enable … disable
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP_N)

    path = Path(__file__).parent / "results" / "profile.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text(out.getvalue())
    print(out.getvalue())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
