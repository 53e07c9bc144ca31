"""``make profile-read`` — where a read's time goes, bin path and router.

The read-side sibling of ``make profile``, in three sections, all written
to stdout and ``results/profile_read.txt``:

* **Verified point queries.**  The repo benchmark's ``point_bins`` fleet
  shape (1×1, |b| = 512, every ``ServiceConfig`` default, so verify on)
  built in-process from public APIs, then 200 point queries at ingested
  (location, time) pairs, twice: unprofiled, with wrappers installed
  from here around the parts of STEP 4's verification — by position
  (a whole bin), by request (an eBPB or winSecRange slot request), or by
  decrypting and grouping the index keys — and the stages beside it, so
  the wall-clock split sums to the run, with how many verified batches
  took each path; then under cProfile, top-30.
* **10-minute ranges, per method.**  The ``range_scatter`` fleet shape
  (2×3) and request shapes, 60 multipoint, 60 eBPB and 60 winSecRange
  ranges, each split into trapdoor derivation, index lookup, slot runs,
  sidecar read (whole bins, or slot runs for eBPB and winSecRange), the
  index keys derived (the index memo's digests on first use, and a run
  read's partial fake ranges), the index check, pack, verify (by
  position, by request or by grouping), filter and decrypt, with the
  same path counts — self time, so a replica group's per-attempt
  verification counts as verify, not read.
* **Whole-epoch ranges through the router.**  The ``longrange_tree``
  fleet shape (4×1) and request stream (whole-epoch ``auto``
  COUNT/SUM/MIN/MAX, so one tree node per shard), sent one at a time
  through ``AsyncShardRouter`` on one core (as the benchmark pins its
  server child): per query, the plan, the shard dispatch
  window (from the first shard starting to the last one finishing),
  the tree-node decode inside it, telemetry (opening and closing spans,
  metric lookups and updates, wherever they run), and what is left —
  pool hops, asyncio and the merge.  Each row is self time: the others
  exclude the telemetry inside them.  Shards run concurrently, so a
  phase is the union of its intervals, not their sum.  Then the same stream again from two
  concurrent clients, the benchmark's closed loop, where a thread hop
  also queues behind the other client's work: wall clock only.
"""

import asyncio
import cProfile
import functools
import importlib
import io
import os
import pstats
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from profile_ingest import TOP_N, PhaseTimer, fleet_and_records  # noqa: E402

QUERIES = 200
_CONTEXT = ("repro.core.context", "EpochContext")
_ENGINE = ("repro.storage.engine", "StorageEngine")
# The two ``_verify_positional`` rows are the aliases :class:`VerifyPaths`
# routes it through (a whole bin, or an eBPB or winSecRange slot request), so
# it must be entered before the timer.
VERIFY_PHASES = [
    ("verify: by position", *_CONTEXT, "_verify_bin"),
    ("verify: by request", *_CONTEXT, "_verify_request"),
    ("verify: grouping (decrypt, runs)", *_CONTEXT, "_group_by_cell"),
    ("verify: grouping (chains, tags)", *_CONTEXT, "_check_cells"),
    ("verify: shell", *_CONTEXT, "verify_packed"),
]
PHASES = [
    *VERIFY_PHASES,
    ("fetch", *_CONTEXT, "fetch_packed"),
    ("filter", *_CONTEXT, "match_packed"),
    ("decrypt", *_CONTEXT, "decrypt_packed_records"),
]

RANGE_QUERIES, RANGE_MINUTES = 60, 10
# The two sidecar-read rows are the aliases :class:`ReadPaths` routes
# ``fetch_packed_bin`` through (a whole bin, or slot runs).
RANGE_PHASES = [
    ("trapdoor derivation", *_CONTEXT, "trapdoors_for_cell_ids"),
    ("index lookup", *_ENGINE, "lookup_many"),
    ("slot runs", *_CONTEXT, "slot_runs"),
    ("sidecar read: whole bins", *_ENGINE, "_read_bin"),
    ("sidecar read: slot runs", *_ENGINE, "_read_runs"),
    ("index keys derived", *_CONTEXT, "_index_digest"),
    ("index check", *_CONTEXT, "_index_matches"),
    ("pack", *_CONTEXT, "pack_rows"),
    *VERIFY_PHASES,
    ("filter", *_CONTEXT, "match_packed"),
    ("decrypt", *_CONTEXT, "decrypt_packed_records"),
]

RANGES, RANGE_WARMUP = 400, 50
_SHARDED = ("repro.sharding.service", "ShardedService")
ROUTER_PHASES = [
    ("plan", *_SHARDED, "plan_range"),
    ("shard dispatch", *_SHARDED, "_dispatch"),
    ("tree decode", *_CONTEXT, "decode_tree_nodes"),
]
# Opening and closing spans, looking up metric families and children,
# and updating them: the calls every instrumented site makes.  There are
# ~400 a query and each timer costs ~1 us, mostly inside the telemetry
# row, so that row (which prints its calls a query) is an upper bound.
_METRICS = "repro.telemetry.metrics"
TELEMETRY_PHASES = [
    ("telemetry", "repro.telemetry", None, name)
    for name in ("span", "counter", "gauge", "histogram")
] + [
    ("telemetry", "repro.telemetry.spans", "_SpanScope", "__enter__"),
    ("telemetry", "repro.telemetry.spans", "_SpanScope", "__exit__"),
    ("telemetry", _METRICS, "MetricsRegistry", "_family"),
    ("telemetry", _METRICS, "MetricFamily", "labels"),
    ("telemetry", _METRICS, "MetricFamily", "default"),
] + [
    ("telemetry", _METRICS, owner, name)
    for owner, names in (
        ("Counter", ("inc",)),
        ("Gauge", ("set", "inc", "dec", "set_max")),
        ("Histogram", ("observe",)),
    )
    for name in names
]


class IntervalTimer:
    """Wall-clock intervals per phase, from any thread (``list.append``
    is atomic); :meth:`seconds` is the length of their union."""

    def __init__(self, phases):
        self.phases = phases
        self.intervals: dict[str, list] = {phase: [] for phase, *_ in phases}
        self._patched: list[tuple] = []

    def merged(self, phase: str) -> list[tuple[float, float]]:
        """The phase's intervals as a sorted union of disjoint ones."""
        out: list[list[float]] = []
        for start, end in sorted(self.intervals[phase]):
            if out and start <= out[-1][1]:
                out[-1][1] = max(out[-1][1], end)
            else:
                out.append([start, end])
        return [(start, end) for start, end in out]

    def overlap(self, phase: str, other: str) -> float:
        """Seconds in both phases' unions (one sweep over both)."""
        total, theirs, first = 0.0, self.merged(other), 0
        for start, end in self.merged(phase):
            while first < len(theirs) and theirs[first][1] <= start:
                first += 1
            at = first
            while at < len(theirs) and theirs[at][0] < end:
                total += min(end, theirs[at][1]) - max(start, theirs[at][0])
                at += 1
        return total

    def _wrap(self, phase: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals[phase].append((start, time.perf_counter()))

        return wrapper

    def seconds(self, phase: str) -> float:
        return sum(end - start for start, end in self.merged(phase))

    def __enter__(self):
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


class VerifyPaths:
    """How many verified batches took each path: accepted by position (a
    whole bin), by request (an eBPB or winSecRange slot request), or handed
    to the decrypt-and-group path.  Routes ``_verify_positional`` through
    one alias per kind, so a timer entered inside can split the two."""

    def __enter__(self):
        from repro.core.binning import Bin
        from repro.core.context import EpochContext

        self.by_position = self.by_request = self.grouping = 0
        self._originals = positional, grouping = (
            EpochContext._verify_positional, EpochContext._group_by_cell,
        )

        def route(context, packed_bins, requested, *args):
            by_request = bool(requested) and not isinstance(requested[0], Bin)
            verify = context._verify_request if by_request else context._verify_bin
            real = verify(packed_bins, requested, *args)
            if real is not None:
                self.by_request += by_request
                self.by_position += not by_request
            return real

        def count_grouping(context, *args):
            self.grouping += 1
            return grouping(context, *args)

        EpochContext._verify_bin = EpochContext._verify_request = positional
        EpochContext._verify_positional = route
        EpochContext._group_by_cell = count_grouping
        return self

    def __exit__(self, *exc):
        from repro.core.context import EpochContext

        EpochContext._verify_positional, EpochContext._group_by_cell = self._originals
        del EpochContext._verify_bin, EpochContext._verify_request

    def line(self) -> str:
        return (
            f"  verified batches: {self.by_position} by position, "
            f"{self.by_request} by request, {self.grouping} by grouping\n"
        )


class ReadPaths:
    """Routes ``StorageEngine.fetch_packed_bin`` through one alias per
    unit read — a whole bin, or slot runs — so a timer entered inside
    can split the two."""

    def __enter__(self):
        from repro.storage.engine import StorageEngine

        self._original = read = StorageEngine.fetch_packed_bin

        def route(engine, table, runs):
            # One run from slot 0: a bin read whole (a run read of one
            # run from a bin's first slot would count here too: rare).
            whole = len(runs) == 1 and runs[0][1] == 0
            return (engine._read_bin if whole else engine._read_runs)(table, runs)

        StorageEngine._read_bin = StorageEngine._read_runs = read
        StorageEngine.fetch_packed_bin = route
        return self

    def __exit__(self, *exc):
        from repro.storage.engine import StorageEngine

        StorageEngine.fetch_packed_bin = self._original
        del StorageEngine._read_bin, StorageEngine._read_runs


def write_split(out, phases: "PhaseTimer", wall: float, queries: int) -> None:
    rest = wall - sum(phases.seconds.values())
    for phase, spent in (*phases.seconds.items(), ("plan, merge, rest", rest)):
        share = f"{1000 * spent / queries:7.3f} ms/query {100 * spent / wall:5.1f}%"
        out.write(f"  {phase:<34}{share}\n")


def point_section(out: io.StringIO) -> None:
    from repro.core.queries import Aggregate, PointQuery
    from repro.sharding import ingest_epoch_sharded

    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards=1, replicas=1)
        ingest_epoch_sharded(fleet, records, epoch)
        distinct = {"aggregate": Aggregate.DISTINCT_COUNT, "target": "observation"}
        asked = enumerate(random.Random(41).choices(records, k=QUERIES))
        queries = [  # as the benchmark: every other one decrypts payloads
            PointQuery(index_values=(place,), timestamp=at, **(distinct if i % 2 else {}))
            for i, (place, at, _) in asked
        ]
        fleet.execute_point(queries[0])  # builds the epoch context
        with VerifyPaths() as paths, PhaseTimer(PHASES) as phases:
            start = time.perf_counter()
            for query in queries:
                fleet.execute_point(query)
            wall = time.perf_counter() - start
        with cProfile.Profile() as profiler:
            for query in queries:
                fleet.execute_point(query)
    out.write(
        f"{QUERIES} verified point queries, 1x1 fleet, |b| = 512: {wall:.3f} s "
        f"({1000 * wall / QUERIES:.2f} ms/query)\n\n"
        "split (wall clock, self time)\n"
    )
    write_split(out, phases, wall, QUERIES)
    out.write(paths.line())
    pstats.Stats(profiler, stream=out).strip_dirs().sort_stats("cumulative").print_stats(TOP_N)


def range_section(out: io.StringIO) -> None:
    from repro.core.queries import Aggregate, RangeQuery
    from repro.sharding import ingest_epoch_sharded

    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards=2, replicas=3)
        ingest_epoch_sharded(fleet, records, epoch)
        buckets = fleet.provider.grid_spec.epoch_duration // 60
        rng = random.Random(41)
        aggregates = (Aggregate.COUNT, Aggregate.SUM, Aggregate.MAX)
        queries = []
        for i in range(RANGE_QUERIES + 5):  # as the benchmark's range_scatter
            start = epoch + rng.randrange(buckets - RANGE_MINUTES + 1) * 60
            queries.append(RangeQuery(
                index_values=(records[rng.randrange(len(records))][0],),
                time_start=start, time_end=start + RANGE_MINUTES * 60 - 1,
                aggregate=aggregates[i % 3], target=None if i % 3 == 0 else "time",
            ))
        for method in ("multipoint", "ebpb", "winsecrange"):
            for query in queries[:5]:  # builds contexts and the range budgets
                fleet.execute_range(query, method=method)
            with VerifyPaths() as paths, ReadPaths(), PhaseTimer(RANGE_PHASES) as phases:
                start = time.perf_counter()
                for query in queries[5:]:
                    fleet.execute_range(query, method=method)
                wall = time.perf_counter() - start
            out.write(
                f"\n{RANGE_QUERIES} {method} ranges of {RANGE_MINUTES} minutes, 2x3 "
                f"fleet: {wall:.3f} s ({1000 * wall / RANGE_QUERIES:.2f} ms/query)\n\n"
                "split (wall clock, self time)\n"
            )
            write_split(out, phases, wall, RANGE_QUERIES)
            out.write(paths.line())


def router_section(out: io.StringIO) -> None:
    from repro.core.queries import Aggregate, RangeQuery
    from repro.sharding import AsyncShardRouter, ingest_epoch_sharded

    aggregates = (Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX)
    with tempfile.TemporaryDirectory() as workdir:
        fleet, records, epoch = fleet_and_records(workdir, shards=4, replicas=1)
        ingest_epoch_sharded(fleet, records, epoch)
        duration = fleet.provider.grid_spec.epoch_duration
        rng = random.Random(41)
        queries = [  # as the benchmark's longrange_tree stream
            RangeQuery(
                index_values=(records[rng.randrange(len(records))][0],),
                time_start=epoch, time_end=epoch + duration - 1,
                aggregate=aggregates[i % 4], target=None if i % 4 == 0 else "time",
            )
            for i in range(RANGE_WARMUP + RANGES)
        ]
        router = AsyncShardRouter(fleet)

        async def ask(batch):
            for query in batch:
                await router.execute_range(query, method="auto")

        async def measure():
            stream = queries[RANGE_WARMUP:]
            await ask(queries[:RANGE_WARMUP])
            with IntervalTimer(ROUTER_PHASES + TELEMETRY_PHASES) as timer:
                start = time.perf_counter()
                await ask(stream)
                wall = time.perf_counter() - start
            # Two clients in a closed loop, as the benchmark drives it:
            # each sub-query that hops now queues behind the other's.
            start = time.perf_counter()
            await asyncio.gather(ask(stream[0::2]), ask(stream[1::2]))
            return timer, wall, time.perf_counter() - start

        # One core, as the benchmark's server child: the router's pool
        # threads (started by the first query) inherit it.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            timer, wall, paired = asyncio.run(measure())
        finally:
            router.close()
            os.sched_setaffinity(0, cpus)
    # Self time: each phase less the telemetry inside it.
    own = {
        phase: timer.seconds(phase) - timer.overlap(phase, "telemetry")
        for phase, *_ in ROUTER_PHASES
    }
    telemetry_s = timer.seconds("telemetry")
    calls = len(timer.intervals["telemetry"]) // RANGES
    out.write(
        f"\n{RANGES} whole-epoch auto ranges through AsyncShardRouter, 4x1 fleet, "
        f"one at a time: {wall:.3f} s ({1000 * wall / RANGES:.2f} ms/query)\n"
        f"the same stream from two concurrent clients: {paired:.3f} s "
        f"({1000 * paired / RANGES:.2f} ms/query, {RANGES / paired:.0f} queries/s)\n\n"
        "split (wall clock, self time; a phase is the union of its intervals on "
        "any thread)\n"
    )
    split = (
        ("plan", own["plan"]),
        ("shard dispatch (less decode)", own["shard dispatch"] - own["tree decode"]),
        ("tree decode", own["tree decode"]),
        (f"telemetry ({calls} timed calls)", telemetry_s),
        ("hops, asyncio, rest", wall - sum(own[p] for p in ("plan", "shard dispatch"))
         - telemetry_s),
    )
    for phase, spent in split:
        share = f"{1000 * spent / RANGES:7.3f} ms/query {100 * spent / wall:5.1f}%"
        out.write(f"  {phase:<30}{share}\n")


def main() -> None:
    out = io.StringIO()
    point_section(out)
    range_section(out)
    router_section(out)
    path = Path(__file__).parent / "results" / "profile_read.txt"
    path.write_text(out.getvalue())
    print(out.getvalue(), f"wrote {path}", sep="\n")


if __name__ == "__main__":
    main()
