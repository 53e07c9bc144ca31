"""Machine-readable benchmark pass → ``BENCH_*.json``.

This is the CI-facing counterpart of the pytest benchmarks: one
self-contained, deterministic workload per scale, condensed to a flat
metrics dict that ``check_regression.py`` can diff against a committed
baseline.  Two kinds of metrics come out:

- **tracked** — deterministic volume accounting (storage rows read per
  query, fake-tuple overhead, aggregate-tree rows per query).  These are pure
  functions of the dataset seed and the code, so any drift is a real
  behavioural change; CI fails the PR when one regresses past the
  threshold.
- **informational** — wall-clock latencies (p50/p95).  Recorded in the
  artifact for humans, never gated: shared-runner timing noise dwarfs
  any real signal at CI scale.

Usage::

    python benchmarks/report.py --bench-json BENCH_pr.json --scale ci
    python benchmarks/check_regression.py \
        --baseline benchmarks/results/baseline_ci.json \
        --candidate BENCH_pr.json --max-regression 0.25
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

SCHEMA_VERSION = 1

# Which metrics the regression gate enforces, and the good direction.
# Latencies are deliberately absent: CI timing noise is not a signal.
TRACKED = {
    "point_storage_rows_per_query": "lower",
    "range_multipoint_storage_rows_per_query": "lower",
    "fake_tuple_ratio": "lower",
    "sharded_range_participants": "lower",
    "longrange_tree_rows_per_query": "lower",
    "longrange_speedup_30d": "higher",
}

# Per-scale workload sizing.  "ci" must finish in well under a minute
# on a shared runner; "full" matches the small pytest-benchmark stack.
SCALES = {
    "ci": dict(access_points=12, devices=240, rows_per_hour=600, probes=6,
               longrange_devices=6),
    "full": dict(access_points=48, devices=1200, rows_per_hour=1200, probes=8,
                 longrange_devices=16),
}


def _build_service(scale: dict):
    from repro import GridSpec
    from repro.workloads import WifiConfig, generate_wifi_epoch

    from harness import EPOCH, EPOCH_DURATION, build_wifi_stack

    config = WifiConfig(
        access_points=scale["access_points"],
        devices=scale["devices"],
        rows_per_hour_offpeak=scale["rows_per_hour"],
        seed=41,
    )
    records = generate_wifi_epoch(
        config, EPOCH, EPOCH_DURATION, rng=random.Random(41 ^ EPOCH)
    )
    spec = GridSpec(
        dimension_sizes=(scale["access_points"], 120),
        cell_id_count=256,
        epoch_duration=EPOCH_DURATION,
    )
    _, service = build_wifi_stack(records, spec, verify=True)
    return records, service


def _ingest_metrics(scale: dict, metrics: dict[str, float]) -> None:
    """Algorithm 1 throughput.

    Wall-clock, hence informational (never gated) — but the committed
    baseline keeps the trend visible: check_regression.py prints the
    drift of ``ingest_rows_per_min_kernel`` on every PR.
    """
    from repro import GridSpec, WIFI_SCHEMA
    from repro.core.encryptor import EpochEncryptor
    from repro.workloads import WifiConfig, generate_wifi_epoch

    from harness import EPOCH, EPOCH_DURATION, MASTER_KEY

    config = WifiConfig(
        access_points=scale["access_points"],
        devices=scale["devices"],
        rows_per_hour_offpeak=scale["rows_per_hour"],
        seed=41,
    )
    records = generate_wifi_epoch(
        config, EPOCH, EPOCH_DURATION, rng=random.Random(41 ^ EPOCH)
    )
    spec = GridSpec(
        dimension_sizes=(scale["access_points"], 120),
        cell_id_count=256,
        epoch_duration=EPOCH_DURATION,
    )
    encryptor = EpochEncryptor(
        WIFI_SCHEMA, spec, MASTER_KEY, time_granularity=60, rng=random.Random(7)
    )
    start = time.perf_counter()
    encryptor.encrypt_epoch(records, EPOCH)
    rate = len(records) / (time.perf_counter() - start) * 60.0
    metrics["ingest_rows_per_min_kernel"] = round(rate, 1)


def _service_metrics(metrics: dict[str, float]) -> None:
    """The sharded front door (Exp 13 at CI scale).

    ``sharded_range_participants`` — how many shards a fleet-wide range
    query scatters to — is a pure function of the grid, the topology,
    and the routed cells, so it is tracked: drift means the planner
    started touching more (or fewer) enclaves per query.  The router
    latencies are wall-clock and informational.
    """
    import asyncio
    import tempfile

    from repro.core.queries import PointQuery, RangeQuery
    from repro.sharding.server import build_demo_fleet

    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as workdir:
        sharded, router, records = build_demo_fleet(2, workdir)
        try:
            wildcard = (tuple(sorted({r[0] for r in records})),)
            ranged = RangeQuery(
                index_values=wildcard, time_start=0, time_end=3599
            )
            _, _, participants = sharded.plan_range(ranged)
            metrics["sharded_range_participants"] = len(participants)

            async def drive():
                point_latencies = []
                for index in range(8):
                    record = records[(index * 17) % len(records)]
                    start = time.perf_counter()
                    await router.execute_point(
                        PointQuery(
                            index_values=(record[0],), timestamp=record[1]
                        )
                    )
                    point_latencies.append(time.perf_counter() - start)
                start = time.perf_counter()
                await router.execute_range(ranged)
                return point_latencies, time.perf_counter() - start

            point_latencies, range_seconds = asyncio.run(drive())
            p50, p95 = _percentiles(point_latencies)
            metrics["service_point_p50_s"] = round(p50, 6)
            metrics["service_point_p95_s"] = round(p95, 6)
            metrics["service_range_s"] = round(range_seconds, 6)
        finally:
            router.close()

    _replicated_service_metrics(metrics)


def _replicated_service_metrics(metrics: dict[str, float]) -> None:
    """The replicated front door (PR 8): 2 shards × 3 replicas.

    All informational.  A healthy replica group serves from one member,
    so ``service_replicated_range_s`` should track ``service_range_s``,
    not multiply it; ``service_replicated_failover_range_s`` re-times
    the same range after every shard lost one replica's epoch table —
    the in-shard failover cost the router never observes.
    """
    import asyncio
    import tempfile

    from repro import telemetry
    from repro.core.queries import RangeQuery
    from repro.sharding.server import build_demo_fleet

    with tempfile.TemporaryDirectory(prefix="bench-replicated-") as workdir:
        sharded, router, records = build_demo_fleet(2, workdir, replicas=3)
        try:
            wildcard = (tuple(sorted({r[0] for r in records})),)
            ranged = RangeQuery(
                index_values=wildcard, time_start=0, time_end=3599
            )

            async def timed_range():
                start = time.perf_counter()
                answer, stats = await router.execute_range(ranged)
                assert stats.missing_shards == ()
                return time.perf_counter() - start

            metrics["service_replicated_range_s"] = round(
                asyncio.run(timed_range()), 6
            )

            table = f"epoch_{sharded.ingested_epochs()[0]}"
            for shard in sharded.shards:
                shard.replicated_engine().replicas[0].drop_table(table)
            registry = telemetry.get_registry()
            before = registry.total("concealer_shard_replica_failovers_total")
            metrics["service_replicated_failover_range_s"] = round(
                asyncio.run(timed_range()), 6
            )
            failovers = (
                registry.total("concealer_shard_replica_failovers_total")
                - before
            )
            assert failovers > 0
        finally:
            router.close()


def _longrange_metrics(scale: dict, metrics: dict[str, float]) -> None:
    """Exp 14 at CI scale: the aggregate tree vs the bin path on a
    30-day epoch (DESIGN.md §17).

    ``longrange_tree_rows_per_query`` is deterministic volume
    accounting (node-cover size plus residue rows — a pure function of
    the grid and the query windows), hence tracked.  The 30-day
    speedup is wall-clock but measured as the median of *interleaved*
    per-round tree/bin ratios, so runner drift cancels; it is tracked
    because the only way it collapses is the planner or executor
    silently losing the tree path, which drags the ratio to ~1 — far
    past any threshold.
    """
    import statistics

    from repro import (
        DataProvider,
        GridSpec,
        ServiceConfig,
        ServiceProvider,
        WIFI_SCHEMA,
        telemetry,
    )
    from repro.workloads.queries import build_q1

    from harness import MASTER_KEY

    day, hour = 86_400, 3600
    duration = 30 * day
    locations = [f"ap{i}" for i in range(6)]
    devices = scale["longrange_devices"]
    spec = GridSpec(
        dimension_sizes=(8, 720), cell_id_count=1024, epoch_duration=duration
    )
    rng = random.Random(53)
    records = [
        (locations[rng.randrange(len(locations))], t, f"dev{d}")
        for t in range(0, duration, hour)
        for d in range(devices)
    ]
    provider = DataProvider(
        WIFI_SCHEMA, spec, first_epoch_id=0, master_key=MASTER_KEY,
        time_granularity=hour, rng=random.Random(7),
    )
    service = ServiceProvider(WIFI_SCHEMA, ServiceConfig(verify=True))
    provider.provision_enclave(service.enclave)
    service.ingest_epoch(provider.encrypt_epoch(records, epoch_id=0))

    registry = telemetry.get_registry()
    reads = lambda: registry.total("concealer_storage_rows_read_total")  # noqa: E731
    probes = [build_q1(loc, 0, duration - 1) for loc in locations[:3]]

    tree_seconds = bin_seconds = 0.0
    ratios = []
    tree_reads = bin_reads = 0
    queries = 0
    for _ in range(3):  # interleave rounds so machine drift cancels
        round_tree = round_bin = 0.0
        for query in probes:
            before = reads()
            start = time.perf_counter()
            tree_answer, _ = service.execute_range(query, method="tree")
            round_tree += time.perf_counter() - start
            tree_reads += reads() - before
            before = reads()
            start = time.perf_counter()
            bin_answer, _ = service.execute_range(query, method="multipoint")
            round_bin += time.perf_counter() - start
            bin_reads += reads() - before
            assert tree_answer == bin_answer
            queries += 1
        tree_seconds += round_tree
        bin_seconds += round_bin
        ratios.append(round_bin / round_tree)

    metrics["longrange_tree_rows_per_query"] = round(tree_reads / queries, 4)
    metrics["longrange_bin_rows_per_query"] = round(bin_reads / queries, 4)
    metrics["longrange_rows_reduction"] = round(
        bin_reads / max(1, tree_reads), 4
    )
    # Saturate the tracked ratio: real speedups run into the hundreds
    # with wide timing variance, but the gate's job is catching the
    # tree path silently falling back to bins (ratio ~1).  Capping at
    # 25 makes healthy runs report a stable value while a fallback
    # still craters far past any threshold.
    metrics["longrange_speedup_30d"] = round(
        min(statistics.median(ratios), 25.0), 4
    )
    metrics["longrange_tree_30d_s"] = round(tree_seconds / queries, 6)
    metrics["longrange_bin_30d_s"] = round(bin_seconds / queries, 6)


def _percentiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p95 = ordered[min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))]
    return p50, p95


def run_bench(scale_name: str = "ci") -> dict:
    """Run the workload at one scale; returns the BENCH payload."""
    if scale_name not in SCALES:
        raise SystemExit(
            f"unknown scale {scale_name!r}; choose from {sorted(SCALES)}"
        )
    scale = SCALES[scale_name]

    from repro import PointQuery, RangeQuery, telemetry
    from repro.telemetry import audit_run

    from harness import EPOCH, sample_probes

    metrics: dict[str, float] = {}

    def workload():
        records, service = _build_service(scale)
        registry = telemetry.get_registry()
        reads = lambda: registry.total("concealer_storage_rows_read_total")  # noqa: E731
        probes = sample_probes(records, scale["probes"], seed=11)
        point_queries = [
            PointQuery(index_values=(loc,), timestamp=ts) for loc, ts in probes
        ]
        ranged = RangeQuery(
            index_values=(probes[0][0],),
            time_start=EPOCH + 600,
            time_end=EPOCH + 1499,
        )

        # Point queries: latency + volume.
        latencies = []
        before = reads()
        for query in point_queries:
            start = time.perf_counter()
            service.execute_point(query)
            latencies.append(time.perf_counter() - start)
        metrics["point_storage_rows_per_query"] = (
            (reads() - before) / len(point_queries)
        )
        p50, p95 = _percentiles(latencies)
        metrics["point_p50_s"] = round(p50, 6)
        metrics["point_p95_s"] = round(p95, 6)

        # Multipoint range volume.
        before = reads()
        start = time.perf_counter()
        service.execute_range(ranged, method="multipoint")
        metrics["range_multipoint_p50_s"] = round(time.perf_counter() - start, 6)
        metrics["range_multipoint_storage_rows_per_query"] = reads() - before

        # Fake-tuple overhead of everything fetched above.
        real = registry.value("concealer_tuples_fetched_total", kind="real")
        fake = registry.value("concealer_tuples_fetched_total", kind="fake")
        fetched = real + fake
        metrics["fake_tuple_ratio"] = (
            round(fake / fetched, 6) if fetched else 0.0
        )

        # Algorithm 1 ingest throughput (informational: wall-clock).
        _ingest_metrics(scale, metrics)

        # Exp 14: the aggregate tree on a 30-day epoch.
        _longrange_metrics(scale, metrics)

        # The sharded front door (tracked participants + latencies).
        _service_metrics(metrics)

    audit_run(workload)
    return {
        "schema_version": SCHEMA_VERSION,
        "scale": scale_name,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
        "tracked": dict(TRACKED),
    }


def write_bench_json(path: str | Path, scale_name: str = "ci") -> Path:
    payload = run_bench(scale_name)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} (scale={scale_name})")
    for name, value in payload["metrics"].items():
        marker = "tracked" if name in payload["tracked"] else "info"
        print(f"  {name} = {value} [{marker}]")
    return path


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="path of the BENCH_*.json to write")
    parser.add_argument("--scale", default="ci", choices=sorted(SCALES))
    args = parser.parse_args(argv)
    write_bench_json(args.output, args.scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
