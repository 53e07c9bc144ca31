"""``make trace-overhead`` — gate the cost of always-on tracing.

Runs one deterministic point/range workload twice over the same
ingested stack — once with the tracer disabled (baseline) and once with
it recording every span (candidate) — and writes both wall times as
``check_regression.py``-shaped JSON::

    python benchmarks/trace_overhead.py \
        --baseline-out TRACE_off.json --candidate-out TRACE_on.json
    python benchmarks/check_regression.py \
        --baseline TRACE_off.json --candidate TRACE_on.json \
        --max-regression 0.10

Shared-runner wall time drifts by tens of percent over a single run
(neighbours come and go), which would swamp a 10% gate if the two modes
were timed in separate blocks.  So the tracked metric is the **paired
ratio**: each repeat times both modes back to back, alternating which
goes first (ABBA) to cancel first-order drift, and the median of the
per-repeat on/off ratios is compared against the definitional baseline
of 1.0.  ``--max-regression 0.10`` then reads literally as "tracing may
cost at most 10% wall time" — the PR 7 budget for leaving it on in
production.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

SCHEMA_VERSION = 1
METRIC = "traced_over_untraced_wall_ratio"


def build_stack():
    from repro import GridSpec
    from repro.workloads import WifiConfig, generate_wifi_epoch

    from harness import EPOCH, EPOCH_DURATION, build_wifi_stack

    config = WifiConfig(
        access_points=8, devices=120, rows_per_hour_offpeak=400, seed=23
    )
    records = generate_wifi_epoch(
        config, EPOCH, EPOCH_DURATION, rng=random.Random(23 ^ EPOCH)
    )
    spec = GridSpec(
        dimension_sizes=(8, 60), cell_id_count=64,
        epoch_duration=EPOCH_DURATION,
    )
    provider, service = build_wifi_stack(records, spec, verify=True)
    return service, records


def make_queries(records, points: int, ranges: int):
    from repro.core.queries import PointQuery, RangeQuery

    locations = sorted({r[0] for r in records})
    epoch_start = min(r[1] for r in records)
    queries = []
    for index in range(points):
        record = records[(index * 17) % len(records)]
        queries.append(
            PointQuery(index_values=(record[0],), timestamp=record[1])
        )
    for index in range(ranges):
        location = locations[index % len(locations)]
        queries.append(
            RangeQuery(
                index_values=(location,),
                time_start=epoch_start,
                time_end=epoch_start + 1799,
            )
        )
    return queries


def run_workload(service, queries) -> float:
    from repro.core.queries import PointQuery

    start = time.perf_counter()
    for query in queries:
        if isinstance(query, PointQuery):
            service.execute_point(query)
        else:
            service.execute_range(query, method="ebpb")
    return time.perf_counter() - start


def measure(repeats: int, points: int, ranges: int) -> tuple[float, list]:
    """Median paired on/off ratio plus the per-repeat (on, off) times."""
    import statistics

    from repro import telemetry
    from repro.telemetry import Tracer

    def timed(enabled: bool) -> float:
        # A small ring: eviction is the steady state in production, so
        # the measured cost includes it (drops are expected and
        # deliberately uncounted here — no registry in scope).
        with telemetry.scoped_tracer(Tracer(enabled=enabled, capacity=8)):
            return run_workload(service, queries)

    service, records = build_stack()
    queries = make_queries(records, points, ranges)
    # One untimed warm-up pass per mode: bin cache, epoch contexts and
    # bytecode warm-up would otherwise all be charged to the baseline.
    timed(False)
    timed(True)

    pairs: list[tuple[float, float]] = []
    for repeat in range(repeats):
        if repeat % 2 == 0:  # ABBA: alternate which mode eats the drift
            on = timed(True)
            off = timed(False)
        else:
            off = timed(False)
            on = timed(True)
        pairs.append((on, off))
    ratio = statistics.median(on / off for on, off in pairs)
    return ratio, pairs


def emit(path: str, ratio: float, mode: str, queries: int) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "queries": queries,
        "metrics": {METRIC: round(ratio, 6)},
        "tracked": {METRIC: "lower"},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-out", default="TRACE_off.json")
    parser.add_argument("--candidate-out", default="TRACE_on.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--ranges", type=int, default=10)
    args = parser.parse_args(argv)

    ratio, pairs = measure(args.repeats, args.points, args.ranges)
    total = args.points + args.ranges
    emit(args.baseline_out, 1.0, "tracing-off", total)
    emit(args.candidate_out, ratio, "tracing-on", total)
    print(
        f"trace-overhead: {total} queries x {args.repeats} paired repeats: "
        f"median on/off ratio {ratio:.4f} ({(ratio - 1.0) * 100.0:+.1f}%)"
    )
    for on, off in pairs:
        print(f"  on={on:.4f}s off={off:.4f}s ratio={on / off:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
