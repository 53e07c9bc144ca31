"""Exp 11 (beyond the paper) — batched execution.

The paper evaluates one query at a time.  Analyst workloads arrive in
bursts that keep hitting the same hot bins (a dashboard refreshing a
handful of locations, a sweep over one time slice), so this experiment
measures what the per-batch overlay buys:

- **batched vs sequential** — the same overlapping workload run through
  ``execute_batch`` (each shared bin fetched once, by the first member
  that names it) and as a sequential loop; the acceptance bar is ≥2×
  fewer storage row reads at ≥4× bin overlap, with byte-identical
  answers.
- **mixed batch** — points and multipoint ranges share the overlay
  while an eBPB member runs direct.

Everything measured here is host-observable volume accounting (reads,
bins, dedup factors) — public-size by Theorem 4.1, which is exactly why
batching whole-bin fetches is safe to deploy.
"""

import pytest

from repro import PointQuery, telemetry
from repro.workloads.queries import build_q1

from harness import (
    EPOCH,
    SMALL_SPEC,
    build_wifi_stack,
    paper_row,
    sample_probes,
    save_result,
)

READS = "concealer_storage_rows_read_total"

# 48 queries over 8 distinct probes: every bin the workload touches is
# referenced ≥6× — comfortably past the issue's ≥4× overlap bar.
PROBE_COUNT = 8
REPEATS = 6


@pytest.fixture(scope="module")
def batching_stack(wifi_small_records):
    """A verified service over the small WiFi epoch."""
    return build_wifi_stack(wifi_small_records, SMALL_SPEC, verify=True)


def overlapping_queries(records, probes=PROBE_COUNT, repeats=REPEATS):
    chosen = sample_probes(records, probes, seed=11)
    return [
        PointQuery(index_values=(location,), timestamp=timestamp)
        for _ in range(repeats)
        for location, timestamp in chosen
    ]


def counter_delta(fn, *names):
    """Run ``fn``; return its result and how far each named counter
    moved while it ran."""
    registry = telemetry.get_registry()
    before = [registry.total(name) for name in names]
    result = fn()
    return result, *(
        registry.total(name) - start for name, start in zip(names, before)
    )


def test_exp11_batched_vs_sequential(benchmark, batching_stack, wifi_small_records):
    """The headline number: reads per query, batched vs sequential."""
    _, service = batching_stack
    queries = overlapping_queries(wifi_small_records)

    sequential_answers, sequential_reads = counter_delta(
        lambda: [service.execute_point(q)[0] for q in queries], READS
    )

    def batched():
        return [a for a, _ in service.execute_batch(queries)]

    batched_answers = benchmark.pedantic(batched, rounds=3, warmup_rounds=1, iterations=1)
    _, batched_reads, references, unique_bins = counter_delta(
        batched, READS,
        "concealer_batch_bin_references_total",
        "concealer_batch_unique_bins_total",
    )
    dedup_factor = references / max(1, unique_bins)

    assert batched_answers == sequential_answers
    assert batched_reads * 2 <= sequential_reads, (
        f"batched={batched_reads} sequential={sequential_reads}"
    )

    mean = benchmark.stats.stats.mean
    print(paper_row(
        "exp11", "batched-vs-sequential",
        queries=len(queries),
        dedup_factor=round(dedup_factor, 2),
        sequential_reads=sequential_reads,
        batched_reads=batched_reads,
        read_reduction=round(sequential_reads / max(1, batched_reads), 2),
        batch_mean_s=round(mean, 4),
    ))
    save_result("exp11_batching", {
        "batched_vs_sequential": {
            "queries": len(queries),
            "bin_overlap_factor": round(dedup_factor, 4),
            "sequential_rows_read": sequential_reads,
            "batched_rows_read": batched_reads,
            "read_reduction": round(sequential_reads / max(1, batched_reads), 4),
            "batch_measured_mean_s": mean,
        }
    })


def test_exp11_mixed_batch(benchmark, batching_stack, wifi_small_records):
    """Points + multipoint ranges share the overlay; eBPB runs direct."""
    _, service = batching_stack
    location = sorted({r[0] for r in wifi_small_records})[0]
    probes = sample_probes(wifi_small_records, 4, seed=13)
    queries = [
        PointQuery(index_values=(loc,), timestamp=ts) for loc, ts in probes
    ] + [
        (build_q1(location, EPOCH + 600, EPOCH + 1199), "multipoint"),
        (build_q1(location, EPOCH + 600, EPOCH + 1199), "ebpb"),
    ]

    def run():
        return [a for a, _ in service.execute_batch(queries)]

    answers = benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
    solo = [service.execute_point(q)[0] for q in queries[:4]]
    solo.append(service.execute_range(queries[4][0], method="multipoint")[0])
    solo.append(service.execute_range(queries[5][0], method="ebpb")[0])
    assert answers == solo

    mean = benchmark.stats.stats.mean
    print(paper_row("exp11", "mixed-batch", batch_mean_s=round(mean, 4)))
    save_result("exp11_batching", {
        "mixed_batch": {
            "queries": len(queries),
            "batch_measured_mean_s": mean,
        }
    })
