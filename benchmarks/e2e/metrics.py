"""Metric definitions: from windows, span dumps and child reports to numbers.

Names and units live in ``BENCHMARK.json`` (the one list); this module
computes the values.  README.md is the glossary.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import spans

SLOW_FACTOR = 10.0   # a "stall" is a round trip slower than 10x p50


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --------------------------------------------------------------- end to end

BATCHES = 24


def throughput(window) -> float:
    """Median completion rate of the window's ``BATCHES`` equal batches of
    consecutive completions (each batch: completions / the time they took).

    The sandbox's speed changes by up to 2x for seconds at a time, and a
    collector pause over the grown heap stops the server for most of a
    second; either moves the whole-window rate by its full weight and the
    median batch not at all.  ``door.stall_share`` and
    ``door.drift_ratio`` report what the median leaves out.
    """
    ends = sorted(s[1] for s in window.samples)
    size = len(ends) // BATCHES
    if size < 2:   # a smoke-test window
        return len(ends) / window.wall_s
    edges = [window.start] + ends
    return statistics.median(
        size / (edges[i + size] - edges[i]) for i in range(0, len(ends) - size + 1, size)
    )


def end_to_end(window, setups: list[float], reports: list[dict], rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run.

    ``reports`` are the child reports of every set-up of the run; the
    last one is the measured child's.
    """
    latencies = window.latencies_ms()
    ingest_rates = [
        sum(i["real_rows"] for i in r["ingest"]) / sum(i["seconds"] for i in r["ingest"])
        for r in reports
        if r["ingest"]
    ]
    return {
        "setup_s": statistics.median(setups),
        "throughput_qps": throughput(window),
        "latency_p50_ms": percentile(latencies, 0.50),
        "ingest_rows_per_s": statistics.median(ingest_rates),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------- per layer


def counter_total(snapshot: dict, family: str) -> float:
    return sum(s["value"] for s in snapshot.get(family, {}).get("samples", ()))


def layer_breakdown(samples: list[tuple], records: list) -> dict:
    """Join client round trips with the server-side span trees.

    Returns per-layer total self seconds, the request count, the worst
    relative gap between a request's layer sum and its round trip, and
    the number of storage-read spans.
    """
    trees = spans.request_trees(r for r in records if r[2] is not None)
    totals = dict.fromkeys(("door",) + spans.LAYERS, 0.0)
    worst_gap = 0.0
    matched = 0
    for sent, received, request, *_ in samples:
        if request not in trees:
            continue
        roots, children = trees[request]
        matched += 1
        round_trip = received - sent
        selfs = spans.self_times(roots, children)
        selfs["door"] = max(0.0, round_trip - sum(r[5] - r[4] for r in roots))
        for layer, seconds in selfs.items():
            totals[layer] += seconds
        worst_gap = max(worst_gap, abs(sum(selfs.values()) - round_trip) / round_trip)
    return {
        "totals": totals,
        "requests": matched,
        "unmatched": len(samples) - matched,
        "worst_gap": worst_gap,
        "storage_calls": sum(1 for r in records if r[3].startswith("storage.read:")),
    }


def read_path(breakdown: dict, before: dict, after: dict, attempted: int, samples) -> dict:
    """Self times, rates and counts of the traced segment."""
    totals, n = breakdown["totals"], max(1, breakdown["requests"])

    def delta(family: str) -> float:
        return counter_total(after, family) - counter_total(before, family)

    def rate(amount: float, layer: str) -> float:
        return amount / totals[layer] if totals[layer] > 0 else 0.0

    out = {}
    for layer, seconds in totals.items():
        suffix = "read_ms" if layer == "storage.read" else "self_ms"
        out[f"{layer.split('.')[0]}.{suffix}"] = seconds / n * 1000.0
    fetched = delta("concealer_rows_fetched_total")
    out["fetch.rows_per_s"] = rate(fetched, "fetch")
    out["verify.rows_per_s"] = rate(fetched, "verify")
    out["filter.rows_per_s"] = rate(fetched, "filter")
    out["decrypt.rows_per_s"] = rate(delta("concealer_rows_decrypted_total"), "decrypt")
    asked = max(1, attempted)
    out["fetch.rows_per_query"] = fetched / asked
    out["fetch.bins_per_query"] = delta("concealer_bins_fetched_total") / asked
    out["fetch.trapdoors_per_query"] = delta("concealer_trapdoors_total") / asked
    out["storage.calls_per_query"] = breakdown["storage_calls"] / asked
    out["router.dispatches_per_query"] = delta("concealer_shard_dispatch_total") / asked
    out["replication.failovers_per_query"] = (
        delta("concealer_shard_replica_failovers_total") / asked
    )
    hits = delta("concealer_trapdoor_table_hits_total")
    misses = delta("concealer_trapdoor_table_misses_total")
    out["trapdoor.table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["door.request_bytes"] = statistics.fmean(s[3] for s in samples) if samples else 0.0
    out["door.response_bytes"] = statistics.fmean(s[4] for s in samples) if samples else 0.0
    return out


def door_tail(window, clients: int) -> dict:
    """Tail, stall and drift of the untraced segment."""
    latencies = window.latencies_ms()
    if not latencies:
        return dict.fromkeys(
            ("door.latency_p99_ms", "door.latency_p95_ms", "door.stall_ms_max",
             "door.stall_share", "door.drift_ratio"), 0.0)
    p50 = percentile(latencies, 0.50)
    slow = sum(ms for ms in latencies if ms > SLOW_FACTOR * p50)
    start = min(s[0] for s in window.samples)
    third = window.wall_s / 3.0
    first = sum(1 for s in window.samples if s[1] - start <= third)
    last = sum(1 for s in window.samples if s[1] - start > 2 * third)
    return {
        "door.latency_p99_ms": percentile(latencies, 0.99),
        "door.latency_p95_ms": percentile(latencies, 0.95),
        "door.stall_ms_max": max(latencies),
        "door.stall_share": slow / 1000.0 / (window.wall_s * clients),
        "door.drift_ratio": last / first if first else 0.0,
    }


def write_path(report: dict, user_bytes: int) -> dict:
    """Write-path metrics from the child's tallies and phase timers."""
    tallies = report["tallies"]

    def calls(name: str) -> int:
        return tallies.get(name, [0, 0.0])[0]

    def busy(name: str) -> float:
        return tallies.get(name, [0, 0.0])[1]

    real = sum(i["real_rows"] for i in report["ingest"])
    stored = sum(i["stored_rows"] for i in report["ingest"])
    replica_writes = sum(
        calls(f"storage.write.{m}")
        for m in ("insert", "store_packed_bins", "store_agg_tree")
    )
    group_writes = sum(
        calls(f"replication.write.{m}")
        for m in ("insert", "store_packed_bins", "store_agg_tree")
    )
    top_inserts = calls("replication.write.insert") or calls("storage.write.insert")
    rotate = report.get("rotate", {"rows": 0, "seconds": 0.0})
    checkpoints = calls("checkpoint.checkpoint_all")
    return {
        "encryptor.rows_per_s": real / busy("encryptor") if busy("encryptor") else 0.0,
        "encryptor.fake_row_ratio": stored / real - 1.0 if real else 0.0,
        "land.rows_per_s": stored / busy("land") if busy("land") else 0.0,
        "storage.write_ms_per_krow": (
            busy("storage.write") * 1000.0 / (calls("storage.write.insert") / 1000.0)
            if calls("storage.write.insert") else 0.0
        ),
        "storage.insert_calls_per_row": top_inserts / stored if stored else 0.0,
        "replication.write_amplification": (
            replica_writes / group_writes if group_writes else 1.0
        ),
        "rotation.rows_per_s": (
            rotate["rows"] / rotate["seconds"] if rotate["seconds"] else 0.0
        ),
        "checkpoint.write_s": busy("checkpoint") / checkpoints if checkpoints else 0.0,
        "checkpoint.restore_s": report["phases"].get("restore", 0.0),
        "checkpoint.bytes_per_user_byte": report["checkpoint_bytes"] / user_bytes,
    }


# ------------------------------------------------------------------ kernels


def _best_rate(amount: float, fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return amount / statistics.median(times)


def kernel_pass(rows: int) -> dict:
    """Direct calls of the crypto kernels on fixed seeded inputs."""
    from repro.crypto.kernels import (
        DetKernel, batch_chain_extend, batch_keystream, batch_prf,
    )

    rng = random.Random(2021)
    key = rng.randbytes(32)
    inputs = [rng.randbytes(24) for _ in range(rows)]
    payloads = [rng.randbytes(192) for _ in range(rows)]
    nonces = [(rng.randbytes(16), 192) for _ in range(rows)]
    digests = [rng.randbytes(32) for _ in range(rows // 8)]
    chains = [payloads[i * 8:(i + 1) * 8] for i in range(rows // 8)]
    det = DetKernel(key)
    ciphertexts = det.encrypt_many(payloads)
    return {
        "crypto.prf_mops": _best_rate(rows / 1e6, lambda: batch_prf(key, inputs)),
        "crypto.keystream_mb_per_s": _best_rate(
            rows * 192 / 1e6, lambda: batch_keystream(key, nonces)
        ),
        "crypto.det_encrypt_krows_per_s": _best_rate(
            rows / 1e3, lambda: det.encrypt_many(payloads)
        ),
        "crypto.det_decrypt_krows_per_s": _best_rate(
            rows / 1e3, lambda: det.decrypt_many(ciphertexts)
        ),
        "crypto.chain_extend_krows_per_s": _best_rate(
            rows / 1e3, lambda: batch_chain_extend(digests, chains, counted=False)
        ),
    }


# ---------------------------------------------------------------- code size

SIZED_PACKAGES = (
    "core", "batching", "storage", "replication", "sharding",
    "crypto", "enclave", "telemetry", "faults",
)


def _code_lines(path: Path) -> int:
    return sum(
        1 for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def code_size(src: Path) -> dict:
    """Non-blank, non-comment lines under ``src/repro`` (ROADMAP aim 2)."""
    package = src / "repro"
    out = {"src.lines_total": sum(_code_lines(p) for p in package.rglob("*.py"))}
    for name in SIZED_PACKAGES:
        out[f"src.lines.{name}"] = sum(
            _code_lines(p) for p in (package / name).rglob("*.py")
        )
    return out


# ------------------------------------------------------------- share report

GROUPS = {
    "bin stages": spans.BIN_STAGES,
    "door+router": ("door", "router"),
    "service+executor": ("service", "executor"),
    "replication": ("replication",),
    "treenode": ("treenode",),
}


def shares(breakdown: dict) -> dict:
    """Each layer's and group's share of the mean round trip."""
    totals = breakdown["totals"]
    whole = sum(totals.values()) or 1.0
    layer_share = {layer: seconds / whole for layer, seconds in totals.items()}
    group_share = {
        group: sum(layer_share[m] for m in members) for group, members in GROUPS.items()
    }
    return {"layers": layer_share, "groups": group_share}
