"""The server child: one fresh process per run.

``python launcher.py WORKDIR`` reads ``WORKDIR/inputs.json`` (fleet
spec, generated records, and — for ``ingest_rotate`` — the generated
requests; never the seed), builds the fleet with the program's public
API (``ShardedService.build`` → ``ingest_epoch_sharded`` →
``AsyncShardRouter`` → ``ShardServer``) and then either serves JSON
lines on a loopback port or runs the in-process write cycle.

Life-cycle of every run, so every metric exists on every workload:
launch → ingest → measured phase → SIGTERM (drain, checkpoint,
``shutdown: drained cleanly``) → when tracing, rotate the fleet key →
write ``WORKDIR/child.json`` and ``spans.json`` → exit 0.

Lines on stdout the load generator waits for: ``WARM <seconds>`` (the
heap is pre-faulted, see :func:`prewarm_heap`), ``READY <port>``,
``TRACING`` / ``UNTRACED`` (acks of SIGUSR1 / SIGUSR2: the span
wrappers are now installed / removed), ``RSS <MB>`` (answer to SIGHUP),
``CYCLE DONE`` (``ingest_rotate`` only) and the shutdown line.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import random
import re
import signal
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

from repro import WIFI_SCHEMA, DataProvider, GridSpec, telemetry
from repro.core.rotation import rotation_token
from repro.sharding import (
    AsyncShardRouter,
    ShardedConfig,
    ShardedService,
    ShardServer,
    ingest_epoch_sharded,
    rotate_sharded_keys,
)

def say(line: str) -> None:
    print(line, flush=True)


# ------------------------------------------------------------------- memory

_BALLAST: list[bytes] = []   # a live block or two per arena keeps it mapped


def prewarm_heap(megabytes: int) -> float:
    """Fault in ``megabytes`` of small-object arenas, then free the blocks.

    The sandbox's host backs guest memory lazily and takes freed pages
    back within seconds.  The first touch of a page it has not backed
    costs 10 to 80 times one it has, and which of the two a fresh page is
    depends on what ran on the machine before.  The server's heap grows by
    about 125 KB per point query (the append-only access log), so without
    this a window's speed follows the host's memory state: the same run
    reads 12 ms or 25 ms at the median.

    Filling arenas with 448-byte blocks and freeing all but every
    1,000th leaves their pools mapped, touched and free.  The program
    then allocates from them exactly as it would from fresh arenas, minus
    the page faults.  Returns the seconds spent; they are not part of
    ``setup_s``, and :func:`rss_in_use_mb` leaves the ballast out.
    """
    start = time.perf_counter()
    blocks = list(map(bytes, itertools.repeat(400, megabytes * ((1 << 20) // 448))))
    _BALLAST.extend(blocks[::1000])
    del blocks
    return time.perf_counter() - start


def rss_in_use_mb() -> float:
    """Resident set minus the allocator's unused pools (the ballast not
    yet handed out), in MB.  Once the ballast is used up this is ``VmRSS``."""
    with tempfile.TemporaryFile() as capture:
        stderr = os.dup(2)
        os.dup2(capture.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(stderr, 2)
            os.close(stderr)
        capture.seek(0)
        unused = re.search(rb"([\d,]+) unused pools \* (\d+) bytes", capture.read())
    pools, pool_bytes = (int(g.replace(b",", b"")) for g in unused.groups())
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0 - pools * pool_bytes / 2.0**20
    raise RuntimeError("no VmRSS in /proc/self/status")


class Child:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        inputs = json.loads((workdir / "inputs.json").read_text())
        self.spec = inputs["spec"]
        self.epochs = {
            int(epoch): [tuple(r) for r in records]
            for epoch, records in inputs["epochs"].items()
        }
        self.requests = inputs.get("requests", [])
        self.traced = inputs["traced"]
        self.setup_only = inputs["setup_only"]
        self.prewarm_mb = inputs["prewarm_mb"]
        self.tracer = spans.OutsideTracer()
        self.report: dict = {"ingest": [], "phases": {}}
        self.master = bytes.fromhex(self.spec["master_key"])

    # ---------------------------------------------------------------- fleet

    def build_fleet(self) -> None:
        spec = self.spec
        if self.traced:
            self.tracer.install_tallies()
        provider = DataProvider(
            WIFI_SCHEMA,
            GridSpec(
                dimension_sizes=tuple(spec["grid"]["dimension_sizes"]),
                cell_id_count=spec["grid"]["cell_id_count"],
                epoch_duration=spec["grid"]["epoch_duration"],
            ),
            first_epoch_id=spec["first_epoch_id"],
            master_key=self.master,
            bin_size=spec["bin_size"],
            time_granularity=spec["time_granularity"],
            rng=random.Random(spec["provider_rng_seed"]),
        )
        # Every ShardedConfig / ServiceConfig field at its default
        # (verify on, bin cache off, 8,192 trapdoor slots, packed bins
        # and aggregate tree on) except the fleet shape; the provider's
        # too, except the pinned bin size (workloads.MASTER_KEY).
        self.sharded = ShardedService.build(
            provider,
            ShardedConfig(shards=spec["shards"], replicas=spec["replicas"]),
            self.workdir,
            retry_rng_seed="e2e",
        )
        self.router = AsyncShardRouter(self.sharded)

    def ingest(self, epoch_id: int) -> None:
        records = self.epochs[epoch_id]
        start = time.perf_counter()
        stored = ingest_epoch_sharded(self.sharded, records, epoch_id)
        self.report["ingest"].append({
            "epoch": epoch_id,
            "real_rows": len(records),
            "stored_rows": sum(stored.values()),
            "seconds": time.perf_counter() - start,
        })

    def rotate(self) -> None:
        new_master = bytes.fromhex(self.spec["rotated_key"])
        gc.collect()   # time the rotation, not the garbage of the phase before
        start = time.perf_counter()
        rows = rotate_sharded_keys(
            self.sharded, new_master, rotation_token(self.master, new_master)
        )
        self.report["rotate"] = {"rows": rows, "seconds": time.perf_counter() - start}
        self.master = new_master

    # ----------------------------------------------------------------- modes

    async def serve(self) -> None:
        self.build_fleet()
        self.ingest(self.spec["first_epoch_id"])
        server = ShardServer(self.router, port=0)
        port = await server.start()
        server.install_signal_handlers()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(
            signal.SIGUSR1, lambda: (self.tracer.install_spans(), say("TRACING"))
        )
        loop.add_signal_handler(
            signal.SIGUSR2, lambda: (self.tracer.remove_spans(), say("UNTRACED"))
        )
        loop.add_signal_handler(signal.SIGHUP, lambda: say(f"RSS {rss_in_use_mb()}"))
        if self.setup_only:
            self.finish()   # the load generator kills a set-up-only child
        say(f"READY {port}")
        self._say_shutdown(await server.serve_until_stopped())
        if self.traced:   # rotation.rows_per_s is a per-layer metric
            self.rotate()

    async def ingest_rotate(self) -> None:
        """Land A → rotate → land B → first-touch reads → checkpoint →
        lose storage and enclaves → heal from the checkpoints → re-ask."""
        self.build_fleet()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGHUP, lambda: say(f"RSS {rss_in_use_mb()}"))
        if self.setup_only:
            self.finish()
        say("READY 0")
        await self.write_cycle()
        say("CYCLE DONE")
        await stop.wait()
        self._say_shutdown(await self.router.shutdown())

    async def write_cycle(self) -> None:
        epoch_a, epoch_b = sorted(self.epochs)
        self.ingest(epoch_a)
        self.rotate()
        self.ingest(epoch_b)

        first_touch = self.requests["first_touch"]
        half = len(first_touch) // 2 if self.traced else len(first_touch)
        answers = await self._ask(first_touch[:half])
        self.report["untraced"] = len(answers)
        if self.traced:
            self.tracer.install_spans()
            self.report["registry_before"] = telemetry.get_registry().snapshot()
            answers += await self._ask(first_touch[half:])
            self.report["registry_after"] = telemetry.get_registry().snapshot()
        self.report["first_touch"] = answers

        self.sharded.checkpoint_all()
        # A fresh ShardedService cannot re-adopt epoch packages through
        # any public call, so "restore" is the program's own re-admission
        # path: every table dropped, every enclave crashed, then heal().
        for shard in self.sharded.shards:
            for table in shard.service.engine.table_names():
                shard.service.engine.drop_table(table)
            shard.service.enclave.crash("e2e benchmark: host restart")
        start = time.perf_counter()
        actions = self.sharded.heal()
        self.report["phases"]["restore"] = time.perf_counter() - start
        self.report["restored_shards"] = sorted(
            shard for shard, action in actions.items()
            if action["storage"] and action["readmitted"]
        )
        self.report["reasked"] = await self._ask(self.requests["reasked"])

    async def _ask(self, requests: list[dict]) -> list[dict]:
        """In-process point queries through the router, one at a time."""
        out = []
        for request in requests:
            query = workloads.to_query(request)
            start = time.perf_counter()
            with telemetry.span("bench.request") as root:
                answer, stats = await self.router.execute_point(query)
            out.append({
                "ms": (time.perf_counter() - start) * 1000.0,
                "answer": answer,
                "verified": stats.merged.verified,
                "trace_id": getattr(root, "trace_id", None),
            })
        return out

    # -------------------------------------------------------------- plumbing

    @staticmethod
    def _say_shutdown(drained: bool) -> None:
        say(
            "shutdown: "
            + ("drained cleanly" if drained else "drain deadline expired")
            + ", all shards checkpointed"
        )

    def finish(self) -> None:
        report = self.report
        report["tallies"] = self.tracer.tallies
        report["missing_entry_points"] = self.tracer.missing
        report["checkpoint_bytes"] = sum(
            path.stat().st_size for path in self.workdir.glob("shard-*.ckpt")
        )
        (self.workdir / "child.json").write_text(json.dumps(report))
        (self.workdir / "spans.json").write_text(json.dumps(self.tracer.records))


def main() -> None:
    child = Child(Path(sys.argv[1]))
    say(f"WARM {prewarm_heap(child.prewarm_mb)}")
    mode = child.ingest_rotate if child.spec["workload"] == "ingest_rotate" else child.serve
    asyncio.run(mode())
    child.finish()
    sys.stdout.flush()
    os._exit(0)   # not a second spent freeing a gigabyte heap object by object


if __name__ == "__main__":
    main()
