"""The repo benchmark: four workloads through the real TCP door.

    python3 benchmarks/e2e/run.py                      # every workload, 3 repeats
    python3 benchmarks/e2e/run.py --workload point_bins --seed 7 --seconds 22 --trace 0
    python3 benchmarks/e2e/run.py --workload point_bins --traced

Every run starts a fresh server child (``launcher.py``), drives it over
loopback TCP from this one load-generator process, checks every answer
against ``repro.baselines.cleartext`` and prints every metric by name
with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import random
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing ({SRC}/repro)")
sys.path[:0] = [str(SRC), str(HERE)]

import loadgen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
WORK = ROOT / ".bench_work"
RUN_CEILING_S = 170.0   # a hang becomes a failed run, not a blown time cap


# ------------------------------------------------------------------ one run


class Run:
    def __init__(self, args, name: str):
        self.workload = workloads.WORKLOADS[name]
        self.scale = workloads.SCALES[args.scale]
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.corrupt = args.corrupt_oracle
        self.server_cpus = args.server_cpus
        self.workdir = WORK / f"{name}-{args.seed}-{random.getrandbits(32):08x}"
        self.children = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.share_report: dict | None = None
        self.notes: list[str] = []

    # ---------------------------------------------------------------- inputs

    def prepare(self) -> None:
        wl, scale, seed = self.workload, self.scale, self.seed
        epoch_ids = [workloads.EPOCH_A]
        if wl.name == "ingest_rotate":
            epoch_ids.append(workloads.EPOCH_A + workloads.EPOCH_DURATION)
        self.epochs = {e: workloads.generate_records(scale, seed, e) for e in epoch_ids}
        self.oracle = workloads.Oracle(self.epochs)
        self.inputs = {
            "spec": workloads.fleet_spec(wl, scale, seed),
            "epochs": {str(e): records for e, records in self.epochs.items()},
            "traced": self.traced,
            "setup_only": False,
        }
        if wl.name == "ingest_rotate":
            stream = workloads.first_touch_stream(
                *self.epochs.values(), seed, scale.first_touch
            )
            self.inputs["requests"] = {
                "first_touch": stream, "reasked": stream[: scale.reasked],
            }
            if self.corrupt:
                self.oracle.corrupt(stream[-1])
            return
        records = self.epochs[workloads.EPOCH_A]
        self.warmup = max(workloads.CLIENTS, wl.warmup // scale.ops_divisor)
        self.traced_ops = max(workloads.CLIENTS, wl.traced_ops // scale.ops_divisor)
        self.rss_ops = max(workloads.CLIENTS, wl.rss_ops // scale.ops_divisor)
        capacity = (
            self.warmup + self.traced_ops + self.rss_ops
            + int(wl.max_qps * self.seconds)
        )
        self.streams = [
            workloads.client_stream(
                wl.name, records, seed, client, capacity // workloads.CLIENTS + 1
            )
            for client in range(workloads.CLIENTS)
        ]
        if self.corrupt:
            self.oracle.corrupt(self.streams[0][0])

    def child(self, setup_only: bool = False) -> loadgen.ServerChild:
        self.children += 1
        prewarm_mb = self.scale.setup_prewarm_mb
        if not setup_only:   # room for the heap the measured phase grows
            prewarm_mb = max(prewarm_mb, self.workload.prewarm_mb // self.scale.ops_divisor)
        inputs = dict(self.inputs, setup_only=setup_only, prewarm_mb=prewarm_mb)
        return loadgen.ServerChild(
            SRC, self.workdir / f"child-{self.children}", inputs, self.server_cpus
        )

    # ----------------------------------------------------------------- phases

    async def setups(self) -> tuple[list[float], list[dict]]:
        """The throw-away set-ups whose median steadies ``setup_s``."""
        times, reports = [], []
        repeats = 1 if self.traced else self.scale.setup_repeats
        for _ in range(repeats - 1):
            child = self.child(setup_only=True)
            try:
                await child.launch()
            finally:
                await child.kill()
            times.append(child.setup_s)
            reports.append(child.report())
        return times, reports

    async def execute(self) -> dict:
        self.prepare()
        setup_times, reports = await self.setups()
        child = self.child()
        try:
            await child.launch()
            setup_times.append(child.setup_s)
            if self.workload.name == "ingest_rotate":
                await child.expect("CYCLE DONE")
                child.ask_rss()
                measured, rss = None, await child.rss_mb()
            else:
                measured = await self.drive(child)
                rss = measured.get("rss_mb")   # untraced runs only
            self.problems += await child.stop()
            report = child.report()
        finally:
            await child.kill()
        if measured is None:
            measured = self.check_cycle(report)
        reports.append(report)
        for name in report["missing_entry_points"]:
            self.notes.append(f"absent entry point {name}")
        if not self.traced:
            return metrics.end_to_end(measured["window"], setup_times, reports, rss)
        return self.per_layer(measured, report, child.span_dump())

    async def drive(self, child) -> dict:
        """Warm-up and the measured window.  A traced run puts two
        single-client segments before a halved window, one untraced and
        one traced; both are op-bounded, so everything the child has
        served when the traced segment ends, and with it every count,
        repeats exactly for a seed.

        With one request in flight nothing queues, so the traced
        segment's layer self times are service times (which is what
        predicts closed-loop throughput) instead of mostly lock and GIL
        waits lumped into the door and the router.
        """
        loop = loadgen.ClosedLoop(child.port, self.streams, self.oracle)
        await loop.connect()
        # The generator holds the records, the oracle and the streams: a
        # full collection here would stall both clients mid-window.
        gc.collect()
        gc.disable()
        try:
            warm = await loop.run(RUN_CEILING_S, max_ops=self.warmup)
            out = {"warmup": warm}
            if not self.traced:
                # The child's heap grows with every query it has served,
                # so its size is taken at a fixed op count, not at the
                # end of a window that holds more ops on a faster day.
                window = out["window"] = await loop.run(
                    self.seconds, at_op=(self.rss_ops, child.ask_rss)
                )
                short = self.rss_ops - window.attempted
                if short > 0:
                    out["rss_tail"] = await loop.run(
                        RUN_CEILING_S, max_ops=short + short % workloads.CLIENTS
                    )
                    child.ask_rss()
                out["rss_mb"] = await child.rss_mb()
            else:
                out["single"] = await loop.run(
                    RUN_CEILING_S, max_ops=self.traced_ops // 2, clients=1
                )
                await child.start_tracing()
                out["before"] = (await child.ops_request({"op": "metrics"}))["metrics"]
                out["traced"] = await loop.run(
                    RUN_CEILING_S, max_ops=self.traced_ops, clients=1
                )
                out["after"] = (await child.ops_request({"op": "metrics"}))["metrics"]
                await child.stop_tracing()
                out["window"] = await loop.run(self.seconds / 2.0)
        finally:
            gc.enable()
            await loop.close()
        for window in out.values():
            if isinstance(window, loadgen.Window):
                self.attempted += window.attempted
                self.problems += window.errors
        return out

    def check_cycle(self, report: dict) -> dict:
        """Oracle and restore checks of the in-process write cycle."""
        requests = self.inputs["requests"]
        for asked, answers in (
            (requests["first_touch"], report["first_touch"]),
            (requests["reasked"], report["reasked"]),
        ):
            self.attempted += len(asked)
            for request, got in zip(asked, answers):
                response = {"ok": True, "verified": got["verified"], "answer": got["answer"]}
                error = workloads.response_error(response, self.oracle.expected(request))
                if error is not None:
                    self.problems.append(f"{json.dumps(request)}: {error}")
        before = [a["answer"] for a in report["first_touch"][: len(report["reasked"])]]
        if [a["answer"] for a in report["reasked"]] != before:
            self.problems.append("post-restore answers differ from pre-checkpoint ones")
        if report["restored_shards"] != list(range(self.workload.shards)):
            self.problems.append(
                f"restore re-admitted shards {report['restored_shards']} only"
            )

        def window(answers):
            out, clock = loadgen.Window(), 0.0
            for a in answers:
                sent, clock = clock, clock + a["ms"] / 1000.0
                out.samples.append((sent, clock, a["trace_id"], 0, 0))
            out.wall_s = clock
            return out

        untraced = window(report["first_touch"][: report["untraced"]])
        return {
            "warmup": untraced,
            "window": untraced,
            "single": untraced,
            "traced": window(report["first_touch"][report["untraced"]:]),
            "before": report.get("registry_before", {}),
            "after": report.get("registry_after", {}),
        }

    # -------------------------------------------------------------- per layer

    def per_layer(self, measured: dict, report: dict, records: list) -> dict:
        traced, untraced = measured["traced"], measured["window"]
        breakdown = metrics.layer_breakdown(traced.samples, records)
        out = metrics.read_path(
            breakdown, measured["before"], measured["after"],
            traced.attempted or len(traced.samples), traced.samples,
        )
        out.update(metrics.door_tail(untraced, workloads.CLIENTS))
        out["trace.overhead_ratio"] = metrics.percentile(
            traced.latencies_ms(), 0.5
        ) / metrics.percentile(measured["single"].latencies_ms(), 0.5)
        user_bytes = sum(
            len(json.dumps(r, separators=(",", ":")))
            for records in self.epochs.values() for r in records
        )
        out.update(metrics.write_path(report, user_bytes))
        out["first_read.p50_ms"] = metrics.percentile(
            measured["warmup"].latencies_ms(), 0.5
        )
        out.update(metrics.kernel_pass(self.scale.kernel_rows))
        out.update(metrics.code_size(SRC))
        self.share_report = dict(metrics.shares(breakdown), **{
            "requests": breakdown["requests"],
            "unmatched": breakdown["unmatched"],
            "worst_gap": breakdown["worst_gap"],
        })
        return out


# ------------------------------------------------------------------- output


def check_shares(by_workload: dict[str, dict]) -> list[str]:
    """The separation the workloads were chosen for; returns violations."""
    failures = []
    wanted = {
        "point_bins": "bin stages",
        "range_scatter": "bin stages",
        "longrange_tree": "door+router",
    }
    for name, report in by_workload.items():
        groups = report["groups"]
        largest = max(groups, key=groups.get)
        if largest != wanted.get(name, largest):
            failures.append(f"{name}: largest group is {largest!r}, not {wanted[name]!r}")
        if report["worst_gap"] > 0.02:
            failures.append(
                f"{name}: layer self times miss a round trip by "
                f"{report['worst_gap']:.1%} (> 2%)"
            )
    if {"longrange_tree", "point_bins"} <= by_workload.keys():
        tree = by_workload["longrange_tree"]["groups"]["bin stages"]
        point = by_workload["point_bins"]["groups"]["bin stages"]
        if tree >= point / 4.0:
            failures.append(
                f"bin-stage share on longrange_tree ({tree:.1%}) is not under a "
                f"quarter of point_bins' ({point:.1%})"
            )
    return failures


def print_shares(name: str, report: dict) -> None:
    print(f"  share of the mean round trip ({report['requests']} traced requests, "
          f"{report['unmatched']} unmatched, worst per-request gap "
          f"{report['worst_gap']:.2%}):")
    for layer, share in report["layers"].items():
        print(f"    {layer:<14}{share:7.1%}")
    for group, share in report["groups"].items():
        print(f"    [{group}]".ljust(24) + f"{share:7.1%}")


def print_metrics(values: dict) -> None:
    for name, value in values.items():
        print(f"  {name:<36}{value:>16.4f} {UNITS[name]}")


def result_line(correct: bool, attempted: int, failed: int, values: dict) -> str:
    """The last line of output; keys are ``metric`` or ``workload/metric``."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": v, "unit": UNITS[n.rpartition("/")[2]]}
            for n, v in values.items()
        },
    })


async def run_one(args, name: str):
    run = Run(args, name)
    try:
        values = await asyncio.wait_for(run.execute(), RUN_CEILING_S)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    wanted = CONTRACT["per_layer"] if run.traced else CONTRACT["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise loadgen.BenchmarkFailure(
            f"metric names drifted from BENCHMARK.json: "
            f"{sorted(set(values) ^ {m['name'] for m in wanted})}"
        )
    return run, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--repeats", type=int, help="fresh-process runs per workload")
    parser.add_argument("--out", type=Path, help="also write the result object here")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="dry run: corrupt one expected answer; must exit non-zero")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    args.server_cpus = loadgen.split_cpus()
    repeats = args.repeats or (1 if args.workload else 3)

    attempted = failed = 0
    summary: dict = {}
    share_reports: dict = {}
    for name in names:
        runs = []
        for repeat in range(repeats):
            run, values = asyncio.run(run_one(args, name))
            attempted += run.attempted
            failed += len(run.problems)
            runs.append(values)
            print(f"{name}: seed {args.seed}, {args.seconds:g} s, scale {args.scale}, "
                  f"{'traced' if run.traced else 'untraced'}, run {repeat + 1}/{repeats}")
            print_metrics(values)
            for note in run.notes:
                print(f"  warning: {note}", file=sys.stderr)
            for problem in run.problems[:10]:
                print(f"  FAILED: {problem}", file=sys.stderr)
            if run.share_report is not None:
                share_reports[name] = run.share_report
                print_shares(name, run.share_report)
        if repeats > 1:
            print(f"{name}: median [q1, q3] over n={repeats} fresh-process runs")
            for metric in runs[0]:
                column = [r[metric] for r in runs]
                q1, _, q3 = statistics.quantiles(column, n=4)
                print(f"  {metric:<36}{statistics.median(column):>16.4f} "
                      f"[{q1:.4f}, {q3:.4f}] {UNITS[metric]}")
        for metric in runs[0]:
            key = metric if len(names) == 1 else f"{name}/{metric}"
            summary[key] = statistics.median(r[metric] for r in runs)

    separation = check_shares(share_reports)
    for failure in separation:
        print(f"SEPARATION CHECK FAILED: {failure}", file=sys.stderr)
    correct = failed == 0 and not separation
    print(f"error_rate: {failed}/{attempted}")
    line = result_line(correct, max(1, attempted), failed, summary)
    if args.out:
        args.out.write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (loadgen.BenchmarkFailure, asyncio.TimeoutError) as failure:
        sys.exit(f"run.py: {failure!r}")
