"""``python -m repro --serve`` — the sharded fleet behind a TCP door.

A deliberately tiny JSON-lines protocol (one request object per line,
one response object per line) so load generators, the service bench,
and ``nc`` can all drive the fleet without a client library:

Requests::

    {"op": "point", "index_values": ["ap1"], "timestamp": 120}
    {"op": "range", "index_values": [["ap0", "ap1"]],
     "time_start": 0, "time_end": 1800,
     "aggregate": "count", "method": "ebpb"}
    {"op": "health"}
    {"op": "heal"}

plus the read-only **ops plane** (PR 7):

    {"op": "metrics", "format": "json" | "prom"}
    {"op": "traces", "limit": 16}       # assembled cross-shard trees
    {"op": "trace", "trace_id": "..."}  # one assembled tree
    {"op": "slo"}                       # objectives, burn rates, alerts

Query requests may carry ``"traceparent": "00-<trace>-<span>-01"``; the
server joins the client's trace and every query response carries the
``trace_id`` it ran under, so a client can fetch the assembled tree for
exactly the query it just saw time out.  Each shard buffers its spans
in its *own* tracer (the disconnected subtrees the ops plane merges) —
that is the same wire/assembly machinery a genuinely multi-process
deployment needs, exercised in one process.

Responses carry ``ok``; query responses add ``answer``, ``partial``,
``verified_shards`` / ``missing_shards`` (the QueryStats shard
accounting), and failures carry the *typed* error name — a
``ShardUnavailable`` on the wire is distinguishable from a verification
failure, exactly like in process.

Lifecycle: SIGTERM / SIGINT stop the accept loop, **drain** in-flight
queries under a deadline, checkpoint every shard, and exit 0 — the
graceful-shutdown contract the systemd/K8s style supervisors assume.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal

from repro import telemetry
from repro.core.queries import Aggregate, PointQuery, RangeQuery
from repro.exceptions import ConcealerError, TelemetryError
from repro.sharding.results import PartialResult
from repro.sharding.router import AsyncShardRouter
from repro.telemetry import tracing
from repro.telemetry.slo import SLOMonitor


# The longest request line the door reads (asyncio's default limit).
LINE_LIMIT = 2**16


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line: ``b""`` at end of stream, ``None`` for a
    line over :data:`LINE_LIMIT`.  An over-long line is read off and
    dropped through its newline, so the next request is answered."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as eof:
        return eof.partial
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await reader.readuntil(b"\n")
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)  # all before the newline
            continue
        except asyncio.IncompleteReadError:
            pass  # the stream ended inside the line; the next read sees it
        return None


def _parse_index_values(raw) -> tuple:
    """JSON slots → query slots (lists become wildcard tuples)."""
    return tuple(
        tuple(slot) if isinstance(slot, list) else slot for slot in raw
    )


def attach_ops_plane(router: AsyncShardRouter, trace_capacity: int = 256):
    """Wire the fleet for observation: per-shard span buffers + SLO.

    Each shard gets its own :class:`~repro.telemetry.spans.Tracer`
    (leaving any already-assigned buffer alone) and the router gets an
    :class:`SLOMonitor` on the fleet clock.  Returns the monitor.
    """
    sharded = router.sharded
    for shard in sharded.shards:
        if shard.tracer is None:
            shard.tracer = telemetry.Tracer(
                clock=sharded.clock, capacity=trace_capacity
            )
    if router.slo is None:
        router.slo = SLOMonitor(clock=sharded.clock)
    return router.slo


def fleet_tracers(router: AsyncShardRouter) -> dict:
    """Every span buffer the fleet writes into, by component name."""
    tracers = {"router": telemetry.get_tracer()}
    for shard in router.sharded.shards:
        if shard.tracer is not None:
            tracers[f"shard-{shard.shard_id}"] = shard.tracer
    return tracers


def assemble_fleet_traces(router: AsyncShardRouter) -> tuple[list, dict]:
    """Merge all buffers into whole trees + per-buffer drop counts.

    The shard tracers hold *local roots* (spans whose parent lives in
    the router's buffer); :func:`tracing.assemble` grafts them back
    under their parents by span id.
    """
    roots: list = []
    dropped: dict = {}
    for component, tracer in fleet_tracers(router).items():
        roots.extend(tracer.traces())
        dropped[component] = tracer.dropped
    return tracing.assemble(roots), dropped


def _query_response(answer, stats) -> dict:
    response = {
        "ok": True,
        "partial": isinstance(answer, PartialResult),
        "verified_shards": list(stats.verified_shards),
        "missing_shards": list(stats.missing_shards),
        "verified": stats.merged.verified,
    }
    if isinstance(answer, PartialResult):
        response["answer"] = answer.answer
        response["served_shards"] = list(answer.served_shards)
        response["errors"] = dict(answer.errors)
    else:
        response["answer"] = answer
    return response


class ShardServer:
    """Asyncio JSON-lines front end over an :class:`AsyncShardRouter`."""

    def __init__(
        self,
        router: AsyncShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_seconds: float = 10.0,
        trace_capacity: int = 256,
    ):
        self.router = router
        self.host = host
        self.port = port
        self.drain_seconds = drain_seconds
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        # Ops plane: each shard buffers spans in its own tracer (the
        # disconnected subtrees a multi-process fleet would ship home),
        # and the router records request outcomes into an SLO monitor
        # on the fleet's injectable clock.
        self.slo = attach_ops_plane(router, trace_capacity=trace_capacity)

    def _assembled_traces(self) -> tuple[list, dict]:
        return assemble_fleet_traces(self.router)

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def request_stop(self) -> None:
        """Signal-handler entry point: begin graceful shutdown."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_stop)

    async def serve_until_stopped(self) -> bool:
        """Accept until a stop is requested, then drain and checkpoint.

        Returns the drain verdict (True = all in-flight work finished
        before the deadline).  Callers exit 0 either way — shutdown
        completed and state was checkpointed; the verdict is logged so
        an operator can tell a clean drain from a deadline expiry.
        """
        await self._stop.wait()
        # Stop accepting before draining: a connection racing shutdown
        # gets a RouterFenced response, never a hung socket.
        self._server.close()
        await self._server.wait_closed()
        return await self.router.shutdown(self.drain_seconds)

    # ------------------------------------------------------------- connections

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    response = {
                        "ok": False,
                        "error": "BadRequest",
                        "message": f"request line over {LINE_LIMIT} bytes",
                    }
                elif not line:
                    break
                else:
                    response = await self._handle_request(line)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_request(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                return {"ok": False, "error": "BadRequest",
                        "message": "a request is a JSON object, not "
                                   f"{type(request).__name__}"}
            operation = request.get("op")
            if operation in ("point", "range"):
                return await self._handle_query(operation, request)
            if operation == "metrics":
                fmt = request.get("format", "json")
                if fmt == "prom":
                    return {
                        "ok": True,
                        "format": "prom",
                        "text": telemetry.get_registry().to_prometheus(),
                    }
                if fmt != "json":
                    return {"ok": False, "error": "BadRequest",
                            "message": f"unknown metrics format {fmt!r}"}
                return {
                    "ok": True,
                    "format": "json",
                    "metrics": telemetry.get_registry().snapshot(),
                }
            if operation == "traces":
                limit = int(request.get("limit", 16))
                if limit < 0:
                    return {"ok": False, "error": "BadRequest",
                            "message": f"negative traces limit {limit}"}
                roots, dropped = self._assembled_traces()
                newest = roots[-limit:] if limit else []
                return {
                    "ok": True,
                    "traces": [tracing.span_to_dict(root) for root in newest],
                    "assembled": len(roots),
                    "dropped": dropped,
                }
            if operation == "trace":
                trace_id = request.get("trace_id", "")
                roots, _dropped = self._assembled_traces()
                matches = [
                    root for root in roots if root.trace_id == trace_id
                ]
                if not matches:
                    return {"ok": False, "error": "TraceNotFound",
                            "message": f"no buffered trace {trace_id!r}"}
                return {
                    "ok": True,
                    "trace_id": trace_id,
                    "roots": [tracing.span_to_dict(root) for root in matches],
                }
            if operation == "slo":
                return {"ok": True, "slo": self.slo.snapshot()}
            if operation == "health":
                # Structured per-shard causes (satellite of PR 8): the
                # old single-string reason masked secondary causes — a
                # crashed enclave hid two quarantined replicas.  The
                # `status` field keeps the old string contract;
                # everything else is additive.  Read-only: built from
                # non-mutating breaker/quarantine state so polling
                # health can never perturb a breaker's half-open probe.
                sharded = self.router.sharded
                shard_health = {}
                for shard in sharded.shards:
                    detail = shard.isolation_detail()
                    detail["status"] = (
                        "healthy"
                        if detail["primary"] == "healthy"
                        else detail["primary"]
                    )
                    detail["replica_breakers"] = [
                        breaker.state
                        for breaker in (
                            shard.replicated_engine().breakers
                            if shard.replicated_engine() is not None
                            else []
                        )
                    ]
                    shard_health[shard.shard_id] = detail
                return {
                    "ok": True,
                    "shards": shard_health,
                    "inflight": self.router.inflight,
                    "epochs": sharded.ingested_epochs(),
                }
            if operation == "heal":
                return {"ok": True, "actions": await self.router.heal()}
            return {"ok": False, "error": "BadRequest",
                    "message": f"unknown op {operation!r}"}
        except ConcealerError as error:
            return {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as error:
            return {
                "ok": False,
                "error": "BadRequest",
                "message": f"{type(error).__name__}: {error}",
            }

    async def _handle_query(self, operation: str, request: dict) -> dict:
        """Run a point/range op, joining the client's trace if offered.

        The ``server.request`` span is the server-side root: a client
        traceparent makes it a child of the caller's span; without one
        it starts a fresh trace.  Either way its trace id rides back on
        the response so the client can fetch the assembled tree.
        """
        remote = None
        traceparent = request.get("traceparent")
        if traceparent is not None:
            try:
                remote = tracing.SpanContext.parse(traceparent)
            except TelemetryError:
                return {"ok": False, "error": "BadRequest",
                        "message": f"bad traceparent {traceparent!r}"}
        trace_id = None
        try:
            with tracing.activate(remote):
                with telemetry.span("server.request", op=operation) as srv:
                    trace_id = getattr(srv, "trace_id", None)
                    if operation == "point":
                        query = PointQuery(
                            index_values=_parse_index_values(
                                request["index_values"]
                            ),
                            timestamp=int(request["timestamp"]),
                            aggregate=Aggregate(
                                request.get("aggregate", "count")
                            ),
                            target=request.get("target"),
                            k=int(request.get("k", 1)),
                        )
                        answer, stats = await self.router.execute_point(query)
                    else:
                        query = RangeQuery(
                            index_values=_parse_index_values(
                                request["index_values"]
                            ),
                            time_start=int(request["time_start"]),
                            time_end=int(request["time_end"]),
                            aggregate=Aggregate(
                                request.get("aggregate", "count")
                            ),
                            target=request.get("target"),
                            k=int(request.get("k", 1)),
                        )
                        answer, stats = await self.router.execute_range(
                            query, method=request.get("method", "ebpb")
                        )
            response = _query_response(answer, stats)
        except ConcealerError as error:
            response = {
                "ok": False,
                "error": type(error).__name__,
                "message": str(error),
            }
        if trace_id is not None:
            response["trace_id"] = trace_id
        return response


def build_demo_fleet(
    shards: int, workdir, seed: int = 99, hedge_delay=None, replicas: int = 1
):
    """A provisioned, ingested fleet + router for --serve and the bench.

    One WiFi epoch (same generator as the demo) lands on ``shards``
    shards via the two-phase coordinator; with ``replicas > 1`` every
    shard fronts its own replica group.  The caller owns teardown.
    """
    import random

    from repro import WIFI_SCHEMA, DataProvider, GridSpec
    from repro.sharding.coordinator import ingest_epoch_sharded
    from repro.sharding.service import ShardedConfig, ShardedService
    from repro.workloads import WifiConfig, generate_wifi_epoch

    config = WifiConfig(access_points=16, devices=80, seed=seed)
    records = generate_wifi_epoch(config, epoch_start=0, epoch_duration=3600)
    spec = GridSpec(
        dimension_sizes=(16, 30), cell_id_count=128, epoch_duration=3600
    )
    provider = DataProvider(
        WIFI_SCHEMA, spec, first_epoch_id=0,
        time_granularity=60, rng=random.Random(seed),
    )
    sharded = ShardedService.build(
        provider,
        ShardedConfig(shards=shards, replicas=replicas),
        workdir,
        retry_rng_seed=f"serve-{seed}",
    )
    ingest_epoch_sharded(sharded, records, epoch_id=0)
    router = AsyncShardRouter(sharded, hedge_delay=hedge_delay)
    return sharded, router, records


async def serve(
    shards: int,
    port: int,
    workdir,
    drain_seconds: float = 10.0,
    replicas: int = 1,
) -> int:
    """The ``--serve`` entry point; returns a process exit code."""
    sharded, router, records = build_demo_fleet(
        shards, workdir, replicas=replicas
    )
    server = ShardServer(router, port=port, drain_seconds=drain_seconds)
    bound = await server.start()
    server.install_signal_handlers()
    replica_note = (
        f" x {replicas} replica(s)" if replicas > 1 else ""
    )
    print(
        f"serving {len(records)} records across {shards} shard(s)"
        f"{replica_note} on 127.0.0.1:{bound} — JSON lines; SIGTERM "
        "drains and checkpoints",
        flush=True,
    )
    drained = await server.serve_until_stopped()
    print(
        "shutdown: "
        + ("drained cleanly" if drained else "drain deadline expired")
        + ", all shards checkpointed",
        flush=True,
    )
    return 0
