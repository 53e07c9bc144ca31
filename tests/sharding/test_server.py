"""The JSON-lines TCP front end and its graceful-shutdown contract."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

from repro import telemetry
from repro.core.service import RANGE_METHODS
from repro.sharding.router import AsyncShardRouter
from repro.sharding.server import ShardServer, build_demo_fleet
from repro.telemetry import tracing
from repro.telemetry.tracing import span_from_dict, stage_timings
from tests.sharding.conftest import make_fleet


async def _rpc(reader, writer, request: dict) -> dict:
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def run(coroutine):
    return asyncio.run(coroutine)


class TestProtocol:
    def test_point_range_health_and_errors_over_the_wire(self, tmp_path):
        async def scenario():
            sharded, router, records = build_demo_fleet(2, tmp_path)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            location, timestamp, _ = records[0]
            truth = sum(
                1 for r in records if r[0] == location and r[1] == timestamp
            )
            point_request = {"op": "point", "index_values": [location],
                             "timestamp": timestamp}
            point = await _rpc(reader, writer, point_request)
            assert point["ok"] and point["answer"] == truth
            assert point["verified"] and not point["partial"]

            locations = sorted({r[0] for r in records})
            range_request = {"op": "range", "index_values": [locations],
                             "time_start": 0, "time_end": 1800}
            ranged = await _rpc(reader, writer, range_request)
            assert ranged["ok"]
            assert ranged["answer"] == sum(1 for r in records if r[1] <= 1800)
            assert ranged["verified_shards"] == [0, 1]

            health = await _rpc(reader, writer, {"op": "health"})
            assert health["ok"] and health["epochs"] == [0]
            # Structured per-shard detail: every cause visible at once,
            # with `status` keeping the old one-string summary.
            for detail in health["shards"].values():
                assert detail["status"] == "healthy"
                assert detail["primary"] == "healthy"
                assert not detail["crashed"]
                assert detail["replicas_quarantined"] == 0
                assert detail["replica_breakers"] == []  # unreplicated

            bad = await _rpc(reader, writer, {"op": "frobnicate"})
            assert not bad["ok"] and bad["error"] == "BadRequest"
            malformed = await _rpc(
                reader, writer, {"op": "point", "index_values": [location]}
            )
            assert not malformed["ok"] and malformed["error"] == "BadRequest"
            # Valid JSON that is not an object: typed answer, and the
            # connection stays open for the next request.
            for not_an_object in ([1], "x", 7, None):
                answer = await _rpc(reader, writer, not_an_object)
                assert not answer["ok"] and answer["error"] == "BadRequest"
            assert (await _rpc(reader, writer, {"op": "health"}))["ok"]
            # An unknown target fails while planning: past the breaker
            # threshold, no shard was dispatched to or isolated.
            registry = telemetry.get_registry()
            dispatched = registry.total("concealer_shard_dispatch_total")
            for _ in range(3):
                for request in (
                    {"op": "point", "index_values": [location],
                     "timestamp": timestamp},
                    {"op": "range", "index_values": [locations],
                     "time_start": 0, "time_end": 1800},
                ):
                    answer = await _rpc(
                        reader, writer,
                        {**request, "aggregate": "max", "target": "nope"},
                    )
                    assert not answer["ok"]
                    assert answer["error"] == "QueryError"
            assert registry.total("concealer_shard_dispatch_total") == dispatched
            health = await _rpc(reader, writer, {"op": "health"})
            assert all(
                not detail["breaker_open"] and detail["status"] == "healthy"
                for detail in health["shards"].values()
            )
            assert (await _rpc(reader, writer, point_request))["answer"] == truth
            again = await _rpc(reader, writer, range_request)
            assert again["answer"] == ranged["answer"]
            assert not again["partial"]

            writer.close()
            server.request_stop()
            assert await serve_task is True

        run(scenario())

    def test_an_over_long_line_gets_a_typed_answer_and_keeps_the_connection(
        self, tmp_path
    ):
        async def scenario():
            _, sharded, _ = make_fleet(tmp_path)
            server = ShardServer(AsyncShardRouter(sharded), drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            # Sent in two writes, so the door usually overruns its limit
            # before the newline has arrived and must read on to it.
            writer.write(b'{"op": "health", "pad": "' + b"x" * 66_000)
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(b"x" * 4_000 + b'"}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert not answer["ok"] and answer["error"] == "BadRequest"
            health = await _rpc(reader, writer, {"op": "health"})
            assert health["ok"] and health["epochs"] == [0]

            writer.close()
            server.request_stop()
            assert await serve_task is True

        run(scenario())

    def test_non_finite_numbers_get_a_typed_answer_and_keep_the_connection(
        self, tmp_path
    ):
        async def scenario():
            _, sharded, _ = make_fleet(tmp_path)
            server = ShardServer(AsyncShardRouter(sharded), drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            point = '"op": "point", "index_values": ["ap0"], "timestamp": 0'
            ranged = ('"op": "range", "index_values": [["ap0"]], '
                      '"time_start": 0, "time_end": 59')
            lines = [
                '{"op": "point", "index_values": ["ap0"], "timestamp": 1e400}',
                '{"op": "point", "index_values": ["ap0"], "timestamp": Infinity}',
                '{%s, "k": -Infinity}' % point,
                '{"op": "range", "index_values": [["ap0"]], '
                '"time_start": 1e400, "time_end": 59}',
                '{"op": "range", "index_values": [["ap0"]], '
                '"time_start": 0, "time_end": Infinity}',
                '{%s, "k": 1e400}' % ranged,
                '{"op": "traces", "limit": 1e400}',
                '{"op": "traces", "limit": NaN}',
            ]
            for line in lines:
                writer.write(line.encode() + b"\n")
                await writer.drain()
                answer = json.loads(await reader.readline())
                assert not answer["ok"] and answer["error"] == "BadRequest", line
                health = await _rpc(reader, writer, {"op": "health"})
                assert health["ok"]
                assert all(
                    not detail["breaker_open"] and detail["status"] == "healthy"
                    for detail in health["shards"].values()
                )

            writer.close()
            server.request_stop()
            assert await serve_task is True

        run(scenario())

    def test_an_empty_wildcard_slot_is_a_query_error_for_every_method(
        self, tmp_path
    ):
        async def scenario():
            _, sharded, _ = make_fleet(tmp_path)
            server = ShardServer(AsyncShardRouter(sharded), drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            registry = telemetry.get_registry()
            dispatched = registry.total("concealer_shard_dispatch_total")
            for method in RANGE_METHODS:
                answer = await _rpc(reader, writer, {
                    "op": "range", "index_values": [[]], "time_start": 0,
                    "time_end": 59, "method": method,
                })
                assert not answer["ok"] and answer["error"] == "QueryError"
            assert registry.total("concealer_shard_dispatch_total") == dispatched
            health = await _rpc(reader, writer, {"op": "health"})
            assert all(
                not detail["breaker_open"] and detail["status"] == "healthy"
                for detail in health["shards"].values()
            )

            writer.close()
            server.request_stop()
            assert await serve_task is True

        run(scenario())

    def test_partial_results_and_heal_are_first_class_on_the_wire(
        self, tmp_path
    ):
        async def scenario():
            sharded, router, records = build_demo_fleet(2, tmp_path)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            sharded.shards[1].service.enclave.crash()
            locations = sorted({r[0] for r in records})
            request = {"op": "range", "index_values": [locations],
                       "time_start": 0, "time_end": 3599}
            partial = await _rpc(reader, writer, request)
            assert partial["ok"] and partial["partial"]
            assert partial["missing_shards"] == [1]
            assert partial["served_shards"] == [0]
            assert partial["errors"] == {"1": "ShardUnavailable"}

            healed = await _rpc(reader, writer, {"op": "heal"})
            assert healed["ok"]
            assert healed["actions"]["1"]["readmitted"]

            full = await _rpc(reader, writer, request)
            assert full["ok"] and not full["partial"]
            assert full["answer"] == len(records)

            writer.close()
            server.request_stop()
            await serve_task

        run(scenario())

    def test_queries_racing_shutdown_get_typed_rejections(self, tmp_path):
        async def scenario():
            _, sharded, _ = make_fleet(tmp_path)
            router = AsyncShardRouter(sharded)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            server.request_stop()
            await serve_task  # accept loop closed, router drained

            # The pre-existing connection stays readable until close;
            # its queries now fail typed rather than hanging.
            response = await _rpc(
                reader, writer,
                {"op": "point", "index_values": ["ap0"], "timestamp": 0},
            )
            assert not response["ok"]
            assert response["error"] == "RouterFenced"
            writer.close()

        run(scenario())


class TestOpsPlane:
    """The read-only admin endpoint: traces, metrics, SLO, health."""

    @pytest.fixture(autouse=True)
    def hermetic_telemetry(self):
        # The router records into the *ambient* tracer; in a full-suite
        # run that buffer carries (and has dropped) spans from every
        # earlier test.  Scope a fresh tracer so dropped-count and
        # buffer-content assertions see only this test's traffic.
        with telemetry.scoped_tracer():
            yield

    def test_two_shard_range_query_yields_one_assembled_trace_tree(
        self, tmp_path
    ):
        # The PR 7 acceptance check: one range query under --serve,
        # fanned over both shards' thread pools, must come back from
        # the admin endpoint as a SINGLE tree — router and both shard
        # subtrees grafted by parent_id — with per-stage timings for
        # all six stages.  COLLECT forces payload decryption so the
        # decrypt stage is exercised too.
        async def scenario():
            sharded, router, records = build_demo_fleet(2, tmp_path)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            locations = sorted({r[0] for r in records})
            reply = await _rpc(
                reader, writer,
                {"op": "range", "index_values": [locations],
                 "time_start": 0, "time_end": 1800,
                 "aggregate": "collect"},
            )
            assert reply["ok"] and reply["verified_shards"] == [0, 1]
            trace_id = reply["trace_id"]

            fetched = await _rpc(
                reader, writer, {"op": "trace", "trace_id": trace_id}
            )
            assert fetched["ok"]
            roots = [span_from_dict(d) for d in fetched["roots"]]
            assert len(roots) == 1, "must assemble into ONE tree"
            (tree,) = roots
            assert tree.name == "server.request"

            # Correct parent-child edges across the thread-pool hops:
            # every span's parent_id is its actual parent's span_id.
            def check_edges(span):
                for child in span.children:
                    assert child.parent_id == span.span_id
                    assert child.trace_id == tree.trace_id
                    check_edges(child)

            check_edges(tree)

            # The tree spans the router AND both shard subtrees …
            dispatches = [
                s for s in tree.walk() if s.name == "shard.dispatch"
            ]
            assert {s.attributes["shard"] for s in dispatches} == {0, 1}
            # … with timings for all six stages.
            timings = stage_timings(tree)
            assert set(timings) >= {
                "plan", "fetch", "verify", "decrypt", "aggregate", "merge"
            }
            assert all(timings[stage] > 0 for stage in timings)

            missing = await _rpc(
                reader, writer, {"op": "trace", "trace_id": "0" * 32}
            )
            assert not missing["ok"]
            assert missing["error"] == "TraceNotFound"

            writer.close()
            server.request_stop()
            await serve_task

        run(scenario())

    def test_client_traceparent_joins_the_server_trace(self, tmp_path):
        async def scenario():
            sharded, router, records = build_demo_fleet(2, tmp_path)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            remote = tracing.SpanContext(
                trace_id="ab" * 16, span_id="cd" * 8
            )
            location, timestamp, _ = records[0]
            reply = await _rpc(
                reader, writer,
                {"op": "point", "index_values": [location],
                 "timestamp": timestamp,
                 "traceparent": remote.traceparent()},
            )
            assert reply["ok"]
            # The server joined the caller's trace rather than minting
            # a new one, and says so on the response.
            assert reply["trace_id"] == remote.trace_id

            fetched = await _rpc(
                reader, writer,
                {"op": "trace", "trace_id": remote.trace_id},
            )
            assert fetched["ok"]
            (root,) = [span_from_dict(d) for d in fetched["roots"]]
            assert root.name == "server.request"
            assert root.parent_id == remote.span_id

            bad = await _rpc(
                reader, writer,
                {"op": "point", "index_values": [location],
                 "timestamp": timestamp, "traceparent": "nonsense"},
            )
            assert not bad["ok"] and bad["error"] == "BadRequest"

            writer.close()
            server.request_stop()
            await serve_task

        run(scenario())

    def test_metrics_slo_and_trace_buffers_over_the_wire(self, tmp_path):
        async def scenario():
            sharded, router, records = build_demo_fleet(2, tmp_path)
            server = ShardServer(router, drain_seconds=2.0)
            port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            location, timestamp, _ = records[0]
            await _rpc(
                reader, writer,
                {"op": "point", "index_values": [location],
                 "timestamp": timestamp},
            )

            metrics = await _rpc(
                reader, writer, {"op": "metrics", "format": "json"}
            )
            assert metrics["ok"]
            families = metrics["metrics"]
            assert "concealer_queries_total" in families
            prom = await _rpc(
                reader, writer, {"op": "metrics", "format": "prom"}
            )
            assert prom["ok"] and "# TYPE" in prom["text"]
            bad = await _rpc(
                reader, writer, {"op": "metrics", "format": "xml"}
            )
            assert not bad["ok"] and bad["error"] == "BadRequest"

            slo = await _rpc(reader, writer, {"op": "slo"})
            assert slo["ok"]
            snapshot = slo["slo"]
            assert snapshot["secrecy"] == "data-dependent"
            assert snapshot["events"] >= 1  # the query we just ran
            assert snapshot["alerts"] == []  # healthy fleet: quiet

            traces = await _rpc(
                reader, writer, {"op": "traces", "limit": 4}
            )
            assert traces["ok"] and traces["assembled"] >= 1
            # Satellite: per-buffer dropped-span counts ride along.
            assert set(traces["dropped"]) == {
                "router", "shard-0", "shard-1"
            }
            assert all(v == 0 for v in traces["dropped"].values())
            # Zero asks for no trees (a negative slice bound would
            # return them all); a negative limit is a bad request.
            none = await _rpc(reader, writer, {"op": "traces", "limit": 0})
            assert none["ok"] and none["traces"] == []
            assert none["assembled"] == traces["assembled"] >= 1
            negative = await _rpc(
                reader, writer, {"op": "traces", "limit": -1}
            )
            assert not negative["ok"] and negative["error"] == "BadRequest"

            writer.close()
            server.request_stop()
            await serve_task

        run(scenario())


class TestGracefulSignals:
    """``python -m repro --serve`` must drain and exit 0 on SIGTERM."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_drains_checkpoints_and_exits_zero(self, signum, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "--serve", "--shards", "2",
             "--port", "0", "--drain-seconds", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner and "2 shard(s)" in banner
            port = int(banner.split("127.0.0.1:")[1].split(" ")[0])

            async def query_then_signal():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                response = await _rpc(
                    reader, writer, {"op": "health"}
                )
                writer.close()
                return response

            health = asyncio.run(query_then_signal())
            assert health["ok"]

            process.send_signal(signum)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stdout
        assert "shutdown" in stdout and "checkpointed" in stdout
