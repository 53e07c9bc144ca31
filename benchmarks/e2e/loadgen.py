"""The load generator: child control and the closed-loop clients.

One asyncio process drives one server child.  ``CLIENTS`` connections
each send their own pre-generated request stream and wait for every
reply before sending the next (closed loop: analysts wait for an answer
before asking again).  Every response is compared with the oracle's
answer, which was computed before the window opened.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def split_cpus() -> set[int]:
    """One core for the load generator, the rest for the server child.

    The child is GIL-bound, so this costs it nothing, and neither side
    then steals the other's core or migrates mid-window.  Returns the
    server's CPU set (empty on a single-CPU machine: no pinning).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set()
    os.sched_setaffinity(0, {cpus[-1]})
    return set(cpus[:-1])


class BenchmarkFailure(RuntimeError):
    """The run cannot produce a trustworthy result (hang, dead child)."""


# -------------------------------------------------------------------- child


class ServerChild:
    """A fresh ``launcher.py`` process and the lines it says."""

    def __init__(self, src: Path, workdir: Path, inputs: dict, cpus: set[int]):
        self.src = src
        self.workdir = workdir
        self.inputs = inputs
        self.cpus = cpus   # from split_cpus(); empty = leave the child unpinned
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0
        self.setup_s = 0.0
        self.said: list[str] = []

    async def launch(self) -> None:
        """Spawn, wait for ``READY``, then for the first ``health`` ok.

        ``setup_s`` leaves out the child's heap pre-warm (``WARM``): it
        steadies the benchmark and is no part of the program's set-up."""
        self.workdir.mkdir(parents=True)
        (self.workdir / "inputs.json").write_text(json.dumps(self.inputs))
        # A fixed hash seed: set and dict iteration orders, and with
        # them a few percent of the child's speed, repeat between runs.
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(self.src), str(HERE)]),
            PYTHONHASHSEED="0",
        )
        started = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "launcher.py"), str(self.workdir),
            stdout=asyncio.subprocess.PIPE, env=env,
        )
        if self.cpus:
            os.sched_setaffinity(self.process.pid, self.cpus)
        prewarm_s = float((await self.expect("WARM")).split()[1])
        self.port = int((await self.expect("READY")).split()[1])
        if self.port:
            epochs = (await self.ops_request({"op": "health"})).get("epochs")
            if epochs != [self.inputs["spec"]["first_epoch_id"]]:
                raise BenchmarkFailure(f"health reports epochs {epochs}")
        self.setup_s = time.perf_counter() - started - prewarm_s

    async def expect(self, prefix: str) -> str:
        while True:
            raw = await self.process.stdout.readline()
            if not raw:
                raise BenchmarkFailure(
                    f"server child exited before saying {prefix!r}"
                )
            line = raw.decode().rstrip("\n")
            self.said.append(line)
            if line.startswith(prefix):
                return line

    async def ops_request(self, request: dict) -> dict:
        """One ops-plane request on its own connection."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
        finally:
            writer.close()
            await writer.wait_closed()
        if not response.get("ok"):
            raise BenchmarkFailure(f"{request['op']} failed: {response}")
        return response

    async def start_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        await self.expect("TRACING")

    async def stop_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR2)
        await self.expect("UNTRACED")

    def ask_rss(self) -> None:
        """Have the child take its resident set now (``launcher.rss_in_use_mb``)."""
        self.process.send_signal(signal.SIGHUP)

    async def rss_mb(self) -> float:
        """What the child answered to :meth:`ask_rss`, in MB."""
        return float((await self.expect("RSS")).split()[1])

    async def stop(self) -> list[str]:
        """SIGTERM; returns the contract violations (exit code, drain)."""
        self.process.send_signal(signal.SIGTERM)
        rest = (await self.process.stdout.read()).decode().splitlines()
        self.said.extend(rest)
        code = await self.process.wait()
        problems = []
        if code != 0:
            problems.append(f"server child exited {code} on SIGTERM")
        if not any("drained cleanly" in line for line in self.said):
            problems.append("server child did not say 'drained cleanly'")
        return problems

    async def kill(self) -> None:
        """Make sure the process is gone (no-op after a clean stop)."""
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()

    def report(self) -> dict:
        return json.loads((self.workdir / "child.json").read_text())

    def span_dump(self) -> list:
        return json.loads((self.workdir / "spans.json").read_text())


# ------------------------------------------------------------------- window


@dataclass
class Window:
    """One measured segment of the closed loop."""

    wall_s: float = 0.0
    # (send, receive, trace id, request bytes, response bytes), correct only
    samples: list[tuple] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    start: float = 0.0      # on the clock of ``samples``

    def latencies_ms(self) -> list[float]:
        return [(s[1] - s[0]) * 1000.0 for s in self.samples]


class ClosedLoop:
    """``CLIENTS`` connections, each with its own stream and cursor.

    ``run`` can be called several times (warm-up, untraced segment,
    traced segment); every call continues where the streams stopped.
    """

    def __init__(self, port: int, streams: list[list[dict]], oracle):
        self.port = port
        self.streams = [
            [(json.dumps(r).encode() + b"\n", oracle.expected(r)) for r in stream]
            for stream in streams
        ]
        self.cursors = [0] * len(streams)
        self.connections: list[tuple] = []

    async def connect(self) -> None:
        for _ in self.streams:
            self.connections.append(
                await asyncio.open_connection("127.0.0.1", self.port)
            )

    async def close(self) -> None:
        for _, writer in self.connections:
            writer.close()
            await writer.wait_closed()

    async def run(
        self,
        seconds: float,
        max_ops: int | None = None,
        clients: int | None = None,
        at_op: tuple | None = None,
    ) -> Window:
        """Drive the first ``clients`` connections (default: all) until
        ``seconds`` pass, ``max_ops`` are done, or a stream runs dry.
        Responses arriving after the deadline are checked but not
        measured.  ``at_op=(n, fn)`` calls ``fn`` when the segment's
        ``n``-th response arrives."""
        clients = clients or len(self.streams)
        start = time.perf_counter()
        window = Window(start=start)
        deadline = start + seconds
        finished = [start] * clients

        async def client(cid: int) -> None:
            reader, writer = self.connections[cid]
            stream = self.streams[cid]
            budget = None if max_ops is None else max_ops // clients
            done = 0
            while (
                self.cursors[cid] < len(stream)
                and (budget is None or done < budget)
                and time.perf_counter() < deadline
            ):
                line, expected = stream[self.cursors[cid]]
                self.cursors[cid] += 1
                sent = time.perf_counter()
                writer.write(line)
                await writer.drain()
                raw = await reader.readline()
                received = time.perf_counter()
                done += 1
                window.attempted += 1
                if at_op is not None and window.attempted == at_op[0]:
                    at_op[1]()
                response = json.loads(raw) if raw else {"ok": False, "error": "closed"}
                error = workloads.response_error(response, expected)
                if error is not None:
                    window.errors.append(f"{line.decode().strip()}: {error}")
                elif received <= deadline:
                    window.samples.append(
                        (sent, received, response.get("trace_id"), len(line), len(raw))
                    )
                finished[cid] = received

        await asyncio.gather(*(client(cid) for cid in range(clients)))
        window.wall_s = min(deadline, max(finished)) - start
        return window
