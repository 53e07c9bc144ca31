"""The chaos harness: randomized fault schedules over real workloads.

One *chaos run* builds a provisioned provider/service stack whose
storage engine and enclave share a seeded :class:`FaultInjector`, then
executes a seeded sequence of operations (epoch ingestion, point
queries, range queries, checkpoints) while faults fire.  Every
operation's outcome is checked against a cleartext oracle computed from
the plaintext records, and classified:

- **ok** — an answer was produced and it matches the oracle;
- **typed failure** — a :class:`~repro.exceptions.ConcealerError`
  subclass was raised (the run *failed loudly*); crashed enclaves are
  then recovered through :class:`RecoveryCoordinator` and the run
  continues;
- **silent wrong** — an answer was produced that does *not* match the
  oracle.  This is the one outcome the system must never exhibit; the
  chaos tests and ``python -m repro --chaos-seed N`` fail on it.

Runs are deterministic functions of their seed: the injector's decision
stream, the workload RNG, and the virtual clock make a failing schedule
replay byte-identically (compare :attr:`ChaosReport.schedule`).

Tamper faults (corrupt/drop/duplicate) are only detectable with
hash-chain verification enabled, so the harness always runs with
``verify=True`` — without it, a malicious host *can* silently skew
aggregates, which is precisely the paper's argument for the tags.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.core.provider import DataProvider
from repro.core.grid import GridSpec
from repro.core.queries import PointQuery, RangeQuery
from repro.core.schema import WIFI_SCHEMA
from repro.core.service import ServiceConfig, ServiceProvider
from repro.enclave.enclave import Enclave, EnclaveConfig
from repro.exceptions import ConcealerError, EnclaveCrashed
from repro.faults.clock import VirtualClock
from repro.faults.injector import FaultInjector, FaultSpec
from repro.faults.recovery import RecoveryCoordinator
from repro.replication.byzantine import ByzantineReplica
from repro.replication.engine import ReplicatedStorageEngine, ReplicationPolicy
from repro.storage.checkpoint import restore_engine
from repro.storage.engine import StorageEngine

MASTER_KEY = bytes(range(32, 64))
EPOCH_DURATION = 240
TIME_STEP = 60
_LOCATIONS = tuple(f"ap{i}" for i in range(4))
_DEVICES = tuple(f"dev{i}" for i in range(6))


def default_specs() -> list[FaultSpec]:
    """The standard chaos mix: every fault site armed, firings capped."""
    return [
        FaultSpec("storage.read.transient", probability=0.004, max_fires=3),
        FaultSpec("storage.write.transient", probability=0.02, max_fires=2),
        FaultSpec("storage.row.corrupt", probability=0.10, max_fires=2),
        FaultSpec("storage.row.drop", probability=0.10, max_fires=2),
        FaultSpec("storage.row.duplicate", probability=0.10, max_fires=2),
        FaultSpec("storage.checkpoint.torn", probability=0.25, max_fires=1),
        FaultSpec("enclave.epc.exhaust", probability=0.02, max_fires=1),
        FaultSpec("enclave.kill.query", probability=0.04, max_fires=2),
        FaultSpec("enclave.kill.rotation", probability=0.0, max_fires=1),
        FaultSpec("enclave.kill.rewrite", probability=0.02, max_fires=1),
        FaultSpec("enclave.kill.checkpoint", probability=0.15, max_fires=1),
    ]


def byzantine_specs() -> list[FaultSpec]:
    """The replicated chaos mix: the standard faults plus a Byzantine
    storage adversary (replica-targeted tamper, stale replay, bin
    suppression, stragglers) and mid-rotation enclave kills."""
    specs = [
        spec
        if spec.site != "enclave.kill.rotation"
        else FaultSpec("enclave.kill.rotation", probability=0.05, max_fires=1)
        for spec in default_specs()
    ]
    specs += [
        FaultSpec("replica.tamper", probability=0.10, max_fires=3),
        FaultSpec("replica.replay.stale", probability=0.08, max_fires=2),
        FaultSpec("replica.bin.drop", probability=0.08, max_fires=2),
        FaultSpec("replica.slow", probability=0.05, max_fires=2),
    ]
    return specs


@dataclass
class ChaosOutcome:
    """One operation's fate under the fault schedule."""

    op: str
    ok: bool
    expected: object = None
    answer: object = None
    error: str | None = None
    recovered: bool = False

    @property
    def silent_wrong(self) -> bool:
        """An answer was returned and it disagrees with the oracle."""
        return self.error is None and not self.ok


@dataclass
class ChaosReport:
    """Everything one chaos run observed, replayable from its seed."""

    seed: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    schedule: bytes = b""
    faults_fired: int = 0
    recoveries: int = 0
    # The run's isolated metrics registry.  Excluded from comparison
    # (and from fingerprint()): replay determinism is about outcomes and
    # the fault schedule, not about observability internals like backoff
    # float sums.
    telemetry: object = field(default=None, compare=False, repr=False)
    # Sharded runs also keep the run-scoped span buffer (local trace
    # roots) and the burn-rate alerts evaluated at the end of the op
    # stream.  Same rule: observability rides along, never fingerprints.
    traces: list = field(default=None, compare=False, repr=False)
    slo_alerts: list = field(default_factory=list, compare=False, repr=False)

    @property
    def silent_wrong(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if o.silent_wrong]

    @property
    def failed_loudly(self) -> list[ChaosOutcome]:
        return [o for o in self.outcomes if o.error is not None]

    def fingerprint(self) -> tuple:
        """Canonical run digest for replay-determinism assertions."""
        return (
            self.schedule,
            tuple(
                (o.op, o.ok, repr(o.answer), o.error, o.recovered)
                for o in self.outcomes
            ),
        )

    def summary(self) -> str:
        return (
            f"seed={self.seed}: {len(self.outcomes)} ops, "
            f"{sum(o.ok for o in self.outcomes)} ok, "
            f"{len(self.failed_loudly)} loud failures, "
            f"{len(self.silent_wrong)} SILENT WRONG, "
            f"{self.faults_fired} faults fired, "
            f"{self.recoveries} recoveries"
        )


def _epoch_records(epoch_start: int, rng: random.Random) -> list[tuple]:
    """A tiny deterministic WiFi epoch derived from the workload RNG."""
    return [
        (_LOCATIONS[rng.randrange(len(_LOCATIONS))], epoch_start + t, device)
        for t in range(0, EPOCH_DURATION, TIME_STEP)
        for device in _DEVICES
    ]


def _point_truth(records, location, timestamp) -> int:
    return sum(1 for r in records if r[0] == location and r[1] == timestamp)


def _range_truth(records, location, t0, t1) -> int:
    return sum(1 for r in records if r[0] == location and t0 <= r[1] <= t1)


class ChaosRun:
    """One seeded stack + fault schedule; drives ops and classifies them."""

    def __init__(
        self,
        seed: int,
        specs: list[FaultSpec] | None = None,
        workdir: str | Path | None = None,
        replicas: int = 1,
    ):
        self.seed = seed
        self.replicas = replicas
        self.workload_rng = random.Random(f"chaos-workload-{seed}")
        if specs is None:
            specs = byzantine_specs() if replicas > 1 else default_specs()
        self.injector = FaultInjector(seed, specs)
        self.report = ChaosReport(seed=seed)
        self._tmp = None
        if workdir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="concealer-chaos-")
            workdir = self._tmp.name
        self.workdir = Path(workdir)

        spec = GridSpec(
            dimension_sizes=(len(_LOCATIONS), EPOCH_DURATION // TIME_STEP),
            cell_id_count=16,
            epoch_duration=EPOCH_DURATION,
        )
        self.provider = DataProvider(
            WIFI_SCHEMA,
            spec,
            first_epoch_id=0,
            master_key=MASTER_KEY,
            time_granularity=TIME_STEP,
            rng=random.Random(f"chaos-provider-{seed}"),
        )
        self.clock = VirtualClock()
        self._master = MASTER_KEY
        self._rotations = 0
        if replicas > 1:
            # N-replica Byzantine setup: replica 0's inner engine keeps
            # the shared injector (classic storage faults still fire);
            # every replica's *response channel* is adversarial, driven
            # by the same injector so runs replay deterministically.
            members = []
            for rid in range(replicas):
                inner = StorageEngine(
                    fault_injector=self.injector if rid == 0 else None
                )
                members.append(
                    ByzantineReplica(
                        inner, rid, fault_injector=self.injector, clock=self.clock
                    )
                )
            engine = ReplicatedStorageEngine(
                members,
                clock=self.clock,
                policy=ReplicationPolicy(attempt_timeout=2.0),
            )
            config = ServiceConfig(
                verify=True, deadline_seconds=90.0, retry_jitter=0.2,
                batch_workers=1,
            )
            retry_rng = random.Random(f"chaos-retry-{seed}")
        else:
            engine = StorageEngine(fault_injector=self.injector)
            # Prefetch is sequential so schedules replay exactly.
            config = ServiceConfig(verify=True, batch_workers=1)
            retry_rng = None
        self.service = ServiceProvider(
            WIFI_SCHEMA,
            config,
            engine=engine,
            enclave=Enclave(EnclaveConfig(), fault_injector=self.injector),
            clock=self.clock,
            retry_rng=retry_rng,
        )
        self.provider.provision_enclave(self.service.enclave)
        self.service.install_registry(self.provider.sealed_registry())
        self.coordinator = RecoveryCoordinator(
            self.provider, self.service, self.workdir / "chaos.ckpt"
        )
        # Plaintext oracle state: epoch id -> records that truly landed.
        self.oracle: dict[int, list[tuple]] = {}

    # ------------------------------------------------------------------ ops

    def _attempt(self, op: str, thunk, expected=None) -> ChaosOutcome:
        """Run one operation; classify; recover a crashed enclave."""
        outcome = ChaosOutcome(op=op, ok=False, expected=expected)
        try:
            outcome.answer = thunk()
        except ConcealerError as error:
            outcome.error = type(error).__name__
            if isinstance(error, EnclaveCrashed) or self.service.enclave.crashed:
                self.coordinator.recover()
                outcome.recovered = True
                self.report.recoveries += 1
        else:
            outcome.ok = outcome.answer == expected
        self.report.outcomes.append(outcome)
        return outcome

    def ingest(self, epoch_id: int) -> ChaosOutcome:
        """Land one epoch; the oracle only counts it if ingestion succeeds."""
        records = _epoch_records(epoch_id, self.workload_rng)

        def run():
            package = self.provider.encrypt_epoch(records, epoch_id)
            self.service.ingest_epoch(package)
            self.oracle[epoch_id] = records
            return self.service.engine.row_count(f"epoch_{epoch_id}")

        # Expected row count is unknowable up front (fakes are seeded
        # provider-side); success is simply "all rows landed".
        outcome = self._attempt("ingest", run)
        if outcome.error is None:
            outcome.ok = outcome.answer >= len(records)
        return outcome

    def point_query(self) -> ChaosOutcome:
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("point")
        location, timestamp, _ = records[self.workload_rng.randrange(len(records))]
        expected = _point_truth(records, location, timestamp)
        return self._attempt(
            "point",
            lambda: self.service.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )[0],
            expected,
        )

    def range_query(self) -> ChaosOutcome:
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("range")
        location = _LOCATIONS[self.workload_rng.randrange(len(_LOCATIONS))]
        t0 = epoch_id + TIME_STEP * self.workload_rng.randrange(2)
        t1 = t0 + TIME_STEP * (1 + self.workload_rng.randrange(2))
        method = ("multipoint", "ebpb", "winsecrange")[
            self.workload_rng.randrange(3)
        ]
        expected = _range_truth(records, location, t0, t1)
        return self._attempt(
            "range",
            lambda: self.service.execute_range(
                RangeQuery(
                    index_values=(location,), time_start=t0, time_end=t1
                ),
                method=method,
            )[0],
            expected,
        )

    def batch_query(self) -> ChaosOutcome:
        """A shared-fetch batch with deliberate bin overlap.

        Five point queries over two repeated probes plus one multipoint
        range — so the planner genuinely deduplicates — executed as one
        ``execute_batch``.  A fault mid-batch must fail the *whole*
        batch loudly (one answer silently skewed while the rest verify
        would be the worst possible outcome).
        """
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("batch")
        rng = self.workload_rng
        probes = []
        for _ in range(2):
            location, timestamp, _ = records[rng.randrange(len(records))]
            probes.append((location, timestamp))
        queries: list = []
        expected: list = []
        for index in range(5):
            location, timestamp = probes[index % len(probes)]
            queries.append(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )
            expected.append(_point_truth(records, location, timestamp))
        location = _LOCATIONS[rng.randrange(len(_LOCATIONS))]
        t0 = epoch_id
        t1 = t0 + TIME_STEP
        queries.append(
            (
                RangeQuery(index_values=(location,), time_start=t0, time_end=t1),
                "multipoint",
            )
        )
        expected.append(_range_truth(records, location, t0, t1))
        return self._attempt(
            "batch",
            lambda: [
                answer for answer, _ in self.service.execute_batch(queries)
            ],
            expected,
        )

    def checkpoint_cycle(self) -> ChaosOutcome:
        """Checkpoint, then restore into a scratch engine and compare."""

        def run():
            path = self.coordinator.checkpoint()
            restored = restore_engine(path)
            return sorted(restored.table_names())

        expected = sorted(self.service.engine.table_names())
        return self._attempt("checkpoint", run, expected)

    def rotate_keys(self) -> ChaosOutcome:
        """Rotate the master key mid-run (replicated schedules only).

        The next key is a deterministic function of the seed and the
        rotation count, so schedules replay.  A mid-rotation enclave
        kill rolls the rewrite back (journal) and recovery re-attests —
        the *old* key stays live, which the oracle checks implicitly by
        the following queries still answering correctly.
        """
        from repro.core.rotation import rotate_service_keys, rotation_token

        self._rotations += 1
        new_master = hashlib.sha256(
            b"chaos-rotation|%d|%d" % (self.seed, self._rotations)
        ).digest()

        def run():
            token = rotation_token(self._master, new_master)
            rotated = rotate_service_keys(self.service, new_master, token)
            self.provider.adopt_master(new_master)
            self._master = new_master
            return rotated

        outcome = self._attempt("rotate", run)
        if outcome.error is None:
            outcome.ok = True
        return outcome

    def repair(self) -> list:
        """One anti-entropy pass; no-op for unreplicated runs."""
        return self.coordinator.repair_replicas()

    def _pick_epoch(self):
        if not self.oracle:
            return None, None
        epoch_id = sorted(self.oracle)[
            self.workload_rng.randrange(len(self.oracle))
        ]
        return epoch_id, self.oracle[epoch_id]

    def _skip(self, op: str) -> ChaosOutcome:
        outcome = ChaosOutcome(op=f"{op}-skipped", ok=True)
        self.report.outcomes.append(outcome)
        return outcome

    # ------------------------------------------------------------------ run

    def run(self, ops: int = 12) -> ChaosReport:
        """Execute the seeded schedule: ingest, then a mixed op stream.

        The whole run executes under a fresh scoped registry, so the
        report's ``telemetry`` (retry counts, recoveries, fault fires)
        covers exactly this run and nothing ambient.
        """
        with telemetry.scoped_registry() as registry:
            try:
                self.ingest(0)
                for index in range(ops):
                    # A second epoch lands part-way through (insert workload).
                    if index == ops // 2 and EPOCH_DURATION not in self.oracle:
                        self.ingest(EPOCH_DURATION)
                        continue
                    # Replicated schedules rotate keys mid-stream — with
                    # replica faults armed this exercises failover during
                    # and after an epoch rewrite (the repair fence).
                    if self.replicas > 1 and index == max(1, (2 * ops) // 3):
                        self.rotate_keys()
                        continue
                    draw = self.workload_rng.random()
                    if draw < 0.40:
                        self.point_query()
                    elif draw < 0.75:
                        self.range_query()
                    elif draw < 0.88:
                        self.batch_query()
                    else:
                        self.checkpoint_cycle()
                    if self.replicas > 1 and index % 4 == 3:
                        self.repair()
                if self.replicas > 1:
                    self.repair()
            finally:
                self.report.schedule = self.injector.encode_schedule()
                self.report.faults_fired = len(self.injector.fired)
                self.report.telemetry = registry
                if self._tmp is not None:
                    self._tmp.cleanup()
        return self.report


def run_chaos(
    seed: int,
    ops: int = 12,
    specs: list[FaultSpec] | None = None,
    workdir: str | Path | None = None,
    replicas: int = 1,
    shards: int = 1,
) -> ChaosReport:
    """Run one seeded chaos schedule end to end and return its report.

    ``replicas > 1`` switches to the Byzantine-replicated stack: N
    engines behind verify-then-failover reads, replica fault sites
    armed (:func:`byzantine_specs`), a mid-run key rotation, and
    periodic anti-entropy repair.

    ``shards > 1`` switches to the sharded fleet instead (see
    :mod:`repro.faults.chaos_sharded`): shard kills, stalls, router
    crashes, two-phase ingest/rotation, and partial-result checking
    against a per-shard oracle.

    ``shards > 1`` *and* ``replicas > 1`` compose: every shard fronts
    its own Byzantine-wrapped replica group, so replica tamper/replay/
    drop/stall faults race shard kills, router crashes, and the
    mid-stream two-phase rotation in one schedule — the full gauntlet.
    """
    if shards > 1:
        from repro.faults.chaos_sharded import ShardedChaosRun

        return ShardedChaosRun(
            seed, specs=specs, workdir=workdir, shards=shards, replicas=replicas
        ).run(ops=ops)
    return ChaosRun(seed, specs=specs, workdir=workdir, replicas=replicas).run(
        ops=ops
    )
