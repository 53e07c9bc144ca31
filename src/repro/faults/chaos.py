"""The chaos harness: randomized fault schedules over real workloads.

One *chaos run* builds a provisioned stack whose storage engines and
enclaves share a seeded :class:`FaultInjector`, then executes a seeded
sequence of operations (epoch ingestion, point queries, range queries,
checkpoints, key rotation) while faults fire.  The stack is one
:class:`ServiceProvider` (:class:`ChaosRun`) or an N-shard
:class:`ShardedService` (:class:`ShardedChaosRun`, which adds shard
kills, shard stalls and router crashes); with ``replicas > 1`` every
engine is a replica group whose response channels are Byzantine.
Every operation's outcome is checked against a cleartext oracle
computed from the plaintext records, and classified:

- **ok** — an answer was produced and it matches the oracle;
- **ok (partial)** — sharded only: a
  :class:`~repro.sharding.results.PartialResult` whose answer matches
  the truth restricted to exactly the shards that served it, and whose
  missing set is honest;
- **typed failure** — a :class:`~repro.exceptions.ConcealerError`
  subclass was raised (the run *failed loudly*); a crashed enclave is
  then recovered (isolated shards are sometimes healed) and the run
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

import contextlib
import hashlib
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro import telemetry
from repro.core.provider import DataProvider
from repro.core.grid import GridSpec
from repro.core.queries import PointQuery, RangeQuery
from repro.core.rotation import rotate_service_keys, rotation_token
from repro.core.schema import WIFI_SCHEMA
from repro.core.service import ServiceConfig, ServiceProvider
from repro.enclave.enclave import Enclave, EnclaveConfig
from repro.exceptions import ConcealerError, EnclaveCrashed
from repro.faults.clock import VirtualClock
from repro.faults.injector import FAULT_SITES, FaultInjector, FaultSpec
from repro.faults.recovery import RecoveryCoordinator
from repro.replication.byzantine import ByzantineReplica
from repro.replication.engine import ReplicatedStorageEngine
from repro.sharding.coordinator import ingest_epoch_sharded, rotate_sharded_keys
from repro.sharding.results import PartialResult
from repro.sharding.service import ShardedConfig, ShardedService
from repro.storage.checkpoint import restore_engine
from repro.storage.engine import StorageEngine
from repro.telemetry.slo import SLOMonitor

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


def _rotation_armed() -> list[FaultSpec]:
    """:func:`default_specs` with mid-rotation enclave kills armed."""
    return [
        spec
        if spec.site != "enclave.kill.rotation"
        else FaultSpec("enclave.kill.rotation", probability=0.05, max_fires=1)
        for spec in default_specs()
    ]


def _replica_specs() -> list[FaultSpec]:
    """The Byzantine storage adversary's sites."""
    return [
        FaultSpec("replica.tamper", probability=0.10, max_fires=3),
        FaultSpec("replica.replay.stale", probability=0.08, max_fires=2),
        FaultSpec("replica.bin.drop", probability=0.08, max_fires=2),
        FaultSpec("replica.slow", probability=0.05, max_fires=2),
    ]


def byzantine_specs() -> list[FaultSpec]:
    """The replicated chaos mix: the standard faults plus a Byzantine
    storage adversary (replica-targeted tamper, stale replay, bin
    suppression, stragglers) and mid-rotation enclave kills."""
    return _rotation_armed() + _replica_specs()


def sharded_specs() -> list[FaultSpec]:
    """The sharded chaos mix: classic faults + shard/router sites.

    ``enclave.kill.rotation`` is armed (it fires inside a shard's
    phase-1 rewrite, exercising the cross-shard abort), and the three
    sharding sites join the stream.  Probabilities are tuned so a
    typical schedule fires a couple of faults without degenerating
    into everything-always-fails.
    """
    return _rotation_armed() + [
        FaultSpec("shard.kill", probability=0.05, max_fires=2),
        FaultSpec("shard.slow", probability=0.05, max_fires=2),
        FaultSpec("router.crash", probability=0.05, max_fires=1),
    ]


def composed_specs() -> list[FaultSpec]:
    """The composed mix: sharded sites *plus* a Byzantine storage
    adversary inside every shard's replica group.

    This is the full gauntlet — replica-targeted tamper/stale-replay/
    bin-drop/stragglers racing shard kills, router crashes, and a
    mid-stream two-phase rotation.  The oracle contract is unchanged:
    zero silent-wrong, with in-shard failover expected to absorb most
    replica faults before the router ever sees a degraded shard.
    """
    return sharded_specs() + _replica_specs()


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
    """One seeded single-service stack + fault schedule.

    Drives the op stream and classifies every outcome.  The sharded
    fleet (:class:`ShardedChaosRun`) overrides only what its topology
    changes: the stack, recovery, ingest, the range oracle, the
    checkpoint, the op mix and the end of the run.
    """

    # Salt of the next master key; see :meth:`rotate_keys`.
    rotation_salt = b"chaos-rotation"
    # The mixed op stream: a uniform draw runs the first op whose bound
    # it is under.
    op_mix = (
        (0.40, "point_query"),
        (0.75, "range_query"),
        (0.88, "batch_query"),
        (1.0, "checkpoint_cycle"),
    )

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
            specs = self._fault_mix()
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
        # Plaintext oracle state: epoch id -> records that truly landed.
        self.oracle: dict[int, list[tuple]] = {}
        self._build()

    def _fault_mix(self) -> list[FaultSpec]:
        return byzantine_specs() if self.replicas > 1 else default_specs()

    def _build(self) -> None:
        """One provisioned service behind a recovery coordinator."""
        if self.replicas > 1:
            engine = self._replica_group()
            config = ServiceConfig(
                verify=True, deadline_seconds=90.0, retry_jitter=0.2
            )
            retry_rng = random.Random(f"chaos-retry-{self.seed}")
        else:
            engine = StorageEngine(fault_injector=self.injector)
            config = ServiceConfig(verify=True)
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

    def _replica_group(self) -> ReplicatedStorageEngine:
        """A replica group whose response channels are all Byzantine.

        Replica 0's inner engine keeps the shared injector, so classic
        storage faults still fire inside exactly one replica; every
        replica's *response channel* is adversarial, driven by the same
        injector and clock so runs replay deterministically.  Replica
        ids restart at 0 per group: each shard's group is its own
        failure domain.
        """
        members = [
            ByzantineReplica(
                StorageEngine(fault_injector=self.injector if rid == 0 else None),
                rid,
                fault_injector=self.injector,
                clock=self.clock,
            )
            for rid in range(self.replicas)
        ]
        return ReplicatedStorageEngine(members, clock=self.clock)

    # ------------------------------------------------------------------ ops

    def _attempt(self, op: str, thunk, expected=None) -> ChaosOutcome:
        """Run one operation; classify it; recover after a typed failure."""
        outcome = ChaosOutcome(op=op, ok=False, expected=expected)
        started = self.clock.now()
        try:
            outcome.answer = thunk()
        except ConcealerError as error:
            outcome.error = type(error).__name__
            self._observe(started, ok=False)
            outcome.recovered = self._recover(error)
        else:
            outcome.ok = outcome.answer == expected
            self._observe(started, ok=True)
        self.report.outcomes.append(outcome)
        return outcome

    def _observe(self, started: float, ok: bool) -> None:
        """Record one op's virtual duration (the sharded fleet's SLO)."""

    def _recover(self, error: ConcealerError) -> bool:
        """Recover a crashed enclave; True iff it was recovered."""
        if not (isinstance(error, EnclaveCrashed) or self.service.enclave.crashed):
            return False
        self.coordinator.recover()
        self.report.recoveries += 1
        return True

    def ingest(self, epoch_id: int) -> ChaosOutcome:
        """Land one epoch; the oracle only counts it if ingestion succeeds."""
        records = _epoch_records(epoch_id, self.workload_rng)
        return self._ingest("ingest", records, epoch_id)

    def _ingest(self, op: str, records: list[tuple], epoch_id: int) -> ChaosOutcome:
        # Expected row count is unknowable up front (fakes are seeded
        # provider-side); success is simply "all rows landed".
        outcome = self._attempt(op, lambda: self._land(records, epoch_id))
        if outcome.error is None:
            outcome.ok = outcome.answer >= len(records)
        return outcome

    def _land(self, records: list[tuple], epoch_id: int) -> int:
        package = self.provider.encrypt_epoch(records, epoch_id)
        self.service.ingest_epoch(package)
        self.oracle[epoch_id] = records
        return self.service.engine.row_count(f"epoch_{epoch_id}")

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
        """A count over one location slot and a one-to-three-step window."""
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("range")
        slot, locations = self._range_slot()
        rng = self.workload_rng
        t0 = epoch_id + TIME_STEP * rng.randrange(2)
        t1 = t0 + TIME_STEP * (1 + rng.randrange(2))
        method = ("multipoint", "ebpb", "winsecrange")[rng.randrange(3)]

        def truth(rows) -> int:
            return sum(_range_truth(rows, location, t0, t1) for location in locations)

        outcome = self._attempt(
            "range",
            lambda: self.service.execute_range(
                RangeQuery(index_values=(slot,), time_start=t0, time_end=t1),
                method=method,
            )[0],
            truth(records),
        )
        return self._check_partial(outcome, epoch_id, truth)

    def _range_slot(self) -> tuple[object, tuple[str, ...]]:
        """The range's location slot value and the locations it covers."""
        location = _LOCATIONS[self.workload_rng.randrange(len(_LOCATIONS))]
        return location, (location,)

    def _check_partial(self, outcome: ChaosOutcome, epoch_id: int, truth) -> ChaosOutcome:
        """Re-judge a partial answer (sharded only; one service has none)."""
        return outcome

    def batch_query(self) -> ChaosOutcome:
        """A burst: five point probes over two repeated cells plus one
        multipoint range, each its own request, judged as one op.

        A fault anywhere in the burst must fail it loudly (one answer
        silently skewed while the rest verify would be the worst
        possible outcome).
        """
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("batch")
        rng = self.workload_rng
        probes = []
        for _ in range(2):
            location, timestamp, _ = records[rng.randrange(len(records))]
            probes.append((location, timestamp))
        points = [probes[index % len(probes)] for index in range(5)]
        expected = [_point_truth(records, *probe) for probe in points]
        location = _LOCATIONS[rng.randrange(len(_LOCATIONS))]
        t0, t1 = epoch_id, epoch_id + TIME_STEP
        expected.append(_range_truth(records, location, t0, t1))

        def burst() -> list:
            answers = [
                self.service.execute_point(
                    PointQuery(index_values=(loc,), timestamp=timestamp)
                )[0]
                for loc, timestamp in points
            ]
            query = RangeQuery(index_values=(location,), time_start=t0, time_end=t1)
            return answers + [self.service.execute_range(query, method="multipoint")[0]]

        return self._attempt("batch", burst, expected)

    def checkpoint_cycle(self) -> ChaosOutcome:
        """Checkpoint, then restore one archive into a scratch engine and
        compare its tables with the live engine's."""
        checkpoint, engine = self._checkpoint_target()
        expected = sorted(engine.table_names())
        return self._attempt(
            "checkpoint",
            lambda: sorted(restore_engine(checkpoint()).table_names()),
            expected,
        )

    def _checkpoint_target(self):
        """(a thunk that checkpoints and returns the archive to restore,
        the live engine that archive must match)."""
        return self.coordinator.checkpoint, self.service.engine

    def rotate_keys(self) -> ChaosOutcome:
        """Rotate the master key mid-run.

        The next key is a deterministic function of the seed and the
        rotation count, so schedules replay.  A mid-rotation enclave
        kill rolls the rewrite back (journal) and recovery re-attests —
        the *old* key stays live, which the oracle checks implicitly by
        the following queries still answering correctly.
        """
        self._rotations += 1
        new_master = hashlib.sha256(
            b"%s|%d|%d" % (self.rotation_salt, self.seed, self._rotations)
        ).digest()

        def run():
            token = rotation_token(self._master, new_master)
            rotated = self._rotate(new_master, token)
            self._master = new_master
            return rotated

        outcome = self._attempt("rotate", run)
        if outcome.error is None:
            outcome.ok = True
        return outcome

    def _rotate(self, new_master: bytes, token) -> int:
        rotated = rotate_service_keys(self.service, new_master, token)
        self.provider.adopt_master(new_master)
        return rotated

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

    def _rotates(self) -> bool:
        """Whether the stream rotates keys: a single service does so only
        when replicated, to exercise failover around an epoch rewrite."""
        return self.replicas > 1

    def _before_op(self) -> None:
        """A fault consulted before every op of the stream (sharded only)."""

    def _after_ops(self) -> None:
        """The end-of-stream checks (sharded only)."""

    def _tracing(self):
        """Where spans go: the ambient tracer, unless a run scopes its own."""
        return contextlib.nullcontext()

    def run(self, ops: int = 12) -> ChaosReport:
        """Execute the seeded schedule: ingest, then a mixed op stream.

        The whole run executes under a fresh scoped registry, so the
        report's ``telemetry`` (retry counts, recoveries, fault fires)
        covers exactly this run and nothing ambient.
        """
        with telemetry.scoped_registry() as registry, self._tracing() as tracer:
            try:
                self.ingest(0)
                for index in range(ops):
                    self._before_op()
                    # A second epoch lands part-way through (insert workload).
                    if index == ops // 2 and EPOCH_DURATION not in self.oracle:
                        self.ingest(EPOCH_DURATION)
                        continue
                    if self._rotates() and index == max(1, (2 * ops) // 3):
                        self.rotate_keys()
                        continue
                    draw = self.workload_rng.random()
                    op = next(name for bound, name in self.op_mix if draw < bound)
                    getattr(self, op)()
                    # Replicated stacks run periodic anti-entropy repair
                    # (fenced against rewrites and the cross-shard
                    # journal), as a production repair cron would.
                    if self.replicas > 1 and index % 4 == 3:
                        self.repair()
                if self.replicas > 1:
                    self.repair()
                self._after_ops()
            finally:
                self.report.schedule = self.injector.encode_schedule()
                self.report.faults_fired = len(self.injector.fired)
                self.report.telemetry = registry
                if tracer is not None:
                    self.report.traces = tracer.traces()
                if self._tmp is not None:
                    self._tmp.cleanup()
        return self.report


class ShardedChaosRun(ChaosRun):
    """One seeded N-shard fleet + fault schedule, with a per-shard oracle.

    The same seeded injector also drives shard kills at dispatch and
    two-phase boundaries (``shard.kill``), shard stalls that burn a
    dispatch budget (``shard.slow``) and front-door restarts
    (``router.crash``).  The oracle knows the *per-shard* truth: records
    are partitioned at ingest with the provider's keyed grid and public
    topology, so a partial answer claiming shards it did not serve, or
    a full answer missing a healthy shard's rows, is silently wrong like
    a wrong scalar.  Every run ends with a full heal and verification
    sweep (:meth:`final_verify`).
    """

    rotation_salt = b"chaos-sharded-rotation"
    op_mix = (
        (0.35, "point_query"),
        (0.85, "range_query"),
        (1.0, "checkpoint_cycle"),
    )

    def __init__(
        self,
        seed: int,
        specs: list[FaultSpec] | None = None,
        workdir: str | Path | None = None,
        shards: int = 2,
        replicas: int = 1,
    ):
        self.shard_count = shards
        super().__init__(seed, specs=specs, workdir=workdir, replicas=replicas)

    def _fault_mix(self) -> list[FaultSpec]:
        return composed_specs() if self.replicas > 1 else sharded_specs()

    def _build(self) -> None:
        self.config = ShardedConfig(
            shards=self.shard_count,
            replicas=self.replicas,
            deadline_seconds=60.0,
            breaker_reset_seconds=1e9,  # re-admission only via heal()
        )
        self.service = ShardedService.build(
            self.provider,
            self.config,
            self.workdir,
            clock=self.clock,
            fault_injector=self.injector,
            retry_rng_seed=f"chaos-retry-{self.seed}",
            engine_factory=(
                (lambda shard_id: self._replica_group())
                if self.replicas > 1
                else None
            ),
        )
        # SLO monitor on the fleet's virtual clock: a shard.slow burns
        # its dispatch budget in *virtual* seconds, so the latency
        # objective trips deterministically on replay.
        self.slo = SLOMonitor(clock=self.clock)
        # Epoch -> per-shard records.  Partitions are captured at ingest
        # (grid keys never change for an ingested epoch, so ownership is
        # stable across rotations).
        self.oracle_parts: dict[int, list[list[tuple]]] = {}

    # ------------------------------------------------------------------- ops

    def _observe(self, started: float, ok: bool) -> None:
        self.slo.record(self.clock.now() - started, ok=ok)

    def _recover(self, error: ConcealerError) -> bool:
        """Sometimes heal the fleet.

        Healing is deliberately *probabilistic* (seeded): immediate
        healing would mask the isolated-shard behaviours this harness
        exists to exercise (partial results, point-to-dead-owner), so
        roughly half the failures leave the fleet degraded for a while.
        """
        return self.workload_rng.random() < 0.5 and self._heal()

    def _heal(self) -> bool:
        actions = self.service.heal()
        readmitted = sum(a["readmitted"] for a in actions.values())
        self.report.recoveries += readmitted
        return readmitted > 0

    def ingest(self, epoch_id: int) -> ChaosOutcome:
        """Two-phase epoch landing; on rollback, heal and retry once.

        The oracle only counts an epoch once the *whole fleet* landed
        it — a rollback leaves both the fleet and the oracle unchanged,
        so a shard serving a half-ingested epoch would show up as
        silent wrongness on later queries.
        """
        records = _epoch_records(epoch_id, self.workload_rng)
        outcome = self._ingest("ingest", records, epoch_id)
        if outcome.error is not None and epoch_id not in self.oracle:
            self._heal()
            self._ingest("ingest-retry", records, epoch_id)
        return outcome

    def _land(self, records: list[tuple], epoch_id: int) -> int:
        counts = ingest_epoch_sharded(self.service, records, epoch_id)
        self.oracle[epoch_id] = records
        self.oracle_parts[epoch_id] = self.provider.partition_records(
            records, epoch_id, self.service.topology
        )
        return sum(counts.values())

    def _range_slot(self) -> tuple[object, tuple[str, ...]]:
        """A wildcard over two or more locations, so the covered cell-ids
        genuinely span shards."""
        rng = self.workload_rng
        width = 2 + rng.randrange(len(_LOCATIONS) - 1)
        start = rng.randrange(len(_LOCATIONS))
        locations = tuple(
            _LOCATIONS[(start + i) % len(_LOCATIONS)] for i in range(width)
        )
        return locations, locations

    def _check_partial(self, outcome: ChaosOutcome, epoch_id: int, truth) -> ChaosOutcome:
        """Check a partial answer against the truth restricted to exactly
        its served shards, and its missing set for honesty."""
        partial = outcome.answer
        if isinstance(partial, PartialResult):
            parts = self.oracle_parts[epoch_id]
            outcome.op = "range-partial"
            outcome.expected = sum(truth(parts[s]) for s in partial.served_shards)
            outcome.answer = partial.answer
            honest = set(partial.served_shards).isdisjoint(partial.missing_shards)
            outcome.ok = honest and outcome.answer == outcome.expected
        return outcome

    def _checkpoint_target(self):
        victim = self.workload_rng.randrange(self.shard_count)
        return (
            lambda: self.service.checkpoint_all()[victim],
            self.service.shards[victim].service.engine,
        )

    def _rotate(self, new_master: bytes, token) -> int:
        """Two-phase cross-shard rotation; failures converge on the old
        key fleet-wide (which later queries verify implicitly)."""
        return rotate_sharded_keys(self.service, new_master, token)

    def repair(self) -> dict:
        return self.service.repair_replicas()

    def router_crash(self) -> ChaosOutcome:
        """The front-door process dies and restarts.

        Shard state (host-side storage, enclaves) survives — only the
        router object, its fence, and its plan caches are lost.  The
        rebuilt router must serve correct answers immediately, which
        the following ops check against the unchanged oracle.
        """
        self.service = ShardedService(
            self.provider,
            self.service.topology,
            self.service.shards,
            clock=self.clock,
            config=self.config,
            fault_injector=self.injector,
        )
        outcome = ChaosOutcome(op="router-restart", ok=True)
        self.report.outcomes.append(outcome)
        return outcome

    def final_verify(self) -> None:
        """Heal everything, then demand complete, correct epoch counts.

        This is the re-admission acceptance check: after the run's
        crashes, every shard must recover (re-attest, restore, probe)
        and a wildcard count per epoch must be a *full* (non-partial)
        answer equal to the epoch's true record count.  The injector is
        disarmed first — this sweep measures recovery, not tolerance of
        yet more faults (disarming is deterministic, so replay holds).
        """
        for site in FAULT_SITES:
            self.injector.disarm(site)
        self._heal()
        for epoch_id, records in sorted(self.oracle.items()):
            outcome = ChaosOutcome(
                op="final-verify", ok=False, expected=len(records)
            )
            try:
                answer = self.service.execute_range(
                    RangeQuery(
                        index_values=(_LOCATIONS,),
                        time_start=epoch_id,
                        time_end=epoch_id + EPOCH_DURATION - 1,
                    ),
                    method="ebpb",
                )[0]
            except ConcealerError as error:
                outcome.error = type(error).__name__
            else:
                outcome.answer = answer
                # A PartialResult here means a shard failed to re-admit:
                # answer != expected (comparing PartialResult to int),
                # so it is classified as not-ok below.
                outcome.ok = answer == len(records)
            self.report.outcomes.append(outcome)

    # ------------------------------------------------------------------- run

    def _rotates(self) -> bool:
        return True

    def _before_op(self) -> None:
        if self.injector.fire("router.crash") is not None:
            self.router_crash()

    def _after_ops(self) -> None:
        """Evaluate the SLO monitor *before* the final heal sweep, so the
        alerts describe the faulted workload, not the recovery."""
        self.report.slo_alerts = list(self.slo.evaluate())
        self.final_verify()

    def _tracing(self):
        """Spans go to a run-scoped tracer kept on the report, like the
        registry; neither feeds ``fingerprint()``."""
        return telemetry.scoped_tracer(clock=self.clock)


def run_chaos(
    seed: int,
    ops: int = 12,
    specs: list[FaultSpec] | None = None,
    workdir: str | Path | None = None,
    replicas: int = 1,
    shards: int = 1,
) -> ChaosReport:
    """Run one seeded chaos schedule end to end and return its report.

    ``replicas > 1`` makes every storage engine a Byzantine replica
    group behind verify-then-failover reads, arms the replica fault
    sites (:func:`byzantine_specs`), rotates keys mid-run and runs
    periodic anti-entropy repair.

    ``shards > 1`` runs the sharded fleet instead
    (:class:`ShardedChaosRun`): shard kills, stalls, router crashes,
    two-phase ingest/rotation, and partial-result checking against a
    per-shard oracle.

    ``shards > 1`` *and* ``replicas > 1`` compose: every shard fronts
    its own Byzantine-wrapped replica group, so replica tamper/replay/
    drop/stall faults race shard kills, router crashes, and the
    mid-stream two-phase rotation in one schedule — the full gauntlet.
    """
    if shards > 1:
        run = ShardedChaosRun(
            seed, specs=specs, workdir=workdir, shards=shards, replicas=replicas
        )
    else:
        run = ChaosRun(seed, specs=specs, workdir=workdir, replicas=replicas)
    return run.run(ops=ops)
