"""Chaos over the sharded fleet: kills, stalls, and router crashes.

Extends the single-stack harness (:mod:`repro.faults.chaos`) to the
N-shard service: the same seeded injector now also drives shard kills
at dispatch and two-phase boundaries (``shard.kill``), shard stalls
that burn a dispatch budget (``shard.slow``), and front-door restarts
(``router.crash``), on top of every classic storage/enclave fault —
all shards share the injector and the virtual clock, so a schedule
still replays byte-identically from its seed.

The oracle knows the *per-shard* truth: records are partitioned at
ingest time with the same keyed grid + public topology the provider
uses, so a :class:`~repro.sharding.results.PartialResult` is checked
against the truth **restricted to the shards that served it** — a
partial answer claiming shards it did not serve, or a full answer
missing a healthy shard's rows, is classified silently wrong exactly
like a wrong scalar.

Outcome classes (superset of the single-stack harness):

- **ok** — full answer matching full truth;
- **ok (partial)** — a ``PartialResult`` whose answer matches the
  served-shard-restricted truth and whose missing set is honest;
- **typed failure** — a :class:`~repro.exceptions.ConcealerError`;
  isolated shards are then (sometimes) healed and the run continues;
- **silent wrong** — any produced answer disagreeing with its oracle.

Every run ends with a **full heal + verification sweep**: all shards
must re-admit and a wildcard count per epoch must come back complete
and correct — the acceptance check that killed shards recover rather
than merely staying politely isolated.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from pathlib import Path

from repro import telemetry
from repro.core.grid import GridSpec
from repro.core.provider import DataProvider
from repro.core.queries import PointQuery, RangeQuery
from repro.core.schema import WIFI_SCHEMA
from repro.exceptions import ConcealerError
from repro.faults.chaos import (
    EPOCH_DURATION,
    MASTER_KEY,
    TIME_STEP,
    _LOCATIONS,
    _point_truth,
    _range_truth,
    ChaosOutcome,
    ChaosReport,
    _epoch_records,
    default_specs,
)
from repro.faults.clock import VirtualClock
from repro.faults.injector import FaultInjector, FaultSpec
from repro.replication.byzantine import ByzantineReplica
from repro.replication.engine import ReplicatedStorageEngine, ReplicationPolicy
from repro.storage.engine import StorageEngine
from repro.telemetry.slo import SLOMonitor
from repro.sharding.coordinator import ingest_epoch_sharded, rotate_sharded_keys
from repro.sharding.results import PartialResult
from repro.sharding.service import ShardedConfig, ShardedService


def sharded_specs() -> list[FaultSpec]:
    """The sharded chaos mix: classic faults + shard/router sites.

    ``enclave.kill.rotation`` is armed (it fires inside a shard's
    phase-1 rewrite, exercising the cross-shard abort), and the three
    sharding sites join the stream.  Probabilities are tuned so a
    typical schedule fires a couple of faults without degenerating
    into everything-always-fails.
    """
    specs = [
        spec
        if spec.site != "enclave.kill.rotation"
        else FaultSpec("enclave.kill.rotation", probability=0.05, max_fires=1)
        for spec in default_specs()
    ]
    specs += [
        FaultSpec("shard.kill", probability=0.05, max_fires=2),
        FaultSpec("shard.slow", probability=0.05, max_fires=2),
        FaultSpec("router.crash", probability=0.05, max_fires=1),
    ]
    return specs


def composed_specs() -> list[FaultSpec]:
    """The composed mix: sharded sites *plus* a Byzantine storage
    adversary inside every shard's replica group.

    This is the full gauntlet — replica-targeted tamper/stale-replay/
    bin-drop/stragglers racing shard kills, router crashes, and a
    mid-stream two-phase rotation.  The oracle contract is unchanged:
    zero silent-wrong, with in-shard failover expected to absorb most
    replica faults before the router ever sees a degraded shard.
    """
    specs = sharded_specs()
    specs += [
        FaultSpec("replica.tamper", probability=0.10, max_fires=3),
        FaultSpec("replica.replay.stale", probability=0.08, max_fires=2),
        FaultSpec("replica.bin.drop", probability=0.08, max_fires=2),
        FaultSpec("replica.slow", probability=0.05, max_fires=2),
    ]
    return specs


class ShardedChaosRun:
    """One seeded N-shard fleet + fault schedule, with a per-shard oracle."""

    def __init__(
        self,
        seed: int,
        specs: list[FaultSpec] | None = None,
        workdir: str | Path | None = None,
        shards: int = 2,
        replicas: int = 1,
    ):
        self.seed = seed
        self.shard_count = shards
        self.replicas = replicas
        self.workload_rng = random.Random(f"chaos-workload-{seed}")
        if specs is None:
            specs = composed_specs() if replicas > 1 else sharded_specs()
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
        self.config = ShardedConfig(
            shards=shards,
            replicas=replicas,
            deadline_seconds=60.0,
            breaker_reset_seconds=1e9,  # re-admission only via heal()
        )
        self.sharded = ShardedService.build(
            self.provider,
            self.config,
            self.workdir,
            clock=self.clock,
            fault_injector=self.injector,
            retry_rng_seed=f"chaos-retry-{seed}",
            engine_factory=(
                self._byzantine_group if replicas > 1 else None
            ),
        )
        self._master = MASTER_KEY
        self._rotations = 0
        # SLO monitor on the fleet's virtual clock: a shard.slow burns
        # its dispatch budget in *virtual* seconds, so the latency
        # objective trips deterministically on replay.
        self.slo = SLOMonitor(clock=self.clock)
        # Plaintext oracle: epoch -> records; epoch -> per-shard records.
        # Partitions are captured at ingest (grid keys never change for
        # an ingested epoch, so ownership is stable across rotations).
        self.oracle: dict[int, list[tuple]] = {}
        self.oracle_parts: dict[int, list[list[tuple]]] = {}

    def _byzantine_group(self, shard_id: int) -> ReplicatedStorageEngine:
        """One shard's replica group with adversarial response channels.

        Mirrors the single-stack replicated setup: replica 0's *inner*
        engine keeps the shared injector (classic storage faults still
        fire inside exactly one replica per shard), and every replica's
        response channel is Byzantine, driven by the same injector and
        clock so the composed schedule replays byte-identically.
        Replica ids restart at 0 per shard — each shard's group is its
        own failure domain.
        """
        members = []
        for rid in range(self.replicas):
            inner = StorageEngine(
                fault_injector=self.injector if rid == 0 else None
            )
            members.append(
                ByzantineReplica(
                    inner, rid, fault_injector=self.injector, clock=self.clock
                )
            )
        return ReplicatedStorageEngine(
            members,
            clock=self.clock,
            policy=ReplicationPolicy(attempt_timeout=2.0),
        )

    # ------------------------------------------------------------------- ops

    def _attempt(self, op: str, thunk, expected=None) -> ChaosOutcome:
        """Run one op; classify; sometimes heal after typed failures.

        Healing is deliberately *probabilistic* (seeded): immediate
        healing would mask the isolated-shard behaviours this harness
        exists to exercise (partial results, point-to-dead-owner), so
        roughly half the failures leave the fleet degraded for a while.
        """
        outcome = ChaosOutcome(op=op, ok=False, expected=expected)
        started = self.clock.now()
        try:
            outcome.answer = thunk()
        except ConcealerError as error:
            outcome.error = type(error).__name__
            self.slo.record(self.clock.now() - started, ok=False)
            if self.workload_rng.random() < 0.5:
                outcome.recovered = self._heal()
        else:
            outcome.ok = outcome.answer == expected
            self.slo.record(self.clock.now() - started, ok=True)
        self.report.outcomes.append(outcome)
        return outcome

    def _heal(self) -> bool:
        actions = self.sharded.heal()
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

        def run():
            counts = ingest_epoch_sharded(self.sharded, records, epoch_id)
            self.oracle[epoch_id] = records
            self.oracle_parts[epoch_id] = self.provider.partition_records(
                records, epoch_id, self.sharded.topology
            )
            return sum(counts.values())

        outcome = self._attempt("ingest", run)
        if outcome.error is None:
            outcome.ok = outcome.answer >= len(records)
        elif epoch_id not in self.oracle:
            self._heal()
            retry = self._attempt("ingest-retry", run)
            if retry.error is None:
                retry.ok = retry.answer >= len(records)
        return outcome

    def point_query(self) -> ChaosOutcome:
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("point")
        location, timestamp, _ = records[self.workload_rng.randrange(len(records))]
        expected = _point_truth(records, location, timestamp)
        return self._attempt(
            "point",
            lambda: self.sharded.execute_point(
                PointQuery(index_values=(location,), timestamp=timestamp)
            )[0],
            expected,
        )

    def range_query(self) -> ChaosOutcome:
        """A wildcard-location range count, scattered across shards.

        The location slot is a wildcard over several locations so the
        covered cell-ids genuinely span shards.  A full answer is
        checked against full truth; a partial answer against the truth
        restricted to exactly its served shards.
        """
        epoch_id, records = self._pick_epoch()
        if records is None:
            return self._skip("range")
        rng = self.workload_rng
        width = 2 + rng.randrange(len(_LOCATIONS) - 1)
        start = rng.randrange(len(_LOCATIONS))
        locations = tuple(
            _LOCATIONS[(start + i) % len(_LOCATIONS)] for i in range(width)
        )
        t0 = epoch_id + TIME_STEP * rng.randrange(2)
        t1 = t0 + TIME_STEP * (1 + rng.randrange(2))
        method = ("multipoint", "ebpb", "winsecrange")[rng.randrange(3)]
        query = RangeQuery(
            index_values=(locations,), time_start=t0, time_end=t1
        )
        expected = sum(
            _range_truth(records, location, t0, t1) for location in locations
        )

        outcome = ChaosOutcome(op="range", ok=False, expected=expected)
        started = self.clock.now()
        try:
            answer = self.sharded.execute_range(query, method=method)[0]
        except ConcealerError as error:
            outcome.error = type(error).__name__
            self.slo.record(self.clock.now() - started, ok=False)
            if self.workload_rng.random() < 0.5:
                outcome.recovered = self._heal()
        else:
            self.slo.record(self.clock.now() - started, ok=True)
            if isinstance(answer, PartialResult):
                outcome.op = "range-partial"
                outcome.expected = self._partial_truth(
                    epoch_id, answer.served_shards, locations, t0, t1
                )
                outcome.answer = answer.answer
                honest = set(answer.served_shards).isdisjoint(
                    answer.missing_shards
                )
                outcome.ok = honest and outcome.answer == outcome.expected
            else:
                outcome.answer = answer
                outcome.ok = answer == expected
        self.report.outcomes.append(outcome)
        return outcome

    def _partial_truth(
        self, epoch_id, served_shards, locations, t0, t1
    ) -> int:
        parts = self.oracle_parts[epoch_id]
        return sum(
            _range_truth(parts[shard_id], location, t0, t1)
            for shard_id in served_shards
            for location in locations
        )

    def checkpoint_cycle(self) -> ChaosOutcome:
        """Checkpoint the fleet; verify one shard's archive restores."""
        from repro.storage.checkpoint import restore_engine

        victim = self.workload_rng.randrange(self.shard_count)

        def run():
            paths = self.sharded.checkpoint_all()
            restored = restore_engine(paths[victim])
            return sorted(restored.table_names())

        expected = sorted(
            self.sharded.shards[victim].service.engine.table_names()
        )
        return self._attempt("checkpoint", run, expected)

    def rotate_keys(self) -> ChaosOutcome:
        """Two-phase cross-shard rotation; failures converge on the old
        key fleet-wide (which later queries verify implicitly)."""
        from repro.core.rotation import rotation_token

        self._rotations += 1
        new_master = hashlib.sha256(
            b"chaos-sharded-rotation|%d|%d" % (self.seed, self._rotations)
        ).digest()

        def run():
            token = rotation_token(self._master, new_master)
            rotated = rotate_sharded_keys(self.sharded, new_master, token)
            self._master = new_master
            return rotated

        outcome = self._attempt("rotate", run)
        if outcome.error is None:
            outcome.ok = True
        return outcome

    def router_crash(self) -> ChaosOutcome:
        """The front-door process dies and restarts.

        Shard state (host-side storage, enclaves) survives — only the
        router object, its fence, and its plan caches are lost.  The
        rebuilt router must serve correct answers immediately, which
        the following ops check against the unchanged oracle.
        """
        self.sharded = ShardedService(
            self.provider,
            self.sharded.topology,
            self.sharded.shards,
            clock=self.clock,
            config=self.config,
            fault_injector=self.injector,
        )
        outcome = ChaosOutcome(op="router-restart", ok=True)
        self.report.outcomes.append(outcome)
        return outcome

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

    def final_verify(self) -> None:
        """Heal everything, then demand complete, correct epoch counts.

        This is the re-admission acceptance check: after the run's
        crashes, every shard must recover (re-attest, restore, probe)
        and a wildcard count per epoch must be a *full* (non-partial)
        answer equal to the epoch's true record count.  The injector is
        disarmed first — this sweep measures recovery, not tolerance of
        yet more faults (disarming is deterministic, so replay holds).
        """
        from repro.faults.injector import FAULT_SITES

        for site in FAULT_SITES:
            self.injector.disarm(site)
        self._heal()
        for epoch_id, records in sorted(self.oracle.items()):
            outcome = ChaosOutcome(
                op="final-verify", ok=False, expected=len(records)
            )
            try:
                answer = self.sharded.execute_range(
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

    def run(self, ops: int = 12) -> ChaosReport:
        """Execute the seeded schedule over the fleet.

        Spans are captured into a run-scoped tracer (kept on the
        report, like the registry) and the SLO monitor is evaluated
        once at the end of the op stream — *before* the final heal
        sweep, so the alerts describe the faulted workload, not the
        recovery.  Neither feeds ``fingerprint()``: replay determinism
        is about outcomes and the schedule.
        """
        with telemetry.scoped_registry() as registry, \
                telemetry.scoped_tracer(clock=self.clock) as tracer:
            try:
                self.ingest(0)
                for index in range(ops):
                    if self.injector.fire("router.crash") is not None:
                        self.router_crash()
                    if index == ops // 2 and EPOCH_DURATION not in self.oracle:
                        self.ingest(EPOCH_DURATION)
                        continue
                    if index == max(1, (2 * ops) // 3):
                        self.rotate_keys()
                        continue
                    draw = self.workload_rng.random()
                    if draw < 0.35:
                        self.point_query()
                    elif draw < 0.85:
                        self.range_query()
                    else:
                        self.checkpoint_cycle()
                    # Replicated fleets run periodic anti-entropy repair
                    # (fenced against the cross-shard journal) just like
                    # a production repair cron would.
                    if self.replicas > 1 and index % 4 == 3:
                        self.sharded.repair_replicas()
                if self.replicas > 1:
                    self.sharded.repair_replicas()
                self.report.slo_alerts = list(self.slo.evaluate())
                self.final_verify()
            finally:
                self.report.schedule = self.injector.encode_schedule()
                self.report.faults_fired = len(self.injector.fired)
                self.report.telemetry = registry
                self.report.traces = tracer.traces()
                if self._tmp is not None:
                    self._tmp.cleanup()
        return self.report
