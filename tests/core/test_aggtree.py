"""The hierarchical aggregate tree: shape, wire, and differential tests.

The load-bearing property is *byte-identical answers*: for every
eligible query the tree path must return exactly what the bin path
returns — over seeded datasets, random windows, verify on and off —
and any tampered node must surface as a structured violation (verify
on) or a silent fallback to the authoritative bin path (verify off),
never as a wrong answer.
"""

from __future__ import annotations

import random

import pytest

from repro import GridSpec, WIFI_SCHEMA
from repro.core import aggtree
from repro.core.queries import Aggregate, Predicate, RangeQuery
from repro.exceptions import EpochError, IntegrityViolation, QueryError
from repro.workloads.queries import build_q1, build_q2

from tests.conftest import make_stack

EPOCH_DURATION = 3600
TIME_STEP = 60
LOCATIONS = tuple(f"ap{i}" for i in range(6))
# Prefix dimension (8) exceeds the distinct location count, so the
# default entity budget fits every combination and the tree ships.
SPEC = GridSpec(
    dimension_sizes=(8, 24), cell_id_count=48, epoch_duration=EPOCH_DURATION
)


def tree_records(seed: int = 7, devices: int = 10) -> list[tuple]:
    rng = random.Random(seed)
    return [
        (LOCATIONS[rng.randrange(len(LOCATIONS))], t, f"dev{d}")
        for t in range(0, EPOCH_DURATION, TIME_STEP)
        for d in range(devices)
    ]


def count_truth(records, location, t0, t1) -> int:
    return sum(1 for r in records if r[0] == location and t0 <= r[1] <= t1)


# --------------------------------------------------------------- tree shape


class TestCoverNodes:
    def _leaves_of(self, level, index, fanout, leaf_count):
        span = fanout**level
        return range(index * span, min((index + 1) * span, leaf_count))

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_cover_is_exact_and_disjoint(self, fanout):
        leaf_count = 24
        rng = random.Random(fanout)
        for _ in range(200):
            lo = rng.randrange(leaf_count)
            hi = rng.randrange(lo, leaf_count)
            cover = aggtree.cover_nodes(lo, hi, fanout, leaf_count)
            covered = []
            for level, index in cover:
                covered.extend(self._leaves_of(level, index, fanout, leaf_count))
            assert covered == list(range(lo, hi + 1)), (lo, hi, cover)

    def test_cover_is_logarithmic(self):
        # O(2·k·log range) bound: full 1024-leaf range needs one root,
        # and any range stays far under the leaf count.
        assert aggtree.cover_nodes(0, 1023, 4, 1024) == [(5, 0)]
        rng = random.Random(42)
        for _ in range(100):
            lo = rng.randrange(1024)
            hi = rng.randrange(lo, 1024)
            cover = aggtree.cover_nodes(lo, hi, 4, 1024)
            assert len(cover) <= 2 * 4 * 6  # 2·k·log_k(leaves)

    def test_out_of_range_cover_rejected(self):
        with pytest.raises(EpochError):
            aggtree.cover_nodes(0, 24, 4, 24)


class TestDecompose:
    def test_residues_and_full_span_partition_the_range(self):
        leaf_count = 24
        rng = random.Random(99)
        for _ in range(200):
            t0 = rng.randrange(EPOCH_DURATION)
            t1 = rng.randrange(t0, EPOCH_DURATION)
            span = aggtree.decompose_range(0, EPOCH_DURATION, leaf_count, t0, t1)
            stamps = set()
            for lo, hi in span.residues:
                stamps.update(range(lo, hi + 1))
            for bucket in range(span.full_lo, span.full_hi + 1):
                lo, hi = aggtree.bucket_bounds(0, EPOCH_DURATION, leaf_count, bucket)
                stamps.update(range(lo, hi + 1))
            assert stamps == set(range(t0, t1 + 1)), (t0, t1, span)

    def test_full_epoch_has_no_residue(self):
        span = aggtree.decompose_range(0, EPOCH_DURATION, 24, 0, EPOCH_DURATION - 1)
        assert span.residues == ()
        assert span.full_buckets == 24


class TestNodeCodec:
    def test_round_trip_and_tamper(self):
        mac_key = bytes(32)
        node = aggtree.encode_node(mac_key, 3, 1, 5, 7, [(100, 2, 60)])
        assert aggtree.decode_node(mac_key, node, 3, 1, 5, 1) == (7, [(100, 2, 60)])
        with pytest.raises(ValueError):
            # Substitution: right bytes, wrong position.
            aggtree.decode_node(mac_key, node, 3, 1, 6, 1)
        flipped = node[:10] + bytes([node[10] ^ 1]) + node[11:]
        with pytest.raises(ValueError):
            aggtree.decode_node(mac_key, flipped, 3, 1, 5, 1)

    def test_wire_round_trip(self):
        provider, service = make_stack(SPEC, tree_records())
        tree = service.engine._table("epoch_0").agg_tree
        assert tree is not None
        clone = aggtree.AggTree.from_bytes(tree.to_bytes())
        assert clone.digest() == tree.digest()
        assert clone.meta().enc_root_tag == tree.meta().enc_root_tag


# ------------------------------------------------------------- differential


TREE_AGGREGATES = [Aggregate.COUNT, Aggregate.SUM, Aggregate.MIN, Aggregate.MAX]


class TestDifferential:
    @pytest.mark.parametrize("verify", [False, True])
    def test_tree_matches_bin_path_on_random_windows(self, verify):
        records = tree_records()
        _, service = make_stack(SPEC, records, verify=verify)
        rng = random.Random(0xD1FF)
        for _ in range(25):
            t0 = rng.randrange(EPOCH_DURATION)
            t1 = rng.randrange(t0, EPOCH_DURATION)
            location = rng.choice(LOCATIONS + ("ap-absent",))
            for aggregate in TREE_AGGREGATES:
                query = RangeQuery(
                    index_values=(location,),
                    time_start=t0,
                    time_end=t1,
                    aggregate=aggregate,
                    target=None if aggregate is Aggregate.COUNT else "time",
                )
                a_tree, _ = service.execute_range(query, method="tree")
                a_bin, _ = service.execute_range(query, method="multipoint")
                assert a_tree == a_bin, (aggregate, location, t0, t1)

    def test_count_matches_ground_truth(self):
        records = tree_records()
        _, service = make_stack(SPEC, records)
        for t0, t1 in [(0, EPOCH_DURATION - 1), (120, 3400), (600, 1800), (0, 0)]:
            answer, _ = service.execute_range(
                build_q1("ap3", t0, t1), method="tree"
            )
            assert answer == count_truth(records, "ap3", t0, t1)

    def test_absent_combination_answers_like_empty(self):
        """A decoy entity's nodes are fetched but never counted."""
        records = tree_records()
        _, service = make_stack(SPEC, records)
        query = build_q1("ap-none", 0, EPOCH_DURATION - 1)
        answer, stats = service.execute_range(query, method="tree")
        assert answer == 0
        # Volume hiding: the absent combination still touched the same
        # public node cover as a present one.
        assert stats.extra["tree_nodes_fetched"] >= 1

    def test_long_window_fetches_log_nodes_not_rows(self):
        records = tree_records()
        _, service = make_stack(SPEC, records)
        query = build_q1("ap1", 0, EPOCH_DURATION - 1)
        _, tree_stats = service.execute_range(query, method="tree")
        _, bin_stats = service.execute_range(query, method="multipoint")
        assert tree_stats.extra["tree_nodes_fetched"] == 1  # the root
        assert tree_stats.rows_fetched < bin_stats.rows_fetched / 10


# ------------------------------------------------------------------ planner


class TestPlanner:
    def test_auto_prefers_tree_for_long_eligible_windows(self):
        _, service = make_stack(SPEC, tree_records())
        context = service.context_for(0)
        long_q = build_q1("ap0", 0, EPOCH_DURATION - 1)
        assert service.choose_range_method(long_q, context) == "tree"
        short_q = build_q1("ap0", 0, 30)
        assert service.choose_range_method(short_q, context) != "tree"

    def test_oblivious_refuses_and_never_chooses_tree(self):
        _, service = make_stack(SPEC, tree_records(), oblivious=True)
        context = service.context_for(0)
        query = build_q1("ap0", 0, EPOCH_DURATION - 1)
        assert service.choose_range_method(query, context) != "tree"
        with pytest.raises(QueryError):
            service.execute_range(query, method="tree")

    def test_ineligible_shapes_refused_explicitly(self):
        _, service = make_stack(SPEC, tree_records())
        top_k = build_q2(LOCATIONS, 0, EPOCH_DURATION - 1, k=2)
        with pytest.raises(QueryError):
            service.execute_range(top_k, method="tree")
        predicated = RangeQuery(
            index_values=("ap0",),
            time_start=0,
            time_end=EPOCH_DURATION - 1,
            aggregate=Aggregate.COUNT,
            predicate=Predicate(group=("observation",), values=("dev1",)),
        )
        with pytest.raises(QueryError):
            service.execute_range(predicated, method="tree")

    def test_eligibility_is_public(self):
        """tree_eligible consults shape and schema only — no service."""
        from repro.core.range_query import RangeExecutor

        query = build_q1("ap0", 0, 600)
        assert RangeExecutor.tree_eligible(query, WIFI_SCHEMA)
        sweep = RangeQuery(
            index_values=((LOCATIONS),),
            time_start=0,
            time_end=600,
            aggregate=Aggregate.COUNT,
        )
        assert not RangeExecutor.tree_eligible(sweep, WIFI_SCHEMA)


# ------------------------------------------------------------------- tamper


def _corrupt_every_node(service, table="epoch_0"):
    tree = service.engine._table(table).agg_tree
    for which in range(tree.node_count):
        tree = tree.with_corrupted_node(which, 3)
    service.engine._table(table).agg_tree = tree


class TestTamper:
    def test_verify_on_raises_structured_violation(self):
        _, service = make_stack(SPEC, tree_records(), verify=True)
        _corrupt_every_node(service)
        with pytest.raises(IntegrityViolation) as excinfo:
            service.execute_range(
                build_q1("ap1", 0, EPOCH_DURATION - 1), method="tree"
            )
        assert excinfo.value.kind in ("undecryptable", "tree-node")

    def test_verify_off_falls_back_to_correct_bin_answer(self):
        records = tree_records()
        _, service = make_stack(SPEC, records, verify=False)
        _corrupt_every_node(service)
        answer, _ = service.execute_range(
            build_q1("ap1", 0, EPOCH_DURATION - 1), method="tree"
        )
        assert answer == count_truth(records, "ap1", 0, EPOCH_DURATION - 1)

    def test_any_flipped_byte_position_is_detected(self):
        """No byte position of the stored nodes decodes silently wrong."""
        _, service = make_stack(SPEC, tree_records(), verify=True)
        table = service.engine._table("epoch_0")
        pristine = table.agg_tree
        query = build_q1("ap1", 0, EPOCH_DURATION - 1)
        node_width = pristine.meta().node_width
        rng = random.Random(1)
        offsets = sorted(
            {0, 1, node_width - 1, *(rng.randrange(node_width) for _ in range(5))}
        )
        for offset in offsets:
            tree = pristine
            for which in range(pristine.node_count):
                tree = tree.with_corrupted_node(which, offset)
            table.agg_tree = tree
            # Every node (so certainly the fetched cover) carries a
            # flipped byte at this position; it must never decode.
            with pytest.raises(IntegrityViolation):
                service.execute_range(query, method="tree")
        table.agg_tree = pristine


# ----------------------------------------------------------- storage faults


class TestStorageFaults:
    def test_storage_corrupt_channel_detected(self):
        from repro.faults.injector import FaultInjector, FaultSpec
        from repro.storage.engine import StorageEngine

        injector = FaultInjector(
            seed=5,
            specs=[FaultSpec(site="storage.tree.corrupt", probability=1.0)],
        )
        engine = StorageEngine(fault_injector=injector)
        records = tree_records()
        _, service = make_stack(SPEC, records, verify=True, engine=engine)
        with pytest.raises(IntegrityViolation):
            service.execute_range(
                build_q1("ap1", 0, EPOCH_DURATION - 1), method="tree"
            )

    def test_byzantine_replica_absorbed_by_failover(self):
        from repro.faults.injector import FaultInjector, FaultSpec
        from repro.replication.byzantine import ByzantineReplica
        from repro.replication.engine import (
            ReplicatedStorageEngine,
            ReplicationPolicy,
        )
        from repro.storage.engine import StorageEngine

        injector = FaultInjector(
            seed=3, specs=[FaultSpec(site="replica.tamper", probability=1.0)]
        )
        engine = ReplicatedStorageEngine(
            [
                ByzantineReplica(StorageEngine(), 0, fault_injector=injector),
                StorageEngine(),
            ],
            policy=ReplicationPolicy(attempt_timeout=None),
        )
        records = tree_records()
        _, service = make_stack(SPEC, records, verify=True, engine=engine)
        query = build_q1("ap1", 0, EPOCH_DURATION - 1)
        answer, stats = service.execute_range(query, method="tree")
        assert answer == count_truth(records, "ap1", 0, EPOCH_DURATION - 1)
        assert stats.failovers >= 1


# -------------------------------------------------------------- mutation


class TestInvalidation:
    def test_any_mutation_drops_the_sidecar_and_falls_back(self):
        records = tree_records()
        _, service = make_stack(SPEC, records)
        table = service.engine._table("epoch_0")
        assert table.agg_tree is not None
        row = next(iter(table.scan()))
        # An index-preserving mutation (same bytes rewritten) still
        # drops the derived sidecar.
        service.engine.overwrite("epoch_0", row.row_id, list(row.columns))
        assert table.agg_tree is None
        # The tree method still answers — via the bin path.
        answer, stats = service.execute_range(
            build_q1("ap1", 600, 1800), method="tree"
        )
        assert "tree_nodes_fetched" not in stats.extra
