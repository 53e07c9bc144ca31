"""Topology properties: deterministic, balanced, and data-independent.

The cell-id → shard map is the one piece of routing the untrusted host
can observe per query, so these tests pin down its three contracts:
the mapping is a *pure function* of (cell-id, shard count) — same on
every process, every run, every replica of the router; it spreads cells
uniformly (±20 %) at fleet sizes that matter; and the scatter plan it
produces is deterministically ordered, so merged answers (COLLECT
order, chaos fingerprints) never depend on dict iteration or timing.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sharding import topology as topology_module
from repro.sharding.topology import ShardTopology

# Frozen expected mappings: a change here is a *re-sharding event* —
# every deployed fleet's data placement would silently rot, so the
# constant in topology.py must never change compatibility-silently.
GOLDEN_2 = [1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0]
GOLDEN_4 = [3, 1, 3, 2, 3, 3, 1, 2, 1, 1, 1, 0]
GOLDEN_8 = [3, 5, 7, 2, 3, 7, 5, 6, 5, 5, 5, 0]


class TestDeterminism:
    @pytest.mark.parametrize(
        "count,golden", [(2, GOLDEN_2), (4, GOLDEN_4), (8, GOLDEN_8)]
    )
    def test_mapping_matches_frozen_golden_values(self, count, golden):
        topology = ShardTopology(count)
        assert [topology.shard_of(c) for c in range(len(golden))] == golden

    def test_mapping_identical_across_instances(self):
        a, b = ShardTopology(4), ShardTopology(4)
        cells = random.Random(5).sample(range(1 << 32), 500)
        assert [a.shard_of(c) for c in cells] == [b.shard_of(c) for c in cells]

    def test_mapping_is_a_pure_function_of_the_cell_id(self):
        """No keys, no state: calling in any order gives the same map —
        the routing decision cannot encode anything data-dependent."""
        topology = ShardTopology(4)
        forward = [topology.shard_of(c) for c in range(256)]
        backward = [topology.shard_of(c) for c in reversed(range(256))]
        assert forward == list(reversed(backward))


class TestBalance:
    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_uniform_within_twenty_percent_over_10k_cells(self, count):
        topology = ShardTopology(count)
        loads = [0] * count
        for cell_id in range(10_000):
            loads[topology.shard_of(cell_id)] += 1
        expected = 10_000 / count
        for shard_id, load in enumerate(loads):
            assert abs(load - expected) <= 0.20 * expected, (
                f"shard {shard_id} holds {load} of 10k cells "
                f"(expected {expected:.0f} ±20%)"
            )

    def test_every_shard_owns_something(self):
        topology = ShardTopology(8)
        owned = {topology.shard_of(c) for c in range(10_000)}
        assert owned == set(range(8))


class TestScatterPlan:
    def test_participants_are_every_owner(self):
        topology = ShardTopology(3)
        cells = set(random.Random(9).sample(range(100_000), 200))
        assert set(topology.participants(cells)) == {
            topology.shard_of(c) for c in cells
        }

    def test_participants_ascend_whatever_the_cell_order(self):
        """Ascending shard ids — the property the cross-shard merge
        (COLLECT order!) relies on."""
        topology = ShardTopology(4)
        cells = random.Random(3).sample(range(50_000), 300)
        plan = topology.participants(cells)
        assert list(plan) == sorted(set(plan))
        shuffled = list(cells)
        random.Random(4).shuffle(shuffled)
        assert topology.participants(shuffled) == plan

    def test_single_shard_owns_everything(self):
        topology = ShardTopology(1)
        assert topology.participants([5, 9, 2]) == (0,)


def unmemoised_owner(cell_id: int, shard_count: int) -> int:
    """The map's formula, straight from its definition."""
    digest = hashlib.sha256(b"concealer-shard|%d" % cell_id).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


class TestMemo:
    """The process-wide memo is only a cache of the formula above."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 40), max_size=80),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_memoised_map_is_the_formula(self, cells, count, other):
        topology, neighbour = ShardTopology(count), ShardTopology(other)
        for cell_id in cells:  # interleave two shard counts on one memo
            assert topology.shard_of(cell_id) == unmemoised_owner(cell_id, count)
            assert neighbour.shard_of(cell_id) == unmemoised_owner(cell_id, other)
        expected = tuple(sorted({unmemoised_owner(c, count) for c in cells}))
        assert topology.participants(cells) == expected
        assert topology.participants(reversed(cells)) == expected

    def test_shard_counts_never_share_an_entry(self):
        cells = range(64)
        two = [ShardTopology(2).shard_of(c) for c in cells]
        three = [ShardTopology(3).shard_of(c) for c in cells]
        assert two == [unmemoised_owner(c, 2) for c in cells]
        assert three == [unmemoised_owner(c, 3) for c in cells]
        assert max(three) == 2  # a shared entry would cap it at 1
        assert [ShardTopology(2).shard_of(c) for c in cells] == two

    def test_warm_map_hashes_nothing(self, monkeypatch):
        topology = ShardTopology(4)
        cells = list(range(1000, 1200))
        plan = topology.participants(cells)
        owners = [unmemoised_owner(c, 4) for c in cells]
        calls = []
        real = topology_module.hashlib.sha256
        monkeypatch.setattr(
            topology_module.hashlib, "sha256", lambda *a: calls.append(a) or real(*a)
        )
        assert topology.participants(cells) == plan
        assert [topology.shard_of(c) for c in cells] == owners
        assert calls == []


class TestValidation:
    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError):
            ShardTopology(0)
        with pytest.raises(ValueError):
            ShardTopology(-2)

    def test_all_shards(self):
        assert ShardTopology(3).all_shards() == (0, 1, 2)
