"""Cell-id → shard placement: deterministic, unkeyed, public-size.

The sharded tier partitions *by cell-id*, the same unit the bin store
already exposes to the host: which cell-ids a query touches is exactly
the L_q access-pattern leakage of the paper, so routing on a public
hash of the cell-id tells the adversary nothing it does not already
see.  Deliberately **unkeyed** (plain SHA-256 over the cell-id, no
secret material): a keyed map would suggest the placement hides
something, and a hidden placement could not be computed by the
untrusted router anyway.

Determinism matters twice over: the data provider partitions records
with the same map the router plans queries with (no resharding
metadata to ship), and chaos replays depend on the map never moving
between runs or hosts (``PYTHONHASHSEED`` does not affect it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# shard count → {cell-id: owner}.  The map is an unkeyed public function
# of ``(cell_id, shard_count)``, so one process-wide memo serves every
# topology instance and leaks nothing (SECURITY.md); it saves the router
# a SHA-256 per covered cell-id on every request.  Cell-ids are bounded
# by the grid's ``u``; the cap only stops a stray caller growing it.
_OWNERS: dict[int, dict[int, int]] = {}
_OWNERS_MAX = 1 << 16


@dataclass(frozen=True)
class ShardTopology:
    """The static cell-id → shard map for one deployment.

    >>> topo = ShardTopology(4)
    >>> topo.shard_of(7) == topo.shard_of(7)
    True
    >>> topo.participants([0, 1, 2, 3]) == tuple(sorted(
    ...     {topo.shard_of(c) for c in range(4)}))
    True
    """

    shard_count: int

    def __post_init__(self):
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")

    def shard_of(self, cell_id: int) -> int:
        """The shard owning one cell-id (uniform by SHA-256 avalanche)."""
        memo = _OWNERS.setdefault(self.shard_count, {})
        owner = memo.get(cell_id)
        if owner is None:
            digest = hashlib.sha256(b"concealer-shard|%d" % cell_id).digest()
            owner = int.from_bytes(digest[:8], "big") % self.shard_count
            if len(memo) >= _OWNERS_MAX:
                memo.clear()
            memo[cell_id] = owner
        return owner

    def participants(self, cell_ids) -> tuple[int, ...]:
        """The shards owning any of ``cell_ids``, in ascending shard id.

        The sorted order is what makes scatter-gather merges
        deterministic: participants are visited in ascending shard id
        regardless of the set/iteration order the planner produced.
        """
        cells = list(cell_ids)
        owners = set(map(_OWNERS.get(self.shard_count, {}).get, cells))
        if None in owners:
            owners = set(map(self.shard_of, cells))
        return tuple(sorted(owners))

    def all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.shard_count))
