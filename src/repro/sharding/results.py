"""Typed results for scatter-gather queries over a degraded fleet.

The sharded tier's contract under failure is *fail open, loudly typed*:
a range query whose participant set includes isolated shards does not
raise — it returns a :class:`PartialResult` that names exactly which
shards answered (verified) and which were missing, with the merged
answer covering only the served partitions.  Callers that need
completeness check :attr:`PartialResult.complete`; callers that can
tolerate partial coverage (dashboards, monitoring) read the answer and
the shard sets.  A partial answer that *mis-states* its served set
would be silent wrongness — the sharded chaos oracle checks partial
answers against the truth restricted to the named served shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queries import QueryStats


@dataclass(frozen=True)
class PartialResult:
    """A scatter-gather answer covering only the healthy shards.

    ``answer`` merges the served shards' sub-answers (ascending shard
    id); ``missing_shards`` names every participant that was isolated,
    with ``errors`` carrying the typed error name each one failed with.
    """

    answer: object
    served_shards: tuple[int, ...]
    missing_shards: tuple[int, ...]
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.missing_shards

    def __repr__(self) -> str:  # compact, oracle-friendly
        return (
            f"PartialResult(answer={self.answer!r}, "
            f"served={list(self.served_shards)}, "
            f"missing={list(self.missing_shards)})"
        )


def merged_stats(
    per_shard: dict[int, QueryStats],
    missing: tuple[int, ...] = (),
) -> QueryStats:
    """Fold per-shard stats into one request-level view.

    Volume counters add; ``verified`` holds only if *every* serving
    shard verified.  The verified shard set rides in ``extra`` —
    ``verified_shards`` / ``missing_shards`` — which is how QueryStats
    names the shards behind a (partial) answer without growing a new
    field for every consumer of the existing struct.
    """
    merged = QueryStats()
    for shard_id in sorted(per_shard):
        stats = per_shard[shard_id]
        merged.add(stats)
        merged.oblivious = merged.oblivious or stats.oblivious
    merged.verified = bool(per_shard) and all(
        stats.verified for stats in per_shard.values()
    )
    merged.degraded = merged.degraded or bool(missing)
    merged.extra["verified_shards"] = tuple(
        shard_id
        for shard_id in sorted(per_shard)
        if per_shard[shard_id].verified
    )
    merged.extra["missing_shards"] = tuple(sorted(missing))
    return merged


@dataclass
class ShardedQueryStats:
    """Request-level stats plus the per-shard breakdown."""

    merged: QueryStats
    per_shard: dict[int, QueryStats] = field(default_factory=dict)

    @classmethod
    def single(cls, shard_id: int, stats: QueryStats) -> "ShardedQueryStats":
        """A request one shard served whole (a point query)."""
        return cls(merged=merged_stats({shard_id: stats}), per_shard={shard_id: stats})

    @property
    def verified_shards(self) -> tuple[int, ...]:
        return self.merged.extra.get("verified_shards", ())

    @property
    def missing_shards(self) -> tuple[int, ...]:
        return self.merged.extra.get("missing_shards", ())
