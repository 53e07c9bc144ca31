"""``repro.sharding`` — the multi-enclave, fault-isolated service tier.

A single Concealer stack couples one enclave to one storage engine: one
AEX or one slow bin store takes the whole deployment down.  This
package partitions the bin store **by cell-id hash** across N shards —
each a full enclave + storage + recovery stack with its own circuit
breaker and checkpoint — behind a query router that scatter-gathers
range queries and isolates unhealthy shards instead of failing closed.

Layout (host side; every shard's enclave is still the trust boundary):

- :mod:`repro.sharding.topology` — the deterministic, *unkeyed* cell-id
  → shard map (public-size by construction: the routed cell-id is
  already part of the L_q leakage the adversary sees);
- :mod:`repro.sharding.results` — :class:`PartialResult` and the
  per-shard :class:`ShardedQueryStats` naming the verified shard set;
- :mod:`repro.sharding.service` — :class:`ShardedService`: the
  synchronous scatter-gather core (what the chaos harness drives
  deterministically) plus shard health, isolation, and re-admission;
- :mod:`repro.sharding.coordinator` — two-phase epoch ingest and
  two-phase key rotation across shards, fenced by the router so no
  mixed-epoch or mixed-key answer is ever served;
- :mod:`repro.sharding.router` — the asyncio front door and the
  fleet's one admission gate: per-shard worker threads, per-shard
  deadline budgets, hedged dispatch;
- :mod:`repro.sharding.server` — ``python -m repro --serve``: a
  JSON-lines TCP front end with graceful SIGTERM/SIGINT drain.
"""

from repro.sharding.coordinator import (
    ingest_epoch_sharded,
    rotate_sharded_keys,
)
from repro.sharding.results import PartialResult, ShardedQueryStats
from repro.sharding.router import AsyncShardRouter
from repro.sharding.server import ShardServer
from repro.sharding.service import Shard, ShardedConfig, ShardedService
from repro.sharding.topology import ShardTopology

__all__ = [
    "AsyncShardRouter",
    "PartialResult",
    "Shard",
    "ShardServer",
    "ShardTopology",
    "ShardedConfig",
    "ShardedQueryStats",
    "ShardedService",
    "ingest_epoch_sharded",
    "rotate_sharded_keys",
]
