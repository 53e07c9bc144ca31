"""Tracing from outside: wrap the layers' public entry points.

Nothing under ``src/`` knows about this file.  :class:`OutsideTracer`
replaces each entry point named in :data:`ENTRY_POINTS` with a wrapper
that records a span ``(id, parent, request, name, start, end)``; spans
stay in memory and are dumped when the server child exits.  A request's
id is the program's own trace id (``tracing.current_trace_id()``), which
the door already returns on every query response, so the load generator
can join its client-side round trip to the server-side tree.

Entry points are *today's* names.  One that no longer resolves is
reported in ``OutsideTracer.missing`` (its metric then reads as absent)
and never breaks a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

from repro.telemetry import tracing

# (layer, module, class, method).  The one table a rename has to touch.
ENTRY_POINTS = [
    ("router", "repro.sharding.router", "AsyncShardRouter", "execute_point"),
    ("router", "repro.sharding.router", "AsyncShardRouter", "execute_range"),
    ("service", "repro.core.service", "ServiceProvider", "execute_point"),
    ("service", "repro.core.service", "ServiceProvider", "execute_range"),
    ("executor", "repro.core.point_query", "BPBExecutor", "execute"),
    ("executor", "repro.core.range_query", "RangeExecutor", "execute_multipoint"),
    ("executor", "repro.core.range_query", "RangeExecutor", "execute_ebpb"),
    ("executor", "repro.core.range_query", "RangeExecutor", "execute_tree"),
    ("trapdoor", "repro.core.context", "EpochContext", "trapdoors_for_cell_ids"),
    ("trapdoor", "repro.core.context", "EpochContext", "trapdoors_for_bin"),
    ("fetch", "repro.batching.fetcher", "BinFetcher", "fetch_bin"),
    ("fetch", "repro.batching.fetcher", "BinFetcher", "fetch_bin_any"),
    ("fetch", "repro.batching.fetcher", "BinFetcher", "fetch_bin_entry"),
    ("fetch", "repro.batching.fetcher", "BinFetcher", "fetch_entry_any"),
    ("fetch", "repro.batching.fetcher", "BinFetcher", "fetch_tree_nodes"),
    ("storage.read", "repro.storage.engine", "StorageEngine", "lookup_many"),
    ("storage.read", "repro.storage.engine", "StorageEngine", "fetch_packed_bin"),
    ("storage.read", "repro.storage.engine", "StorageEngine", "fetch_tree_nodes"),
    ("storage.read", "repro.storage.engine", "StorageEngine", "fetch_agg_tree_meta"),
    ("verify", "repro.core.context", "EpochContext", "verify_rows"),
    ("verify", "repro.core.context", "EpochContext", "verify_packed"),
    ("filter", "repro.core.context", "EpochContext", "match_rows"),
    ("filter", "repro.core.context", "EpochContext", "match_packed"),
    ("filter", "repro.core.context", "EpochContext", "packed_dedup_keep"),
    ("decrypt", "repro.core.context", "EpochContext", "decrypt_records"),
    ("decrypt", "repro.core.context", "EpochContext", "decrypt_packed_records"),
    ("replication", "repro.replication.engine", "ReplicatedStorageEngine", "lookup_many"),
    ("replication", "repro.replication.engine", "ReplicatedStorageEngine", "fetch_packed_bin"),
    ("replication", "repro.replication.engine", "ReplicatedStorageEngine", "fetch_tree_nodes"),
    ("treenode", "repro.core.context", "EpochContext", "tree_state"),
    ("treenode", "repro.core.context", "EpochContext", "fetch_tree_nodes"),
    ("treenode", "repro.core.context", "EpochContext", "decode_tree_nodes"),
]

# Write path and life-cycle phases: call counts and busy time only (a
# span per inserted row would cost more memory than the rows).
# (tally, module, class, method)
WRITE_POINTS = [
    ("storage.write", "repro.storage.engine", "StorageEngine", "insert"),
    ("storage.write", "repro.storage.engine", "StorageEngine", "insert_many"),
    ("storage.write", "repro.storage.engine", "StorageEngine", "store_packed_bins"),
    ("storage.write", "repro.storage.engine", "StorageEngine", "store_agg_tree"),
    ("replication.write", "repro.replication.engine", "ReplicatedStorageEngine", "insert"),
    ("replication.write", "repro.replication.engine", "ReplicatedStorageEngine", "store_packed_bins"),
    ("replication.write", "repro.replication.engine", "ReplicatedStorageEngine", "store_agg_tree"),
    ("encryptor", "repro.core.provider", "DataProvider", "encrypt_epoch_sharded"),
    ("land", "repro.core.service", "ServiceProvider", "ingest_epoch"),
    ("checkpoint", "repro.sharding.service", "ShardedService", "checkpoint_all"),
]

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))
BIN_STAGES = ("trapdoor", "fetch", "storage.read", "verify", "filter", "decrypt")


def _resolve(module: str, cls: str, method: str):
    """``(owner, plain function)`` or ``None`` when the name is gone."""
    try:
        owner = getattr(importlib.import_module(module), cls)
        raw = inspect.getattr_static(owner, method)
    except (ImportError, AttributeError):
        return None
    return (owner, raw) if inspect.isfunction(raw) else None


class OutsideTracer:
    """Span and tally wrappers, installed on request at run time.

    Outside ``install_spans`` … ``remove_spans`` the read path is the
    program's own code, so a segment measured there pays nothing —
    traced ÷ untraced latency in one process is the tracing overhead.
    """

    def __init__(self):
        self.records: list[tuple] = []   # (id, parent, request, name, start, end)
        self.tallies: dict[str, list] = {}   # name -> [calls, outermost busy s]
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_roots: dict[str, int] = {}   # request id -> open router span
        self._span_patches: list[tuple] = []   # (owner, method, original)

    # ------------------------------------------------------------- wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        if inspect.iscoroutinefunction(fn):
            # The router runs on the event loop, where requests
            # interleave: no thread-local nesting, the span is the
            # request's server-side root and is found by request id.
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                request = tracing.current_trace_id()
                span_id = next(self._ids)
                self._open_roots[request] = span_id
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._open_roots.pop(request, None)
                    self.records.append((span_id, 0, request, name, start, end))

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            request = tracing.current_trace_id()
            parent = stack[-1] if stack else self._open_roots.get(request, 0)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.records.append((span_id, parent, request, name, start, end))

        return wrapper

    def _tally_wrapper(self, tally: str, method: str, fn):
        calls = self.tallies.setdefault(f"{tally}.{method}", [0, 0.0])
        busy = self.tallies.setdefault(tally, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active = self._local.__dict__.setdefault("active", set())
            calls[0] += 1
            if tally in active:   # insert_many -> insert: time already counted
                return fn(*args, **kwargs)
            active.add(tally)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[1] += time.perf_counter() - start
                active.discard(tally)

        return wrapper

    # -------------------------------------------------------------- control

    def _patch(self, table, make_wrapper) -> list[tuple]:
        """Wrap every entry point that resolves; returns what to restore."""
        patched = []
        for group, module, cls, method in table:
            resolved = _resolve(module, cls, method)
            if resolved is None:
                name = f"{group}: {module}.{cls}.{method}"
                if name not in self.missing:
                    self.missing.append(name)
                continue
            owner, raw = resolved
            setattr(owner, method, make_wrapper(group, method, raw))
            patched.append((owner, method, raw))
        return patched

    def install_spans(self) -> None:
        self._span_patches = self._patch(
            ENTRY_POINTS,
            lambda layer, method, raw: self._span_wrapper(f"{layer}:{method}", raw),
        )

    def remove_spans(self) -> None:
        for owner, method, raw in self._span_patches:
            setattr(owner, method, raw)
        self._span_patches = []

    def install_tallies(self) -> None:
        self._patch(WRITE_POINTS, self._tally_wrapper)


# ------------------------------------------------------------------ analysis


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def request_trees(records) -> dict:
    """Group a span dump by request: ``{request: (roots, children)}``.

    Raises ``ValueError`` if a span names a parent that is not in its
    own request — the dump must parse into whole trees.
    """
    by_request: dict = {}
    for record in records:
        by_request.setdefault(record[2], []).append(record)
    trees = {}
    for request, spans in by_request.items():
        ids = {span[0] for span in spans}
        children: dict[int, list] = {}
        roots = []
        for span in spans:
            if span[1] == 0:
                roots.append(span)
            elif span[1] in ids:
                children.setdefault(span[1], []).append(span)
            else:
                raise ValueError(
                    f"span {span[0]} ({span[3]}) of request {request!r} has "
                    f"parent {span[1]} outside its request"
                )
        trees[request] = (roots, children)
    return trees


def self_times(roots, children) -> dict[str, float]:
    """Per-layer self time (s) of one request's tree.

    A span's self time is its duration minus the union of its children's
    intervals.  Children that overlap each other (shards answering in
    parallel) are scaled so each subtree contributes its share of that
    union — the layers then sum to the root's duration instead of
    counting overlapped wall time twice.
    """
    out: dict[str, float] = {}

    def visit(span, weight):
        kids = children.get(span[0], ())
        covered = _union((k[4], k[5]) for k in kids)
        layer = span[3].split(":", 1)[0]
        own = max(0.0, (span[5] - span[4]) - covered)
        out[layer] = out.get(layer, 0.0) + own * weight
        summed = sum(k[5] - k[4] for k in kids)
        if summed > 0:
            for kid in kids:
                visit(kid, weight * covered / summed)

    for root in roots:
        visit(root, 1.0)
    return out
