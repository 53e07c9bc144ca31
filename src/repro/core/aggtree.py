"""Hierarchical encrypted aggregate index — the "agg tree" (ROADMAP item 1).

Concealer's range path fetches every bin a window touches, so a 30-day
COUNT over one hot cell costs thousands of fixed-size bin fetches — the
cost is linear in the window.  TimeCrypt's fix for encrypted time
series is a k-ary *time-aggregation tree*: at epoch-seal time the data
provider precomputes per-entity encrypted aggregates (count / sum /
min / max) at every power-of-k time granularity, and a range aggregate
then touches a canonical cover of O(k·log range) tree nodes instead of
O(range) bins.

The construction preserves Concealer's three arguments:

- **Volume hiding** (Theorem 4.1 analogue).  Every entity gets the
  *same* tree shape for a given public epoch span: ``entity_count``
  slots (a pure function of the grid spec), each holding
  ``nodes_per_entity(fanout, time_buckets)`` fixed-width nodes.
  Entities without data are padded with fake (all-zero) nodes, and a
  queried combination that holds no data resolves — inside the enclave,
  via the encrypted directory — to a *decoy* entity whose nodes are
  fetched exactly like a real entity's.  The host-visible fetch count
  is therefore a pure function of (range length, fanout, epoch span).

- **Verification**.  Each node plaintext carries its own position
  header (entity, level, index) plus a 32-byte keyed hash-chain entry
  over the aggregate payload, and the whole node is encrypted with the
  authenticated SIV DET cipher under a tree key derived from the epoch
  key.  A flipped ciphertext byte fails SIV authentication; a
  substituted node (valid ciphertext, wrong position) fails the header
  check; a cross-epoch replay fails decryption outright (fresh epoch
  key).  A sealed root tag — ``E_nd`` over the hash chain folded across
  every node ciphertext in canonical order — supports whole-sidecar
  audits without fetching nodes individually.

- **Leakage**.  The planner's tree-vs-bin choice is computed from
  public inputs only (range length in grid time buckets, fanout, epoch
  span, aggregate kind) — never from data values.  See SECURITY.md
  item 12.

The tree is a sidecar like the packed bins: it ships in
:class:`~repro.core.epoch.EpochPackage`, is stored on
:class:`~repro.storage.table.Table`, is dropped by any row mutation,
and is fenced by the engine's ``rewrite_generation``.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import json
import struct
from dataclasses import dataclass
from functools import lru_cache

from repro.core.schema import DatasetSchema, encode_values
from repro.crypto.kernels import CHAIN_INIT, DeterministicCipher, extend_chain
from repro.crypto.prf import Prf
from repro.exceptions import EpochError

_MAGIC = b"ATR1"
_NODE_MAGIC = b"ATN1"
_DIR_MAGIC = b"ATD1"
_VERSION = 1

#: Keyed hash-chain entry width carried inside every node plaintext.
CHAIN_ENTRY_BYTES = 32

# magic 4s · entity u32 · level u8 · index u32 · count u64
_NODE_HEAD = struct.Struct(">4sIBIQ")
# per-target sum / min / max, signed 64-bit
_NODE_TARGET = struct.Struct(">qqq")
# directory entry: 16-byte keyed combo digest · entity u32
_DIR_ENTRY = struct.Struct(">16sI")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


# ------------------------------------------------------------------- keys


def derive_tree_keys(epoch_key: bytes) -> tuple[bytes, bytes]:
    """(encryption key, MAC key) for one epoch's tree, from the epoch key.

    Both the data provider and the enclave derive these independently;
    storage never holds either, so it can neither read aggregates nor
    forge a node that decrypts.
    """
    prf = Prf(epoch_key)
    return prf.derive_key("aggtree-enc"), prf.derive_key("aggtree-mac")


def combo_digest(mac_key: bytes, index_values: tuple) -> bytes:
    """Keyed digest of one index-value combination (directory key)."""
    return _hmac.digest(
        mac_key, b"aggtree-combo\x1f" + encode_values(index_values), "sha256"
    )


def decoy_entity(digest: bytes, entity_count: int) -> int:
    """The fake entity an absent combination resolves to (volume hiding)."""
    return int.from_bytes(digest[16:24], "big") % entity_count


def tree_targets(schema: DatasetSchema) -> tuple[str, ...]:
    """Attributes the tree aggregates — a pure public function of schema.

    Only the time attribute is guaranteed integer-typed for every
    schema, so it is the one value target; the planner checks a query's
    ``target`` against this same function, keeping tree eligibility
    public.
    """
    return (schema.time_attribute,)


def default_entity_count(total_cells: int, time_buckets: int) -> int:
    """Default tree capacity: the grid's time-free prefix cell count.

    One entity per prefix cell is the natural analogue of the grid's
    public geometry — any dataset respecting the grid's nominal value
    cardinality fits.
    """
    return max(1, total_cells // max(1, time_buckets))


# ------------------------------------------------------------------ shape


@lru_cache(maxsize=128)
def tree_height(fanout: int, leaf_count: int) -> int:
    """Smallest H with ``fanout**H >= leaf_count`` (root level index)."""
    if fanout < 2:
        raise EpochError("tree fanout must be >= 2")
    if leaf_count < 1:
        raise EpochError("tree needs at least one leaf")
    height, span = 0, 1
    while span < leaf_count:
        height, span = height + 1, span * fanout
    return height


@lru_cache(maxsize=128)
def level_sizes(fanout: int, leaf_count: int) -> tuple[int, ...]:
    """Node counts per level, leaves (level 0) through root."""
    return tuple(
        -(-leaf_count // fanout**h)
        for h in range(tree_height(fanout, leaf_count) + 1)
    )


def nodes_per_entity(fanout: int, leaf_count: int) -> int:
    """Total nodes in one entity's tree (identical for every entity)."""
    return sum(level_sizes(fanout, leaf_count))


@lru_cache(maxsize=128)
def _level_offsets(fanout: int, leaf_count: int) -> tuple[int, ...]:
    offsets, total = [], 0
    for size in level_sizes(fanout, leaf_count):
        offsets.append(total)
        total += size
    return tuple(offsets)


def cover_nodes(
    lo: int, hi: int, fanout: int, leaf_count: int
) -> list[tuple[int, int]]:
    """Canonical aligned cover of full buckets ``[lo, hi]`` (inclusive).

    Returns ``(level, index)`` pairs, left to right; node ``(h, i)``
    covers buckets ``[i·k^h, (i+1)·k^h − 1]``.  Buckets past
    ``leaf_count`` are virtual (always empty), so a node overhanging the
    real end is usable whenever the range runs to the end — that is
    what bounds the cover at O(2·k·log range) nodes.  A pure function
    of public inputs: the planner and the leakage audit rely on that.
    """
    if not (0 <= lo <= hi < leaf_count):
        raise EpochError(f"cover [{lo}, {hi}] outside leaves [0, {leaf_count})")
    height = tree_height(fanout, leaf_count)
    cover: list[tuple[int, int]] = []
    pos = lo
    while pos <= hi:
        level, span = 0, 1
        while level < height:
            next_span = span * fanout
            if pos % next_span:
                break
            if pos + next_span - 1 > hi and hi != leaf_count - 1:
                break
            level, span = level + 1, next_span
        cover.append((level, pos // span))
        pos += span
    return cover


@dataclass(frozen=True)
class TreeSpan:
    """Public decomposition of a closed timestamp range over one epoch.

    ``full_lo..full_hi`` are the fully-covered grid time buckets the
    tree answers (empty when ``full_lo > full_hi``); ``residues`` are
    the at-most-two partial-bucket timestamp ranges the bin path must
    answer.  Everything here is a pure function of (range, epoch id,
    epoch duration, bucket count) — no data values.
    """

    full_lo: int
    full_hi: int
    residues: tuple[tuple[int, int], ...]

    @property
    def full_buckets(self) -> int:
        return max(0, self.full_hi - self.full_lo + 1)


def bucket_bounds(
    epoch_id: int, epoch_duration: int, leaf_count: int, bucket: int
) -> tuple[int, int]:
    """Inclusive absolute timestamp bounds of one grid time bucket."""
    lo = epoch_id + -(-bucket * epoch_duration // leaf_count)
    hi = epoch_id + -(-(bucket + 1) * epoch_duration // leaf_count) - 1
    return lo, hi


def decompose_range(
    epoch_id: int, epoch_duration: int, leaf_count: int, start: int, end: int
) -> TreeSpan:
    """Split ``[start, end]`` into full tree buckets plus edge residues."""
    if end < start:
        raise EpochError("range end precedes start")
    span = leaf_count
    b0 = (start - epoch_id) * span // epoch_duration
    b1 = (end - epoch_id) * span // epoch_duration
    full_lo = b0 if start <= bucket_bounds(epoch_id, epoch_duration, span, b0)[0] else b0 + 1
    full_hi = b1 if end >= bucket_bounds(epoch_id, epoch_duration, span, b1)[1] else b1 - 1
    if full_lo > full_hi:
        return TreeSpan(full_lo=1, full_hi=0, residues=((start, end),))
    residues = []
    left_edge = bucket_bounds(epoch_id, epoch_duration, span, full_lo)[0]
    if start < left_edge:
        residues.append((start, left_edge - 1))
    right_edge = bucket_bounds(epoch_id, epoch_duration, span, full_hi)[1]
    if end > right_edge:
        residues.append((right_edge + 1, end))
    return TreeSpan(full_lo=full_lo, full_hi=full_hi, residues=tuple(residues))


# ------------------------------------------------------------------- nodes


def node_plain_width(target_count: int) -> int:
    """Fixed node plaintext width for a target count (volume hiding)."""
    return _NODE_HEAD.size + target_count * _NODE_TARGET.size + CHAIN_ENTRY_BYTES


def _chain_entry(mac_key: bytes, head_and_body: bytes) -> bytes:
    return _hmac.digest(mac_key, b"aggtree-node\x1f" + head_and_body, "sha256")


def encode_node(
    mac_key: bytes,
    entity: int,
    level: int,
    index: int,
    count: int,
    aggs: list[tuple[int, int, int]],
) -> bytes:
    """Serialize one node plaintext: position header, aggregates, entry."""
    head = _NODE_HEAD.pack(_NODE_MAGIC, entity, level, index, count)
    body = b"".join(_NODE_TARGET.pack(*agg) for agg in aggs)
    return head + body + _chain_entry(mac_key, head + body)


def decode_node(
    mac_key: bytes,
    plaintext: bytes,
    entity: int,
    level: int,
    index: int,
    target_count: int,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Verify a node plaintext against its expected position and entry.

    Returns ``(count, [(sum, min, max), ...])``; raises ``ValueError``
    on any mismatch (the caller wraps it into an IntegrityViolation).
    """
    if len(plaintext) != node_plain_width(target_count):
        raise ValueError("tree node has unexpected width")
    head_body, entry = plaintext[:-CHAIN_ENTRY_BYTES], plaintext[-CHAIN_ENTRY_BYTES:]
    if not _hmac.compare_digest(entry, _chain_entry(mac_key, head_body)):
        raise ValueError("tree node hash-chain entry mismatch")
    magic, got_entity, got_level, got_index, count = _NODE_HEAD.unpack_from(
        head_body
    )
    if magic != _NODE_MAGIC:
        raise ValueError("tree node magic mismatch")
    if (got_entity, got_level, got_index) != (entity, level, index):
        raise ValueError(
            f"tree node position ({got_entity},{got_level},{got_index}) != "
            f"expected ({entity},{level},{index})"
        )
    aggs = [
        _NODE_TARGET.unpack_from(head_body, _NODE_HEAD.size + t * _NODE_TARGET.size)
        for t in range(target_count)
    ]
    return count, aggs


# --------------------------------------------------------------- the tree


@dataclass(frozen=True)
class TreeMeta:
    """The tree's public shape plus its sealed enclave-only blobs.

    What the storage engine hands the enclave context before any node
    is fetched: shape parameters (public), the ``E_nd``-sealed combo
    directory, and the sealed root tag.  Never contains node bytes —
    those go through the accounted node-fetch path.
    """

    fanout: int
    leaf_count: int
    entity_count: int
    targets: tuple[str, ...]
    node_width: int
    enc_directory: bytes
    enc_root_tag: bytes


@dataclass(frozen=True)
class AggTree:
    """One epoch's complete aggregate-tree sidecar.

    ``nodes`` is a single contiguous blob of fixed-width node
    ciphertexts in canonical order: entity-major, then level (leaves
    first), then index — the same order the sealed root tag chains.
    """

    fanout: int
    leaf_count: int
    entity_count: int
    targets: tuple[str, ...]
    node_width: int  # ciphertext width, bytes
    nodes: bytes
    enc_directory: bytes
    enc_root_tag: bytes

    def __post_init__(self):
        expected = self.entity_count * self.per_entity * self.node_width
        if len(self.nodes) != expected:
            raise EpochError(
                f"tree node blob is {len(self.nodes)} bytes, expected {expected}"
            )

    @property
    def per_entity(self) -> int:
        return nodes_per_entity(self.fanout, self.leaf_count)

    @property
    def node_count(self) -> int:
        return self.entity_count * self.per_entity

    def meta(self) -> TreeMeta:
        return TreeMeta(
            fanout=self.fanout,
            leaf_count=self.leaf_count,
            entity_count=self.entity_count,
            targets=self.targets,
            node_width=self.node_width,
            enc_directory=self.enc_directory,
            enc_root_tag=self.enc_root_tag,
        )

    def node_offset(self, entity: int, level: int, index: int) -> int:
        if not 0 <= entity < self.entity_count:
            raise EpochError(f"tree entity {entity} out of range")
        offsets = _level_offsets(self.fanout, self.leaf_count)
        sizes = level_sizes(self.fanout, self.leaf_count)
        if not 0 <= level < len(sizes) or not 0 <= index < sizes[level]:
            raise EpochError(f"tree node ({level},{index}) out of range")
        return (entity * self.per_entity + offsets[level] + index) * self.node_width

    def node_at(self, entity: int, level: int, index: int) -> bytes:
        """One node ciphertext by canonical coordinates."""
        offset = self.node_offset(entity, level, index)
        return self.nodes[offset : offset + self.node_width]

    # ----------------------------------------------------------- wire form

    def to_bytes(self) -> bytes:
        targets_blob = json.dumps(list(self.targets)).encode("utf-8")
        header = struct.pack(
            ">4sBHIIHHIHQ",
            _MAGIC,
            _VERSION,
            self.fanout,
            self.leaf_count,
            self.entity_count,
            self.node_width,
            len(targets_blob),
            len(self.enc_directory),
            len(self.enc_root_tag),
            len(self.nodes),
        )
        return header + targets_blob + self.enc_directory + self.enc_root_tag + self.nodes

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AggTree":
        head = struct.calcsize(">4sBHIIHHIHQ")
        if len(blob) < head:
            raise EpochError("tree blob shorter than header")
        (
            magic, version, fanout, leaf_count, entity_count, node_width,
            targets_len, dir_len, root_len, nodes_len,
        ) = struct.unpack_from(">4sBHIIHHIHQ", blob)
        if magic != _MAGIC or version != _VERSION:
            raise EpochError("not an agg-tree blob")
        offset = head
        if len(blob) != head + targets_len + dir_len + root_len + nodes_len:
            raise EpochError("tree blob length mismatch")
        targets = tuple(json.loads(blob[offset : offset + targets_len]))
        offset += targets_len
        enc_directory = blob[offset : offset + dir_len]
        offset += dir_len
        enc_root_tag = blob[offset : offset + root_len]
        offset += root_len
        return cls(
            fanout=fanout,
            leaf_count=leaf_count,
            entity_count=entity_count,
            targets=targets,
            node_width=node_width,
            nodes=blob[offset:],
            enc_directory=enc_directory,
            enc_root_tag=enc_root_tag,
        )

    def digest(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()

    # ------------------------------------------------------- fault helpers

    def with_corrupted_node(self, which: int = 0, byte_offset: int = 0) -> "AggTree":
        """A copy with one bit flipped inside node ``which`` (tamper tests)."""
        offset = (which % max(1, self.node_count)) * self.node_width + (
            byte_offset % self.node_width
        )
        mutated = bytearray(self.nodes)
        mutated[offset] ^= 0x01
        return AggTree(
            fanout=self.fanout,
            leaf_count=self.leaf_count,
            entity_count=self.entity_count,
            targets=self.targets,
            node_width=self.node_width,
            nodes=bytes(mutated),
            enc_directory=self.enc_directory,
            enc_root_tag=self.enc_root_tag,
        )


# -------------------------------------------------------------- directory


def encode_directory(entries: list[tuple[bytes, int]], entity_count: int) -> bytes:
    """Directory plaintext: real (digest16, entity) entries, zero-padded.

    Fixed width ``f(entity_count)`` so the sealed ciphertext length
    reveals nothing about how many combinations actually hold data.
    """
    if len(entries) > entity_count:
        raise EpochError("directory entries exceed entity capacity")
    body = b"".join(
        _DIR_ENTRY.pack(digest[:16], entity) for digest, entity in entries
    )
    pad = (entity_count - len(entries)) * _DIR_ENTRY.size
    return _DIR_MAGIC + struct.pack(">I", len(entries)) + body + b"\x00" * pad


def decode_directory(plaintext: bytes, entity_count: int) -> dict[bytes, int]:
    """Inverse of :func:`encode_directory`: digest16 → entity index."""
    if plaintext[:4] != _DIR_MAGIC:
        raise EpochError("not a tree directory")
    (count,) = struct.unpack_from(">I", plaintext, 4)
    expected = 8 + entity_count * _DIR_ENTRY.size
    if count > entity_count or len(plaintext) != expected:
        raise EpochError("tree directory length mismatch")
    directory: dict[bytes, int] = {}
    for i in range(count):
        digest16, entity = _DIR_ENTRY.unpack_from(plaintext, 8 + i * _DIR_ENTRY.size)
        directory[digest16] = entity
    return directory


# ---------------------------------------------------------------- builder


def build_agg_tree(
    records,
    buckets,
    schema: DatasetSchema,
    leaf_count: int,
    epoch_key: bytes,
    nd,
    *,
    fanout: int,
    entity_count: int,
    time_granularity: int,
) -> AggTree | None:
    """Seal one epoch's aggregate tree (data-provider side).

    Every entity — real or padding — gets the identical node layout;
    leaf ``(entity, bucket)`` aggregates the records of that entity's
    index-value combination whose timestamps are query-visible
    (multiples of the public time granularity, mirroring the bin
    path's filter expansion) and fall in that grid time bucket.
    ``buckets`` is the epoch placement's per-record time bucket and
    ``leaf_count`` the grid's bucket count.

    Returns ``None`` when no tree can ship: more distinct combinations
    than entity slots, or an aggregate outside the fixed 64-bit node
    field (consumers fall back to the bin path, answers unchanged).
    ``nd`` draws exactly two nonces — directory then root tag — in a
    fixed, single-threaded order, so packages stay bit-identical across
    ``workers`` settings.
    """
    targets = tree_targets(schema)
    target_positions = [schema.position(target) for target in targets]
    index_positions = [schema.position(attr) for attr in schema.index_attributes]
    time_position = schema.time_position
    enc_key, mac_key = derive_tree_keys(epoch_key)

    # Per-combination per-bucket leaf aggregates.
    per_combo: dict[tuple, dict[int, list]] = {}
    for record, bucket in zip(records, buckets):
        if record[time_position] % time_granularity:
            continue  # never query-visible (see EpochContext.query_timestamps)
        combo = tuple(record[position] for position in index_positions)
        leaves_of = per_combo.setdefault(combo, {})
        leaf = leaves_of.get(bucket)
        values = []
        for position in target_positions:
            value = record[position]
            if isinstance(value, bool) or not isinstance(value, int):
                raise EpochError(
                    f"tree target value {value!r} is not an integer"
                )
            values.append(value)
        if leaf is None:
            leaves_of[bucket] = [1] + [[v, v, v] for v in values]
        else:
            leaf[0] += 1
            for t, value in enumerate(values):
                agg = leaf[1 + t]
                agg[0] += value
                agg[1] = min(agg[1], value)
                agg[2] = max(agg[2], value)

    if len(per_combo) > entity_count:
        return None

    # Entity assignment: combinations ranked by keyed digest — a
    # deterministic order that never reveals insertion or value order.
    digests = {combo: combo_digest(mac_key, combo) for combo in per_combo}
    ranked = sorted(per_combo, key=lambda combo: digests[combo])
    directory_entries = [
        (digests[combo], entity) for entity, combo in enumerate(ranked)
    ]

    # Level 0 per entity: dense (count, [sum, min, max]×T) leaf arrays.
    sizes = level_sizes(fanout, leaf_count)
    empty_agg = [(0, [(0, 0, 0)] * len(targets))]

    plaintexts: list[bytes] = []
    for entity in range(entity_count):
        leaves_of = per_combo.get(ranked[entity]) if entity < len(ranked) else None
        levels: list[list[tuple[int, list[tuple[int, int, int]]]]] = []
        leaves = []
        for bucket in range(leaf_count):
            leaf = leaves_of.get(bucket) if leaves_of else None
            if leaf is None:
                leaves.append(empty_agg[0])
            else:
                leaves.append((leaf[0], [tuple(agg) for agg in leaf[1:]]))
        levels.append(leaves)
        for height in range(1, len(sizes)):
            below = levels[-1]
            level = []
            for index in range(sizes[height]):
                children = below[index * fanout : (index + 1) * fanout]
                count = sum(child[0] for child in children)
                aggs = []
                for t in range(len(targets)):
                    present = [c[1][t] for c in children if c[0]]
                    if not present:
                        aggs.append((0, 0, 0))
                    else:
                        aggs.append(
                            (
                                sum(a[0] for a in present),
                                min(a[1] for a in present),
                                max(a[2] for a in present),
                            )
                        )
                level.append((count, aggs))
            levels.append(level)
        for height, level in enumerate(levels):
            for index, (count, aggs) in enumerate(level):
                for agg in aggs:
                    if not all(_I64_MIN <= v <= _I64_MAX for v in agg):
                        return None  # outside the fixed node field
                plaintexts.append(
                    encode_node(mac_key, entity, height, index, count, aggs)
                )

    # counted=False: the encryptor credits the (public) node count to the
    # kernel-op counter itself, matching the row-encryption discipline.
    ciphertexts = DeterministicCipher(enc_key).encrypt_many(plaintexts, counted=False)
    nodes = b"".join(ciphertexts)
    directory_plain = encode_directory(directory_entries, entity_count)
    # Two nd nonces, fixed order: directory, then root tag.
    enc_directory = nd.encrypt(directory_plain)
    enc_root_tag = nd.encrypt(extend_chain(CHAIN_INIT, ciphertexts))
    return AggTree(
        fanout=fanout,
        leaf_count=leaf_count,
        entity_count=entity_count,
        targets=targets,
        node_width=len(ciphertexts[0]),
        nodes=nodes,
        enc_directory=enc_directory,
        enc_root_tag=enc_root_tag,
    )
