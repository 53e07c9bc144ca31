"""Checkpoint / restore for the embedded storage engine.

A service provider restarting should not need the data provider to
re-ship every epoch, so the engine supports durable snapshots: a
versioned pickle of every table's
:class:`~repro.storage.table.TableImage`: loose rows as tuples, each
sealed bin whole (fixed-width column blobs), pickled without a memo so
that no repeated cell is written as a back-reference: a table's size is
a function of its public sizes.  Install holds the bins as read and
bulk-loads B+-trees from the index definitions.

Snapshots are **integrity-framed**: the pickled payload is followed by
a footer of ``sha256(payload) || uint64(len(payload)) || magic``.  A
truncated file, a flipped byte, or a pre-footer legacy file all fail
:func:`restore_engine` loudly with :class:`StorageError` instead of
loading garbage (or crashing deep inside ``pickle``).  Writes go to a
temporary file and are renamed into place, so a crash mid-checkpoint
can never destroy the previous good snapshot.

The access log is deliberately **not** persisted: it is the adversary's
transient observation stream, not state.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import struct
from pathlib import Path

from repro import telemetry
from repro.exceptions import StorageError, TransientStorageError
from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.storage.engine import StorageEngine

_FORMAT_VERSION = 4
_MAGIC = b"CONCEALER-CKPT\x00\x02"
_FOOTER = struct.Struct("<32sQ16s")  # sha256, payload length, magic


def write_framed(path: Path, payload: bytes) -> None:
    """Write ``payload`` + integrity footer atomically (tmp + rename)."""
    footer = _FOOTER.pack(
        hashlib.sha256(payload).digest(), len(payload), _MAGIC
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    with open(scratch, "wb") as handle:
        handle.write(payload + footer)
    scratch.replace(path)


def read_framed(path: Path) -> bytes:
    """Read and verify a framed payload; raises :class:`StorageError`."""
    if not path.exists():
        raise StorageError(f"no checkpoint at {path}")
    blob = path.read_bytes()
    if len(blob) < _FOOTER.size:
        raise StorageError(
            f"checkpoint {path} is truncated ({len(blob)} bytes; no footer)"
        )
    digest, length, magic = _FOOTER.unpack(blob[-_FOOTER.size:])
    if magic != _MAGIC:
        raise StorageError(
            f"checkpoint {path} has no integrity footer (legacy, truncated, "
            "or foreign file) — refusing to load it"
        )
    payload = blob[:-_FOOTER.size]
    if len(payload) != length:
        raise StorageError(
            f"checkpoint {path} is truncated: footer promises {length} "
            f"payload bytes, found {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise StorageError(
            f"checkpoint {path} failed its SHA-256 integrity check — "
            "the snapshot was corrupted or tampered with"
        )
    return payload


def checkpoint_engine(
    engine: StorageEngine,
    path: str | Path,
    fault_injector: FaultInjector | None = None,
) -> Path:
    """Write a durable snapshot: the image of every table.

    ``fault_injector`` lets the chaos harness simulate a torn write (a
    crash mid-checkpoint): the file is left truncated *without* the
    footer, which :func:`restore_engine` then rejects loudly.
    """
    path = Path(path)
    injector = fault_injector or NULL_INJECTOR
    snapshot = {
        "version": _FORMAT_VERSION,
        "btree_order": engine.btree_order,
        "rows_per_page": engine.rows_per_page,
        "images": [engine.image(name) for name in engine.table_names()],
    }
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    # No memo: an object seen before is written again, not referenced,
    # so a loose row's size is its widths whatever its cells repeat
    # (``concealer_checkpoint_bytes`` is public-size).
    pickler.fast = True
    pickler.dump(snapshot)
    payload = buffer.getvalue()
    outcomes = telemetry.counter(
        "concealer_checkpoints_total",
        "storage checkpoints, by outcome (torn = injected mid-write crash)",
        labels=("result",),
    )
    with telemetry.span("storage.checkpoint", bytes=len(payload)):
        if injector.fire("storage.checkpoint.torn") is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload[: max(1, len(payload) // 2)])
            outcomes.labels(result="torn").inc()
            raise TransientStorageError(
                f"checkpoint to {path} torn mid-write (injected crash)"
            )
        write_framed(path, payload)
    outcomes.labels(result="ok").inc()
    telemetry.histogram(
        "concealer_checkpoint_bytes",
        "payload size of completed checkpoints",
        secrecy=telemetry.PUBLIC_SIZE,
        boundaries=(4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0),
    ).observe(len(payload))
    return path


def read_checkpoint(path: str | Path) -> dict:
    """A snapshot's engine settings and table ``images``; raises
    :class:`StorageError` on a torn, corrupt or unknown-version file."""
    path = Path(path)
    with telemetry.span("storage.restore"):
        payload = read_framed(path)
        try:
            snapshot = pickle.loads(payload)
        except Exception as error:
            raise StorageError(
                f"checkpoint {path} passed its checksum but failed to "
                f"deserialise: {error}"
            ) from error
        version = snapshot.get("version") if isinstance(snapshot, dict) else None
        if version != _FORMAT_VERSION:
            raise StorageError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
    telemetry.counter(
        "concealer_restores_total",
        "storage engines rebuilt from checkpoint snapshots",
    ).inc()
    return snapshot


def restore_engine(path: str | Path) -> StorageEngine:
    """A fresh engine with every table image of a snapshot installed."""
    snapshot = read_checkpoint(path)
    engine = StorageEngine(
        btree_order=snapshot["btree_order"],
        rows_per_page=snapshot["rows_per_page"],
    )
    for image in snapshot["images"]:
        engine.install(image, logged=False)
    return engine
