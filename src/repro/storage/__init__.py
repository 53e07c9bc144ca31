"""Embedded storage engine — the reproduction's stand-in for MySQL.

Concealer's selling point is that it needs **no specialised index**: the
encrypted ``Index(L,T)`` column is a plain opaque key that any stock
DBMS B-tree can serve.  The original system stored data in MySQL; this
offline reproduction provides an embedded engine with the same contract:

- :mod:`repro.storage.btree` — a from-scratch B+-tree (point lookup,
  duplicate keys, ordered range scans) used for every secondary index.
- :mod:`repro.storage.table` — an append-only row store with stable
  row ids, and :class:`TableImage`, a table whole.
- :mod:`repro.storage.pager` — the :class:`AccessLog` that records
  every page/row the engine touches.  The access log **is
  the adversary's view**: security tests and the leakage experiments
  read it to check what an honest-but-curious service provider observes.
- :mod:`repro.storage.engine` — :class:`StorageEngine`, the façade that
  binds tables, indexes and the access log together.
"""

from repro.storage.btree import BPlusTree
from repro.storage.checkpoint import checkpoint_engine, restore_engine
from repro.storage.engine import StorageEngine
from repro.storage.pager import AccessEvent, AccessLog
from repro.storage.table import Row, Table, TableImage

__all__ = [
    "AccessEvent",
    "AccessLog",
    "BPlusTree",
    "Row",
    "StorageEngine",
    "Table",
    "TableImage",
    "checkpoint_engine",
    "restore_engine",
]
