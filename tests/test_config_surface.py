"""The configuration surface is the one DESIGN.md §11 documents.

ROADMAP standing rule (iv): no new ``ServiceConfig`` / ``ShardedConfig``
/ ``ReplicationPolicy`` field without deleting one, and every field has
a row in the knob table saying who sets it and why it exists.  A field
added without a row, or a row left behind by a deletion, fails here.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

from repro import ServiceConfig
from repro.replication.engine import ReplicationPolicy
from repro.sharding.service import ShardedConfig

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `(ServiceConfig|ShardedConfig|ReplicationPolicy)\.(\w+)` \|", re.M)


def test_every_config_field_has_a_knob_table_row_and_no_row_is_stale():
    documented: dict[str, set[str]] = {}
    for owner, name in ROW.findall((ROOT / "DESIGN.md").read_text()):
        documented.setdefault(owner, set()).add(name)
    for config in (ServiceConfig, ShardedConfig, ReplicationPolicy):
        fields = {field.name for field in dataclasses.fields(config)}
        assert documented.get(config.__name__) == fields, config.__name__


def test_no_product_module_imports_the_reference_stream_cipher():
    """``tests/crypto/stream.py`` and ``hashchain.py`` are the references
    the cipher suite is tested against; a product import of either would
    be a second implementation in use (and would not ship)."""
    package = ROOT / "src" / "repro"
    offenders = []
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "tests" for name in names):
                offenders.append(str(path.relative_to(ROOT)))
    assert offenders == []
    assert not (package / "crypto" / "stream.py").exists()
    assert not (package / "crypto" / "hashchain.py").exists()
