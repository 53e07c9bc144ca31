"""The collector-quiet scope for bulk-allocation phases.

Sealing and landing an epoch allocate a dozen acyclic containers per
row (``bytes`` and ``int`` inside) that live until the phase ends, so
the cyclic collector's passes over them free nothing; reference
counting still frees every temporary (DESIGN.md *Landing an epoch*).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

# The collector switch is process-wide, so is the nesting count: the
# first scope in turns it off, the last one out — on whichever thread —
# puts back the state the first one found.
_lock = threading.Lock()
_depth = 0
_restore = False


@contextmanager
def collector_quiet():
    """Run the body with the cyclic collector off; re-entrant, thread-safe."""
    global _depth, _restore
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore:
                gc.enable()
