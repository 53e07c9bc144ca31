"""Fault injection, retry, quarantine, and crash recovery.

Concealer's threat model lets a malicious service provider drop, tamper
with, or replay stored tuples, and real SGX enclaves are killed by
asynchronous exits and must restore sealed state after restart.  This
package gives the reproduction a failure model:

- :mod:`repro.faults.injector` — deterministic, seed-driven
  :class:`FaultInjector` consulted at named fault sites in the storage
  engine and enclave; schedules record and replay byte-identically.
- :mod:`repro.faults.clock` — injectable clocks and the typed
  :class:`RetryPolicy` (capped exponential backoff, no real sleeps in
  tests).
- :mod:`repro.faults.quarantine` — :class:`QuarantineLog` for cells
  whose hash-chain verification failed.
- :mod:`repro.faults.recovery` — :class:`RecoveryCoordinator`:
  re-attest + re-provision a crashed enclave, restore storage from an
  integrity-checked checkpoint.
- :mod:`repro.faults.chaos` — the one chaos harness, for a single
  service or a sharded fleet, replicated or not, behind ``make chaos``
  and ``python -m repro --chaos-seed N [--replicas R] [--shards S]``.

``recovery`` and ``chaos`` import :mod:`repro.core` and are therefore
*not* imported here (core itself depends on the leaf modules above);
import them explicitly.
"""

from repro.faults.clock import RetryPolicy, SystemClock, VirtualClock
from repro.faults.injector import (
    FAULT_SITES,
    FaultEvent,
    FaultInjector,
    FaultSpec,
    NULL_INJECTOR,
)
from repro.faults.quarantine import QuarantineLog

__all__ = [
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "NULL_INJECTOR",
    "QuarantineLog",
    "RetryPolicy",
    "SystemClock",
    "VirtualClock",
]
