"""The enclave simulator: a trusted agent with bounded secure memory.

:class:`Enclave` models the properties of SGX that Concealer's design
actually relies on:

- **Isolation**: sealed state (the shared secret ``s_k``, the epoch key
  schedule, decrypted metadata vectors) lives in attributes that the
  rest of the system never touches directly; all interaction goes
  through ecall-style methods.
- **Attestation-gated provisioning**: the master key can only be
  installed together with a successful attestation handshake
  (:meth:`provision`); before provisioning, the enclave refuses to
  serve queries.
- **Bounded EPC**: real SGX v1 has ~96 MiB of usable enclave page
  cache; in-enclave working sets above it page-fault expensively.  The
  simulator enforces a byte budget via :meth:`charge_memory` /
  :meth:`release_memory` so algorithms must stage oversized batches
  (e.g. with column sort) exactly as the paper describes.
- **Observable side channels**: a :class:`TraceRecorder` collects the
  branch/memory event stream of security-relevant computation.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro import telemetry
from repro.crypto.keys import EpochKeySchedule
from repro.enclave.attestation import Quote, measure_code
from repro.enclave.trace import TraceRecorder
from repro.exceptions import EnclaveCrashed, EnclaveError, EnclaveMemoryError
from repro.faults.injector import FaultInjector, NULL_INJECTOR

ENCLAVE_CODE_IDENTITY = "concealer-enclave-v1"

# SGX v1's practically usable EPC; the simulator default is deliberately
# the real-world constant so bin sizes interact with it realistically.
DEFAULT_EPC_BYTES = 96 * 1024 * 1024


@dataclass
class EnclaveConfig:
    """Tunables for the simulated enclave."""

    epc_bytes: int = DEFAULT_EPC_BYTES
    code_identity: str = ENCLAVE_CODE_IDENTITY


@dataclass
class _SealedState:
    """State invisible outside the enclave (by convention of this sim)."""

    master_key: bytes | None = None
    key_schedule: EpochKeySchedule | None = None


class Enclave:
    """A simulated SGX enclave hosting Concealer's trusted logic.

    The query-execution code in :mod:`repro.core` runs "inside" the
    enclave by calling through this object: it charges working-set
    memory against the EPC budget, reads sealed keys, and emits
    side-channel trace events via :attr:`trace`.
    """

    def __init__(
        self,
        config: EnclaveConfig | None = None,
        fault_injector: FaultInjector | None = None,
    ):
        self.config = config or EnclaveConfig()
        self.measurement = measure_code(self.config.code_identity)
        self.trace = TraceRecorder()
        self.fault_injector = fault_injector or NULL_INJECTOR
        self._sealed = _SealedState()
        self._epc_used = 0
        self._epc_high_water = 0
        self._crashed: str | None = None
        # The EPC ledger is shared by concurrent batch-prefetch workers;
        # charge/release must be atomic or parallel fetches could both
        # pass the budget check and overshoot it.
        self._epc_lock = threading.RLock()

    # ------------------------------------------------------------ crash model

    @property
    def crashed(self) -> bool:
        """Whether this enclave instance was killed (AEX / power event)."""
        return self._crashed is not None

    def crash(self, reason: str = "killed") -> None:
        """Kill the enclave: sealed state is destroyed, ecalls fail.

        Models an SGX asynchronous exit — the EPC is wiped by hardware,
        so the instance is unrecoverable; a *new* enclave must be
        attested and re-provisioned (see
        :class:`repro.faults.recovery.RecoveryCoordinator`).
        """
        self._crashed = reason
        self._sealed = _SealedState()
        self._epc_used = 0
        telemetry.counter(
            "concealer_enclave_crashes_total",
            "enclave kills (AEX / power event) by fault site",
            labels=("site",),
        ).labels(site=reason).inc()
        telemetry.gauge(
            "concealer_epc_used_bytes",
            "currently reserved in-enclave working memory",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(0)

    def _ecall_guard(self) -> None:
        if self._crashed is not None:
            raise EnclaveCrashed(
                f"enclave was killed ({self._crashed}); attest and "
                "re-provision a fresh instance"
            )

    def kill_point(self, site: str) -> None:
        """A fault site where the injector may kill the enclave.

        Placed mid-query, mid-rotation, mid-rewrite, and mid-checkpoint
        — the points whose recovery paths the chaos harness exercises.
        """
        self._ecall_guard()
        if self.fault_injector.fire(site) is not None:
            self.crash(site)
            raise EnclaveCrashed(f"enclave killed at fault site {site!r}")

    # ------------------------------------------------------------ attestation

    def quote(self, nonce: bytes) -> Quote:
        """Produce an attestation quote for a verifier's challenge."""
        self._ecall_guard()
        return Quote.generate(self.measurement, nonce)

    def provision(
        self,
        master_key: bytes,
        first_epoch_id: int,
        epoch_duration: int,
    ) -> None:
        """Install the shared secret ``s_k`` and epoch parameters.

        Per §3, the enclave receives only the first epoch id and the
        epoch duration; it derives every later epoch key itself.
        """
        self._ecall_guard()
        if self._sealed.master_key is not None:
            raise EnclaveError("enclave already provisioned")
        self._sealed.master_key = master_key
        self._sealed.key_schedule = EpochKeySchedule(
            master_key=master_key,
            first_epoch_id=first_epoch_id,
            epoch_duration=epoch_duration,
        )

    def swap_master_key(self, new_master: bytes, key_schedule: EpochKeySchedule) -> None:
        """Install rotated key material.

        Used by :func:`repro.core.rotation.rotate_service_keys` after a
        committed rewrite; the caller drops every epoch context built
        under the previous key.
        """
        self._ecall_guard()
        self._sealed.master_key = new_master
        self._sealed.key_schedule = key_schedule

    @property
    def provisioned(self) -> bool:
        """Whether ``s_k`` has been installed."""
        return self._sealed.master_key is not None

    def require_provisioned(self) -> None:
        """Guard used by every query-serving ecall."""
        self._ecall_guard()
        if not self.provisioned:
            raise EnclaveError("enclave not provisioned with s_k")

    # ------------------------------------------------------------ sealed keys

    @property
    def key_schedule(self) -> EpochKeySchedule:
        """The sealed epoch key schedule (trusted-code use only)."""
        self.require_provisioned()
        assert self._sealed.key_schedule is not None
        return self._sealed.key_schedule

    @property
    def master_key(self) -> bytes:
        """The sealed master secret (trusted-code use only)."""
        self.require_provisioned()
        assert self._sealed.master_key is not None
        return self._sealed.master_key

    # -------------------------------------------------------------- EPC model

    def charge_memory(self, nbytes: int) -> None:
        """Reserve in-enclave working memory; raises over budget.

        Algorithms that would exceed the EPC must restructure (stream,
        or column-sort in O(r) chunks) rather than grow the resident
        set — the same pressure real SGX applies via EPC paging costs.
        """
        self._ecall_guard()
        if nbytes < 0:
            raise ValueError("cannot charge negative memory")
        if self.fault_injector.fire("enclave.epc.exhaust") is not None:
            raise EnclaveMemoryError(
                "EPC exhausted (injected fault): concurrent enclave load "
                "consumed the page cache mid-operation"
            )
        with self._epc_lock:
            if self._epc_used + nbytes > self.config.epc_bytes:
                raise EnclaveMemoryError(
                    f"EPC budget exceeded: {self._epc_used + nbytes} > "
                    f"{self.config.epc_bytes} bytes"
                )
            self._epc_used += nbytes
            self._epc_high_water = max(self._epc_high_water, self._epc_used)
            used, high_water = self._epc_used, self._epc_high_water
        telemetry.counter(
            "concealer_epc_charge_events_total",
            "EPC working-set reservations",
            secrecy=telemetry.PUBLIC_SIZE,
        ).inc()
        telemetry.gauge(
            "concealer_epc_used_bytes",
            "currently reserved in-enclave working memory",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(used)
        telemetry.gauge(
            "concealer_epc_high_water_bytes",
            "peak reserved in-enclave working memory",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set_max(high_water)

    def release_memory(self, nbytes: int) -> None:
        """Return working memory to the budget."""
        with self._epc_lock:
            self._epc_used = max(0, self._epc_used - nbytes)
            used = self._epc_used
        telemetry.counter(
            "concealer_epc_release_events_total",
            "EPC working-set releases",
            secrecy=telemetry.PUBLIC_SIZE,
        ).inc()
        telemetry.gauge(
            "concealer_epc_used_bytes",
            "currently reserved in-enclave working memory",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(used)

    def memory(self, nbytes: int) -> "_Reservation":
        """Exception-safe EPC reservation: ``with enclave.memory(n): ...``.

        The release runs even when the body raises, so a fault mid-query
        (transient storage error, injected crash, integrity violation)
        cannot leak budget and wedge every subsequent query.
        """
        return _Reservation(self, nbytes)

    @property
    def epc_used(self) -> int:
        """Currently reserved in-enclave working memory (bytes)."""
        return self._epc_used

    @property
    def epc_high_water(self) -> int:
        """Peak resident bytes observed — reported by the benchmarks."""
        return self._epc_high_water

    def reset_epc_stats(self) -> None:
        """Reset the high-water mark to the current usage."""
        self._epc_high_water = self._epc_used


class _Reservation:
    """What :meth:`Enclave.memory` returns: charge on entry, release on
    exit.  A plain class: it wraps every query's working set."""

    __slots__ = ("_enclave", "_nbytes")

    def __init__(self, enclave: Enclave, nbytes: int):
        self._enclave = enclave
        self._nbytes = nbytes

    def __enter__(self) -> None:
        self._enclave.charge_memory(self._nbytes)

    def __exit__(self, *exc) -> None:
        self._enclave.release_memory(self._nbytes)


def generate_master_key(rng=None) -> bytes:
    """Generate a fresh 32-byte shared secret ``s_k``."""
    if rng is not None:
        return rng.randbytes(32)
    return os.urandom(32)
