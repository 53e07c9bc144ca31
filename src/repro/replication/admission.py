"""Bounded admission with load shedding.

Under overload the worst failure mode is accepting every request and
serving all of them late: deadlines expire deep in the stack after the
work was already done.  The admission controller bounds the damage at
the front door: at most ``max_inflight`` requests execute at once, at
most ``max_queue`` more may wait, and everything beyond that is *shed*
with a typed :class:`~repro.exceptions.ServiceOverloaded` before any
query work (or data access) happens.

Shed counts and queue depths are public-size: they are functions of
request arrival, never of the plaintext data.

>>> controller = AdmissionController(max_inflight=1, max_queue=0)
>>> with controller.admit("point"):
...     controller.inflight
1
>>> controller.inflight
0
"""

from __future__ import annotations

from repro import telemetry
from repro.exceptions import ServiceOverloaded


class AdmissionController:
    """Front-door slot accounting for one service's query traffic."""

    def __init__(self, max_inflight: int = 64, max_queue: int = 128):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.queued = 0
        self.shed = 0

    @property
    def capacity(self) -> int:
        """Total requests admissible at once (executing + waiting)."""
        return self.max_inflight + self.max_queue

    def admit(self, kind: str = "query") -> "_Slot":
        """Take a slot for the ``with`` body or shed the request.

        The synchronous simulator has no true concurrency, so "queued"
        slots model re-entrant work (e.g. repair running inside a
        degraded-mode query): occupancy beyond ``max_inflight`` spills
        into the queue allowance before shedding begins.
        """
        return _Slot(self, kind)

    def _export(self) -> None:
        telemetry.gauge(
            "concealer_admission_inflight",
            "requests currently executing plus waiting",
            secrecy=telemetry.PUBLIC_SIZE,
        ).set(self.inflight + self.queued)


class _Slot:
    """What :meth:`AdmissionController.admit` returns: a slot taken on
    entry (or the request shed) and given back on exit.  A plain class:
    it wraps every query."""

    __slots__ = ("_controller", "_kind", "_queued")

    def __init__(self, controller: AdmissionController, kind: str):
        self._controller = controller
        self._kind = kind

    def __enter__(self) -> None:
        controller, kind = self._controller, self._kind
        if controller.inflight + controller.queued >= controller.capacity:
            controller.shed += 1
            telemetry.counter(
                "concealer_requests_shed_total",
                "requests rejected by admission control, by query kind",
                secrecy=telemetry.PUBLIC_SIZE,
                labels=("kind",),
            ).labels(kind=kind).inc()
            raise ServiceOverloaded(
                f"admission queue full ({controller.inflight} inflight, "
                f"{controller.queued} queued, capacity {controller.capacity}); "
                f"{kind!r} request shed — retry after backoff"
            )
        self._queued = controller.inflight >= controller.max_inflight
        if self._queued:
            controller.queued += 1
        else:
            controller.inflight += 1
        telemetry.counter(
            "concealer_requests_admitted_total",
            "requests admitted past the front door, by query kind",
            secrecy=telemetry.PUBLIC_SIZE,
            labels=("kind",),
        ).labels(kind=kind).inc()
        controller._export()

    def __exit__(self, *exc) -> None:
        controller = self._controller
        if self._queued:
            controller.queued -= 1
        else:
            controller.inflight -= 1
        controller._export()
