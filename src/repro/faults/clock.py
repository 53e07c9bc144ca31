"""Injectable time and type-driven retry with capped exponential backoff.

Retrying transient storage faults must not make the test suite sleep:
the retry policy talks to a :class:`Clock` protocol object, and tests
substitute :class:`VirtualClock`, whose ``sleep`` merely advances a
counter (and records the requested delays for assertions).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.exceptions import TransientStorageError


class SystemClock:
    """Real wall-clock time (production default)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


@dataclass
class VirtualClock:
    """A clock whose time only moves when someone sleeps on it."""

    current: float = 0.0
    sleeps: list[float] = field(default_factory=list)

    def now(self) -> float:
        return self.current

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.current += seconds


@dataclass
class RetryPolicy:
    """Capped exponential backoff over a typed exception class.

    ``call`` runs ``fn`` up to ``attempts`` times, sleeping
    ``min(base_delay * multiplier**k, max_delay)`` between tries, and
    re-raises the last error once the budget is spent.  Only exceptions
    matching ``retry_on`` are retried — anything else (integrity
    violations, crashes needing recovery) propagates immediately, which
    is the whole point of the transient/permanent split.

    ``jitter`` spreads the backoff by up to that fraction of the delay
    (full-jitter style, so concurrent retriers decorrelate).  The draws
    come from ``rng``, an *explicitly threaded* seeded
    :class:`random.Random` — never the process-global RNG — so a chaos
    replay of a retry schedule is byte-deterministic.
    """

    attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.0
    retry_on: type | tuple = TransientStorageError
    clock: SystemClock | VirtualClock = field(default_factory=SystemClock)
    rng: random.Random | None = None

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.jitter > 0.0 and self.rng is None:
            # A fixed-seed fallback keeps un-threaded callers
            # deterministic too; chaos harnesses thread their own.
            self.rng = random.Random(0)

    def delays(self) -> list[float]:
        """The jitter-free backoff sequence this policy sleeps through."""
        return [
            min(self.base_delay * self.multiplier ** k, self.max_delay)
            for k in range(self.attempts - 1)
        ]

    def _delay(self, attempt: int) -> float:
        delay = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter > 0.0:
            assert self.rng is not None
            delay *= 1.0 - self.jitter * self.rng.random()
        return delay

    def call(self, fn, deadline=None, progress=None):
        """Run ``fn`` under the policy; returns its value or re-raises.

        ``deadline`` (anything with ``check(site)``, e.g.
        :class:`repro.replication.deadline.Deadline`) is consulted
        before every retry sleep: a spent budget raises
        :class:`~repro.exceptions.DeadlineExceeded` instead of burning
        backoff time on an answer nobody is waiting for.

        ``progress`` reads how far a *resumable* ``fn`` has got: a
        failure further along than the last starts a fresh budget, so
        each stalling point is retried as if it were retried alone.
        """
        reached = progress() if progress is not None else None
        attempt = 0
        while True:
            try:
                return fn()
            except self.retry_on as error:  # type: ignore[misc]
                if progress is not None and (now := progress()) != reached:
                    reached, attempt = now, 0
                # Only the failure path pays for telemetry; the happy
                # path above is a bare call.
                telemetry.counter(
                    "concealer_retry_attempts_total",
                    "attempts that failed with a retryable error",
                ).inc()
                # Stamp the active query span (if any) so an assembled
                # trace shows *which* stage burned retry budget.
                telemetry.annotate(
                    retry_attempts=attempt + 1,
                    retry_error=type(error).__name__,
                )
                if attempt == self.attempts - 1:
                    raise
                if deadline is not None:
                    deadline.check("retry.backoff")
                delay = self._delay(attempt)
                telemetry.counter(
                    "concealer_retry_backoff_seconds_total",
                    "total backoff slept between retries",
                ).inc(delay)
                self.clock.sleep(delay)
                attempt += 1
