"""Bounded retries, exponential backoff with jitter, circuit breaking.

The degradation vocabulary the consumers share: transient failures
(queue backpressure, injected stalls, flaky workers) are retried under
a bounded budget with exponentially growing, jittered delays; repeated
*systemic* failures trip a :class:`CircuitBreaker` so the caller stops
hammering a broken dependency and degrades to its fallback path
instead (the micro-batch scheduler falls back to scalar inversion).

Jitter is seeded: two identical runs back off identically, keeping
chaos campaigns bit-reproducible.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterator, Optional, Tuple, Type, TypeVar

from repro.errors import ConfigurationError
from repro.obs.recorder import flight_recorder
from repro.obs.registry import active

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry knobs.

    Attributes:
        attempts: Total tries (the first call plus ``attempts - 1``
            retries); 1 disables retrying.
        base_delay_s: Delay before the first retry [s].
        multiplier: Exponential growth factor per retry.
        max_delay_s: Ceiling on any single delay [s].
        jitter: Fractional uniform jitter applied to each delay
            (0.1 -> each delay is scaled by [0.9, 1.1)).
        seed: Seeds the jitter stream so backoff is reproducible.
    """

    attempts: int = 3
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.1
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0.0 or self.max_delay_s < 0.0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """The jittered backoff delays, one per retry."""
        rng = random.Random(self.seed)
        delay = self.base_delay_s
        for _ in range(self.attempts - 1):
            jittered = delay
            if self.jitter > 0.0:
                jittered *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield min(jittered, self.max_delay_s)
            delay = min(delay * self.multiplier, self.max_delay_s)


def _observe_retry(name: str) -> None:
    obs = active()
    if obs is not None:
        obs.counter(f"fault.retries.{name}").increment()


async def retry_async(
    operation: Callable[[], Awaitable[T]],
    policy: Optional[RetryPolicy] = None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    name: str = "operation",
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> T:
    """Run ``operation`` under the retry budget (async).

    Re-raises the last exception once the budget is exhausted, so the
    caller sees the same type it would without retrying — retrying
    never changes the failure contract, only how hard it is to hit.

    Args:
        operation: Zero-argument coroutine factory to (re-)invoke.
        policy: Budget and backoff; defaults to :class:`RetryPolicy`.
        retry_on: Exception types that are retried; anything else
            propagates immediately.
        name: Label for the ``fault.retries.<name>`` counter.
        on_retry: Hook called with ``(attempt, exception)`` before
            each backoff sleep.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays = policy.delays()
    for attempt in range(1, policy.attempts + 1):
        try:
            return await operation()
        except retry_on as exc:
            if attempt >= policy.attempts:
                raise
            _observe_retry(name)
            if on_retry is not None:
                on_retry(attempt, exc)
            await asyncio.sleep(next(delays))
    raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Classic three-state breaker for a repeatedly failing dependency.

    * **closed** — normal operation; failures are counted.
    * **open** — ``failure_threshold`` consecutive failures seen;
      :meth:`allow` answers ``False`` until ``recovery_timeout_s`` has
      elapsed, so the caller takes its degraded path without paying
      for the broken one.
    * **half-open** — the cooldown expired; one probe call is allowed.
      Success closes the breaker, failure re-opens it.

    Args:
        failure_threshold: Consecutive failures that open the breaker.
        recovery_timeout_s: Cooldown before a half-open probe [s].
        name: Label for the ``fault.breaker.*`` counters.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(self, failure_threshold: int = 5,
                 recovery_timeout_s: float = 1.0,
                 name: str = "breaker",
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s < 0.0:
            raise ConfigurationError(
                f"recovery_timeout_s must be >= 0, got "
                f"{recovery_timeout_s}")
        self.failure_threshold = int(failure_threshold)
        self.recovery_timeout_s = float(recovery_timeout_s)
        self.name = name
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (time-aware)."""
        if (self._state == "open"
                and self._clock() - self._opened_at
                >= self.recovery_timeout_s):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """Whether the protected call should be attempted now.

        In the open state this is the fast-fail answer; in half-open
        it admits exactly one probe (subsequent calls stay blocked
        until that probe reports back).
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half_open":
            # Admit one probe: re-arm the cooldown so concurrent
            # callers keep fast-failing while the probe is in flight.
            self._opened_at = self._clock()
            obs = active()
            if obs is not None:
                obs.counter(f"fault.breaker.{self.name}.probes").increment()
            return True
        obs = active()
        if obs is not None:
            obs.counter(
                f"fault.breaker.{self.name}.short_circuits").increment()
        return False

    def record_success(self) -> None:
        """Protected call succeeded: close and reset."""
        if self._state != "closed":
            obs = active()
            if obs is not None:
                obs.counter(f"fault.breaker.{self.name}.closed").increment()
        self._failures = 0
        self._state = "closed"

    def record_failure(self) -> None:
        """Protected call failed: count, and open at the threshold."""
        self._failures += 1
        if self._failures >= self.failure_threshold:
            if self._state != "open":
                obs = active()
                if obs is not None:
                    obs.counter(
                        f"fault.breaker.{self.name}.opened").increment()
                flight_recorder().trigger(
                    f"breaker.{self.name}.open",
                    failures=self._failures)
            self._state = "open"
            self._opened_at = self._clock()
