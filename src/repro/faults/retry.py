"""Bounded retries with exponential backoff and jitter.

Transient failures (queue backpressure, an injected rejection) are
retried under a bounded budget with exponentially growing, jittered
delays; the inference service retries the scheduler's
:class:`repro.errors.QueueFullError` this way.

Jitter is seeded: two identical runs back off identically, keeping
chaos campaigns bit-reproducible.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterator, Optional, Tuple, Type, TypeVar

from repro.errors import ConfigurationError
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

