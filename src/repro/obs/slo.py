"""Declarative SLOs over registry snapshots, with burn-rate alerts.

An :class:`Slo` names an objective in one of two shapes:

* ``availability`` — 1 - bad/total over named counters (e.g. gateway
  operations that did not hit the internal-error boundary).
* ``latency`` — the fraction of a histogram's observations at or
  under ``threshold_s`` (so ``target=0.99`` with ``threshold_s=0.3``
  reads "p99 <= 300 ms").  Evaluated from bucket counts, which is why
  thresholds should sit on a bucket bound.

:func:`evaluate_slo` is a pure function returning one objective's
status dict (compliance, target, error-budget remaining, ok flag).
:class:`SloMonitor` adds time: it keeps a bounded deque of
(timestamp, per-objective ``(bad, total)``) samples and computes
**multi-window burn rates** — the rate at which the error budget is
being consumed over a short and a long trailing window.  An objective
*alerts* only when every window with data burns above its factor, the
standard fast-burn/slow-burn pairing that ignores both ancient history
and single-sample blips.

Surface: the ``GET /healthz`` detail on the gateway.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.errors import ObservabilityError

#: Default burn-rate windows: (window seconds, max burn-rate factor).
#: Factors follow the SRE-workbook pairing for a ~99.9% objective:
#: a fast burn (14.4x budget velocity over 5 minutes) and a slow
#: burn (6x over an hour).
DEFAULT_WINDOWS: Tuple[Tuple[float, float], ...] = (
    (300.0, 14.4),
    (3600.0, 6.0),
)


@dataclass(frozen=True)
class Slo:
    """One declarative objective.

    Attributes:
        name: Stable identifier (shows up in /healthz and CLI output).
        kind: ``"availability"`` | ``"latency"``.
        target: Compliance target in (0, 1) (the objective holds
            while compliance >= target).
        description: One-line human explanation.
        total / bad: Counter names summed for availability.
        histogram / threshold_s: Latency source and bound.
    """

    name: str
    kind: str
    target: float = 0.999
    description: str = ""
    total: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    histogram: str = ""
    threshold_s: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency"):
            raise ObservabilityError(
                f"SLO {self.name}: unknown kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ObservabilityError(
                f"SLO {self.name}: target must be in (0, 1), got "
                f"{self.target}")


def _counter_sum(snapshot: dict, names: Sequence[str]) -> float:
    counters = snapshot.get("counters") or {}
    return float(sum(counters.get(name, 0) for name in names))


def _bad_total(slo: Slo, snapshot: dict) -> Tuple[float, float]:
    """(bad events, total events) for a counter-backed objective."""
    if slo.kind == "availability":
        return (_counter_sum(snapshot, slo.bad),
                _counter_sum(snapshot, slo.total))
    histogram = (snapshot.get("histograms") or {}).get(slo.histogram)
    if not histogram:
        return 0.0, 0.0
    total = float(histogram.get("count", 0))
    good = float(sum(
        count for bound, count in zip(histogram.get("bounds", ()),
                                      histogram.get("counts", ()))
        if bound <= slo.threshold_s))
    return total - good, total


def evaluate_slo(slo: Slo, snapshot: dict) -> dict:
    """Point-in-time status of one objective.

    An objective with no traffic yet is compliant by definition
    (``no_data: True``) — empty services do not page.
    """
    return _status(slo, *_bad_total(slo, snapshot))


def _status(slo: Slo, bad: float, total: float) -> dict:
    """:func:`evaluate_slo` from the objective's event counts."""
    status = {
        "name": slo.name,
        "kind": slo.kind,
        "description": slo.description,
        "target": slo.target,
        "events": total,
        "bad_events": bad,
    }
    if total <= 0.0:
        status.update(compliance=None, ok=True, no_data=True,
                      budget_remaining=1.0)
        return status
    compliance = 1.0 - bad / total
    budget = 1.0 - slo.target
    consumed = (1.0 - compliance) / budget if budget > 0 else 0.0
    status.update(
        compliance=compliance,
        ok=compliance >= slo.target,
        no_data=False,
        budget_remaining=max(0.0, 1.0 - consumed),
    )
    return status


#: One monitor sample: (timestamp, each objective's (bad, total)).
_Sample = Tuple[float, Tuple[Tuple[float, float], ...]]


class SloMonitor:
    """Burn-rate evaluation over a rolling window of samples.

    Feed it registry snapshots (:meth:`observe`) at whatever cadence
    the caller polls — the gateway does so on every ``/healthz`` hit —
    and it answers point-in-time compliance plus per-window burn
    rates computed from counter *deltas* between the oldest in-window
    sample and the newest.  A sample keeps only each objective's
    ``(bad, total)`` event counts, not the snapshot, so the monitor
    holds at most ``max_samples`` small tuples whatever the registry
    holds.

    Args:
        slos: Objectives to track.
        windows: (seconds, max burn factor) pairs; alerting requires
            every window with data to burn above its factor.
        clock: Monotonic time source (injectable for tests).
        max_samples: Bound on retained samples.
    """

    def __init__(self, slos: Sequence[Slo],
                 windows: Sequence[Tuple[float, float]] = DEFAULT_WINDOWS,
                 clock: Callable[[], float] = time.monotonic,
                 max_samples: int = 512):
        self.slos = tuple(slos)
        self.windows = tuple((float(seconds), float(factor))
                             for seconds, factor in windows)
        self._clock = clock
        self._samples: "deque[_Sample]" = deque(maxlen=max_samples)

    def observe(self, snapshot: dict) -> List[dict]:
        """Record one snapshot sample and return fresh statuses."""
        self._samples.append((self._clock(), tuple(
            _bad_total(slo, snapshot) for slo in self.slos)))
        return self.evaluate()

    def _window_burn(self, index: int, window_s: float,
                     max_factor: float) -> dict:
        slo = self.slos[index]
        now, newest = self._samples[-1]
        oldest = None
        for stamp, counts in self._samples:
            if now - stamp <= window_s:
                oldest = (stamp, counts)
                break
        burn = {"window_s": window_s, "max_burn_rate": max_factor,
                "burn_rate": None, "alerting": False}
        if oldest is None or oldest[0] == now:
            return burn
        bad_new, total_new = newest[index]
        bad_old, total_old = oldest[1][index]
        delta_total = total_new - total_old
        if delta_total <= 0.0:
            return burn
        error_rate = max(0.0, bad_new - bad_old) / delta_total
        budget = 1.0 - slo.target
        rate = error_rate / budget if budget > 0 else 0.0
        burn.update(burn_rate=rate, alerting=rate > max_factor)
        return burn

    def evaluate(self) -> List[dict]:
        """Point-in-time statuses with per-window burn annotations."""
        if not self._samples:
            return [dict(evaluate_slo(slo, {}), burn=[],
                         alerting=False) for slo in self.slos]
        _, newest = self._samples[-1]
        statuses = []
        for index, slo in enumerate(self.slos):
            status = _status(slo, *newest[index])
            burns = [self._window_burn(index, seconds, factor)
                     for seconds, factor in self.windows]
            measured = [b for b in burns if b["burn_rate"] is not None]
            status["burn"] = burns
            status["alerting"] = bool(measured) and all(
                b["alerting"] for b in measured)
            statuses.append(status)
        return statuses


def default_slos() -> Tuple[Slo, ...]:
    """The built-in objectives for a live gateway (``/healthz``)."""
    return (
        Slo(name="gateway-availability", kind="availability",
            target=0.999,
            total=("gateway.http_requests", "gateway.ws_messages"),
            bad=("gateway.internal_errors",),
            description="gateway operations that never hit the "
                        "internal-error boundary"),
        Slo(name="serve-latency", kind="latency", target=0.99,
            histogram="span.serve.estimate.seconds", threshold_s=0.3,
            description="end-to-end estimates under 300 ms (p99)"),
    )
