"""The shared instrument registry and the process-wide default.

A :class:`Registry` owns named instruments, snapshots them as a
JSON-ready dict, and forwards span events to a pluggable sink.  One
process-wide default registry lets every subsystem — reader,
estimator, tracker, campaign executor, inference service — record
into the same place, so a single snapshot observes everything from a
single sensor press to a million-request load test.

The serving stack (inference service, micro-batch scheduler, gateway)
always records, into the registry :func:`process_registry` returns at
the moment it records.  Every other layer's observation is **off by
default**: instrumented code calls :func:`active`, gets ``None``, and
skips all instrument work — one function call and a branch of
overhead (asserted < 5% on ``invert_batch`` in
``benchmarks/test_perf_estimator.py``).  Turn it on globally with
:func:`enable` (or ``REPRO_OBS=1`` via :func:`enable_from_env`), or
scoped with the :func:`observed` context manager, which swaps in a
fresh registry and restores the previous state on exit (what tests and
the benchmark harnesses use).  Either way the gated layers land in the
same registry as the serving stack's instruments.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

from repro.obs import trace
from repro.obs.instruments import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    NullSink,
    Span,
    TelemetrySink,
)
from repro.obs.recorder import flight_recorder, span_event

#: Environment variable that turns observation on at CLI startup.
OBS_ENV = "REPRO_OBS"

#: Path for a JSONL span-event export sink, installed at CLI startup
#: when observation is enabled (``repro trace show`` reads it).
TRACE_EXPORT_ENV = "REPRO_TRACE_EXPORT"


class Registry:
    """Instrument registry with a JSON snapshot and pluggable sink.

    Args:
        sink: Where span events go; default discards them.
    """

    def __init__(self, sink: Optional[TelemetrySink] = None):
        self.sink = sink if sink is not None else NullSink()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, tuple(bounds))
        return histogram

    def span(self, name: str,
             attributes: Optional[dict] = None,
             context: Optional[trace.TraceContext] = None,
             parent: Optional[trace.TraceContext] = None,
             links: Optional[Sequence[trace.TraceContext]] = None
             ) -> Span:
        """Open a trace span (use as a context manager).

        On exit the span's duration lands in the per-stage histogram
        ``span.<name>.seconds`` (how per-stage latency stats survive
        into snapshots) and one flat record goes to the flight
        recorder; the span's event dict is built only for a sink that
        is not the :class:`NullSink`, or when the recorder is read.
        ``context`` / ``parent`` / ``links`` pin the
        span's place in the trace tree explicitly; by default it
        nests under the ambient :func:`repro.obs.trace.current_context`.
        """
        return Span(self, name, attributes, context=context,
                    parent=parent, links=links)

    def _record_span(self, span: Span, exc: Optional[BaseException]
                     ) -> None:
        """Span exit hook: keep the stage histogram, append the span's
        flat record to the flight recorder, and render its event dict
        only for a sink that keeps it."""
        self.histogram(f"span.{span.name}.seconds").observe(
            span.duration_s)
        record = flight_recorder().record_span(span, exc)
        if not isinstance(self.sink, NullSink):
            self.sink.emit(span_event(record))

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        How campaign-worker telemetry survives the process boundary:
        counters sum, histograms merge elementwise (matching bounds
        required), gauges are point-in-time so the incoming value
        wins.  Merging the same snapshot twice double-counts — the
        caller owns exactly-once delivery.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).increment(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(float(value))
        for name, payload in (snapshot.get("histograms") or {}).items():
            incoming = Histogram.from_dict(payload)
            existing = self._histograms.get(name)
            if existing is None:
                self._histograms[name] = incoming
            else:
                existing.merge(incoming)

    def snapshot(self) -> dict:
        """All instrument states as a JSON-ready dict."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: gauge.value
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }

_registry = Registry()
_enabled = False


def set_registry(registry: Registry) -> Registry:
    """Swap the default registry; returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def enable(registry: Optional[Registry] = None) -> Registry:
    """Turn observation on; optionally install ``registry`` first."""
    global _enabled
    if registry is not None:
        set_registry(registry)
    _enabled = True
    return _registry


def disable() -> None:
    """Turn observation off (instruments stay as they are)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    """Whether instrumented code is currently recording."""
    return _enabled


def enable_from_env(environ: Optional[dict] = None) -> bool:
    """Enable observation when ``REPRO_OBS`` is set truthy.

    Returns whether observation is enabled afterwards.  ``0``, empty,
    ``false`` and ``no`` (case-insensitive) leave it off.  When
    enabling, a ``REPRO_TRACE_EXPORT=<path>`` additionally points the
    default registry's sink at a :class:`JsonlSink`, so every span
    event (trace IDs included) lands in a file ``repro trace show``
    can render.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(OBS_ENV, "").strip().lower()
    if raw and raw not in ("0", "false", "no"):
        enable()
        export_path = env.get(TRACE_EXPORT_ENV, "").strip()
        if export_path and isinstance(_registry.sink, NullSink):
            _registry.sink = JsonlSink(export_path)
    return _enabled


def process_registry() -> Registry:
    """The process-wide registry, whether or not observation is on.

    What the serving stack records into; :func:`observed` and
    :func:`set_registry` redirect it as they redirect the gated layers.
    """
    return _registry


def active() -> Optional[Registry]:
    """The default registry when observation is on, else ``None``.

    The one-line gate for hot paths::

        obs = active()
        if obs is not None:
            obs.counter("estimator.inversions").increment()
    """
    return _registry if _enabled else None


class _NullSpan:
    """Do-nothing stand-in so ``with maybe_span(...)`` always works."""

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


def maybe_span(name: str, attributes: Optional[dict] = None,
               parent: Optional[trace.TraceContext] = None):
    """A real span when observation is on, else a shared no-op."""
    obs = active()
    if obs is None:
        return _NULL_SPAN
    return obs.span(name, attributes, parent=parent)


@contextmanager
def observed(sink: Optional[TelemetrySink] = None,
             registry: Optional[Registry] = None) -> Iterator[Registry]:
    """Enable observation on a fresh registry for one ``with`` block.

    Restores the previous default registry and enabled state on exit,
    so tests and benchmark harnesses can observe without leaking
    global state.
    """
    global _enabled
    fresh = registry if registry is not None else Registry(sink)
    previous_registry = set_registry(fresh)
    previous_enabled = _enabled
    _enabled = True
    try:
        yield fresh
    finally:
        _enabled = previous_enabled
        set_registry(previous_registry)
