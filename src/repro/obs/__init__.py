"""``repro.obs`` — repo-wide observability: tracing, metrics, SLOs.

One dependency-free layer shared by every subsystem.  The instruments
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`, trace
:class:`Span`) are the one vocabulary that the reader, estimator,
tracker, campaign executor and inference service all speak, so they
can share a single :class:`Registry`.

Instrumentation is **off by default** and costs one ``active()`` call
per instrumented operation when disabled.  Turn it on with
:func:`enable` / the :func:`observed` context manager; export with
:func:`to_prometheus` or a JSON snapshot; stamp benchmark artifacts
with :func:`stamp_report`.

See DESIGN.md ("Observability") and README.md ("Observability &
benchmarking") for the data flow and a quickstart.
"""

from repro.obs.exporters import (
    registry_from_snapshot,
    to_prometheus,
    write_snapshot,
)
from repro.obs.instruments import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    MemorySink,
    NullSink,
    Span,
    TelemetrySink,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.manifest import (
    SCHEMA_VERSION,
    config_hash,
    git_sha,
    run_manifest,
    stamp_report,
)
from repro.obs.recorder import (
    FlightRecorder,
    flight_recorder,
    recording,
    set_flight_recorder,
)
from repro.obs.registry import (
    Registry,
    active,
    disable,
    enable,
    enable_from_env,
    get_registry,
    is_enabled,
    maybe_span,
    observed,
    set_registry,
)
from repro.obs.slo import (
    Slo,
    SloMonitor,
    default_slos,
    evaluate_snapshot,
)
from repro.obs.trace import (
    TraceContext,
    current_context,
    current_traceparent,
    encode_traceparent,
    new_trace_id,
    parse_traceparent,
    trace_sampled,
    use_context,
)

__all__ = [
    "BATCH_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LATENCY_BUCKETS",
    "MemorySink",
    "NullSink",
    "Registry",
    "SCHEMA_VERSION",
    "Slo",
    "SloMonitor",
    "Span",
    "TelemetrySink",
    "TraceContext",
    "active",
    "config_hash",
    "configure_logging",
    "current_context",
    "current_traceparent",
    "default_slos",
    "disable",
    "enable",
    "enable_from_env",
    "encode_traceparent",
    "evaluate_snapshot",
    "flight_recorder",
    "get_logger",
    "git_sha",
    "is_enabled",
    "maybe_span",
    "new_trace_id",
    "observed",
    "parse_traceparent",
    "recording",
    "registry_from_snapshot",
    "run_manifest",
    "set_flight_recorder",
    "set_registry",
    "stamp_report",
    "to_prometheus",
    "trace_sampled",
    "use_context",
    "write_snapshot",
]
