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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "exporters": ("to_prometheus",),
    "instruments": ("BATCH_BUCKETS", "LATENCY_BUCKETS", "Counter", "Gauge",
                    "Histogram", "JsonlSink", "MemorySink", "NullSink", "Span",
                    "TelemetrySink"),
    "logconfig": ("configure_logging",),
    "manifest": ("SCHEMA_VERSION", "config_hash", "git_sha", "run_manifest",
                 "stamp_report"),
    "recorder": ("FlightRecorder", "flight_recorder", "recording",
                 "set_flight_recorder"),
    "registry": ("Registry", "active", "disable", "enable", "enable_from_env",
                 "is_enabled", "maybe_span", "observed", "process_registry",
                 "set_registry"),
    "slo": ("Slo", "SloMonitor", "default_slos"),
    "trace": ("TraceContext", "current_context", "current_traceparent",
              "new_trace_id", "parse_traceparent", "trace_sampled"),
})
