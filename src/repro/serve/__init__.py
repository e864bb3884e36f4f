"""``repro.serve`` — async streaming inference service.

Multiplexes many per-sensor streams of phase samples into adaptive
micro-batched :meth:`ForceLocationEstimator.invert_batch` calls, with
bounded-queue backpressure, graceful scalar degradation, and built-in
telemetry.  See DESIGN.md ("Serving architecture") for the data flow
and README.md ("Serving") for the quickstart.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "loadgen": ("LoadProfile", "generate_requests", "write_report"),
    "protocol": ("EstimateRequest", "EstimateResponse", "SensorConfig"),
    "scheduler": ("BatchPolicy", "MicroBatchScheduler", "ScheduledEstimate"),
    "service": ("InferenceService",),
    "session": ("SensorSession", "SessionManager"),
})
