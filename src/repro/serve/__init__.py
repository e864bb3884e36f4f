"""``repro.serve`` — async streaming inference service.

Multiplexes many per-sensor streams of phase samples into adaptive
micro-batched :meth:`ForceLocationEstimator.invert_batch` calls, with
bounded-queue backpressure, graceful scalar degradation, and built-in
telemetry.  See DESIGN.md ("Serving architecture") for the data flow
and README.md ("Serving") for the quickstart.
"""

from repro.serve.loadgen import (
    LoadProfile,
    generate_requests,
    write_report,
)
from repro.serve.protocol import (
    EstimateRequest,
    EstimateResponse,
    SensorConfig,
)
from repro.serve.scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    ScheduledEstimate,
)
from repro.serve.service import InferenceService
from repro.serve.session import SensorSession, SessionManager
from repro.serve.shard import HashRing, ShardedInferenceService

__all__ = [
    "BatchPolicy",
    "EstimateRequest",
    "EstimateResponse",
    "HashRing",
    "InferenceService",
    "LoadProfile",
    "MicroBatchScheduler",
    "ScheduledEstimate",
    "SensorConfig",
    "SensorSession",
    "SessionManager",
    "ShardedInferenceService",
    "generate_requests",
    "write_report",
]
