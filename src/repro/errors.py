"""Exception hierarchy for the WiForce reproduction.

All library errors derive from :class:`WiForceError` so callers can catch
one type at the API boundary.  The subtypes mirror the major subsystems:
mechanics, RF, sensor, channel, reader and estimation.
"""

from __future__ import annotations


class WiForceError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(WiForceError, ValueError):
    """A component was constructed with physically invalid parameters."""


class MechanicsError(WiForceError):
    """Beam/contact mechanics could not produce a valid solution."""


class ContactSolverError(MechanicsError):
    """The contact solver failed to converge."""


class RFError(WiForceError):
    """Invalid RF network operation (dimension mismatch, singular port)."""


class SensorError(WiForceError):
    """Sensor-level failure (force out of range, bad clocking scheme)."""


class ClockingError(SensorError):
    """The switch clocking scheme violates the separation constraints."""


class ChannelError(WiForceError):
    """Channel model failure (invalid path, non-physical layer stack)."""


class ReaderError(WiForceError):
    """Wireless reader failure (sounding, synchronization, front end)."""


class DynamicRangeError(ReaderError):
    """Backscatter signal fell below the receiver's dynamic-range floor.

    Raised by the SDR front-end model when the direct-path signal is so
    much stronger than the backscatter reflection that the quantizer
    cannot represent both (paper section 5.2).
    """


class CalibrationError(WiForceError):
    """Calibration data is insufficient or inconsistent."""


class EstimationError(WiForceError):
    """Force/location estimation failed (no sensor signal found)."""


class CampaignTrialError(WiForceError):
    """One campaign trial raised; names the trial so sharded runs
    fail with the same diagnostics as a plain serial loop."""


class ObservabilityError(WiForceError):
    """Misused observability instrument (bad bounds, negative count)."""


class CacheError(WiForceError):
    """Artifact-cache misuse (an argument the key schema cannot
    canonicalize, or an invalid cache configuration).

    I/O trouble — corrupt artifacts, unwritable directories — is
    deliberately *not* raised as this: the cache degrades to a miss and
    recomputes, so a broken disk can slow a run down but never fail it.
    """


class ServeError(WiForceError):
    """Inference-service failure (scheduling, session routing)."""


class QueueFullError(ServeError):
    """The micro-batch scheduler's bounded queue rejected a request.

    Backpressure signal: the caller should retry later or shed load;
    admitting the request would have grown the queue without bound.
    """


class ProtocolError(ServeError):
    """A wire payload could not be decoded into a protocol dataclass.

    Every ``from_dict`` / ``from_json`` decoder on the serve boundary
    raises this (never a bare ``KeyError`` / ``TypeError`` /
    ``AttributeError``) for malformed, truncated, or type-confused
    payloads, so transport adapters can map decode failures to a 4xx
    without pattern-matching on builtin exceptions.
    """


class GatewayError(ServeError):
    """Network-gateway failure (transport, handshake, routing)."""


class AuthError(GatewayError):
    """The request carried no valid tenant credential (HTTP 401)."""


class FaultError(WiForceError):
    """Fault-injection misuse (unknown site/kind, malformed plan).

    Raised when *configuring* fault injection — an injected fault
    itself never surfaces as this; it surfaces as whatever the faulted
    site would naturally raise (or as degraded output).
    """
