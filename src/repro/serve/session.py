"""Per-sensor session state for the inference service.

A *session* is everything the service remembers about one sensor
stream between requests:

* which calibrated :class:`SensorModel` / estimator it uses — models
  are expensive to calibrate, so the :class:`SessionManager` caches
  them keyed by :class:`SensorConfig` and shares one estimator across
  every sensor with an equal config (which is also what lets their
  requests coalesce into one micro-batch group);
* the streak of non-``"ok"`` results that quarantines it (see
  :meth:`SensorSession.note_quality`);
* its touch segmentation, a :class:`repro.core.tracking.TouchSegmenter`
  that keeps the press still held plus one record per released press,
  so a reading costs O(1) work however old the session is, and memory
  grows by one record per press instead of one sample per reading.

Phases arrive already referenced to the sensor's untouched baseline:
the reader fits that reference and the tag clock's drift
(:meth:`repro.core.pipeline.WiForceReader.capture_baseline`), so a
session has no baseline of its own to fit.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import SensorModel
from repro.core.estimator import ForceLocationEstimator
from repro.core.tracking import TouchEvent, TouchSegmenter, TrackedSample
from repro.errors import ServeError
from repro.obs.registry import process_registry
from repro.serve.protocol import SensorConfig

#: Builds (or loads) a calibrated model for a config.
ModelFactory = Callable[[SensorConfig], SensorModel]

#: Consecutive non-``"ok"`` results that quarantine a session.
QUARANTINE_AFTER = 5


def default_model_factory(config: SensorConfig) -> SensorModel:
    """Calibrate the paper's default sensor for ``config``.

    Uses the process-cached scenario builders, so repeated configs at
    the same carrier cost one calibration per process — and the
    calibration itself delegates to the shared :mod:`repro.cache`
    artifact tier, so a replica whose spec any process has built
    before starts warm from disk.  Imported lazily: the serve package
    stays importable without pulling the whole experiments stack.
    """
    from repro.experiments.scenarios import calibrated_model

    return calibrated_model(config.carrier_frequency, fast=config.fast)


class SensorSession:
    """State for one sensor stream.

    Args:
        sensor_id: Stream identity.
        config: Calibration config (must match the manager's cache
            entry the estimator came from).
        estimator: Shared estimator for this config.
    """

    def __init__(self, sensor_id: str, config: SensorConfig,
                 estimator: ForceLocationEstimator):
        self.sensor_id = sensor_id
        self.config = config
        self.estimator = estimator
        self.segmenter = TouchSegmenter()
        self.last_seen = 0.0
        self.consecutive_faults = 0
        self.quarantined = False

    def correct(self, time: float, phi1: float,
                phi2: float) -> Tuple[float, float]:
        """The phase pair to invert: the request's own, as floats.

        The reader already referenced the stream to its untouched
        baseline, so nothing is subtracted and ``time`` goes unused.
        """
        return float(phi1), float(phi2)

    def note_quality(self, quality: str) -> None:
        """Track result quality; quarantine on a streak of failures.

        An ``"ok"`` result clears the failure streak and lifts an
        active quarantine; :data:`QUARANTINE_AFTER` consecutive non-ok
        results trigger :meth:`quarantine`.
        """
        if quality == "ok":
            self.consecutive_faults = 0
            self.quarantined = False
            return
        self.consecutive_faults += 1
        if (not self.quarantined
                and self.consecutive_faults >= QUARANTINE_AFTER):
            self.quarantine()

    def quarantine(self) -> None:
        """Flag this session's responses ``"quarantined"``.

        The flag holds until the next ``"ok"`` result.
        """
        self.consecutive_faults = 0
        self.quarantined = True
        process_registry().counter("fault.quarantines").increment()

    @property
    def samples(self) -> array:
        """The force column of the press still held: one row per
        touched group the next segmentation scans (empty between
        presses)."""
        return self.segmenter.forces

    def record(self, sample: TrackedSample) -> None:
        """Fold one tracked sample into the session's segmentation."""
        self.segmenter.add(sample)

    def touch_events(self, min_groups: int = 1) -> List[TouchEvent]:
        """Every event since the session opened, the press still held
        included once it has ``min_groups`` touched groups."""
        return self.segmenter.events(min_groups)

    def closed_touch_events(self, min_groups: int = 1,
                            start: int = 0) -> List[TouchEvent]:
        """The events of released presses only, from release record
        ``start`` on (a cursor into ``segmenter.released``).

        :meth:`touch_events` also lists the press still held; that
        event is left out here.
        """
        return self.segmenter.closed_events(min_groups, start)


class SessionManager:
    """Routes sensor ids to sessions; caches models per config.

    Sessions are kept in least-recently-used order and evicted on two
    bounds, so fleet-scale connect/disconnect churn cannot grow memory
    without limit: ``max_sessions`` caps the live-session count (the
    LRU session is dropped to admit a new one) and ``idle_ttl_s``
    drops any session that has not served a request for that long.
    Both default to *off*, preserving the unbounded in-process
    behavior; the network gateway turns them on.  Evicting a session
    discards its touch events and quarantine state, and evicting the
    last session bound to a config drops that config's estimator, so
    the estimators never outnumber the live sessions.  The calibrated
    model stays cached per (carrier, fast), so a returning sensor
    re-opens cheaply and is served bit-identically.  Model builds,
    model hits and evictions count into the process registry as
    ``serve.session.*``.

    Args:
        model_factory: ``SensorConfig -> SensorModel``; defaults to
            calibrating the paper's default sensor.
        max_sessions: Live-session cap (None = unbounded).
        idle_ttl_s: Idle eviction age [s] (None = never).
        clock: Monotonic time source (injected by tests).
    """

    def __init__(self, model_factory: Optional[ModelFactory] = None,
                 max_sessions: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None):
        if max_sessions is not None and max_sessions < 1:
            raise ServeError(
                f"max_sessions must be >= 1, got {max_sessions}")
        if idle_ttl_s is not None and not (math.isfinite(idle_ttl_s)
                                           and idle_ttl_s > 0.0):
            raise ServeError(
                f"idle_ttl_s must be finite and > 0, got {idle_ttl_s}")
        self._factory = (model_factory if model_factory is not None
                         else default_model_factory)
        self.max_sessions = max_sessions
        self.idle_ttl_s = idle_ttl_s
        self._clock = clock if clock is not None else time.monotonic
        self._models: Dict[Tuple[float, bool], SensorModel] = {}
        self._estimators: Dict[SensorConfig, ForceLocationEstimator] = {}
        #: Live sessions per config; an estimator goes with its last.
        self._bound: Dict[SensorConfig, int] = {}
        self._sessions: Dict[str, SensorSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def estimator(self, config: SensorConfig) -> ForceLocationEstimator:
        """The shared estimator for ``config`` (builds on first use).

        Models are cached on the calibration identity (carrier, fast)
        — configs differing only in the touch threshold share one
        calibrated model and differ only in their estimator.  Each call
        counts one ``serve.session.model_builds`` or ``model_hits``.
        """
        registry = process_registry()
        estimator = self._estimators.get(config)
        if estimator is not None:
            registry.counter("serve.session.model_hits").increment()
            return estimator
        model_key = (config.carrier_frequency, config.fast)
        model = self._models.get(model_key)
        if model is None:
            model = self._factory(config)
            self._models[model_key] = model
            registry.counter("serve.session.model_builds").increment()
        else:
            registry.counter("serve.session.model_hits").increment()
        estimator = ForceLocationEstimator(
            model, touch_threshold_deg=config.touch_threshold_deg)
        self._estimators[config] = estimator
        return estimator

    def _evict_one(self) -> None:
        """Drop the least-recently-used session, and its config's
        estimator with the config's last session.

        A request already parked with that estimator still completes:
        the scheduler's batch group holds the estimator itself.
        """
        config = self._sessions.pop(next(iter(self._sessions))).config
        bound = self._bound.pop(config) - 1
        if bound:
            self._bound[config] = bound
        else:
            self._estimators.pop(config, None)
        process_registry().counter("serve.session.evictions").increment()

    def _evict_idle(self, now: float) -> None:
        """Drop sessions idle beyond the TTL (LRU-first scan)."""
        if self.idle_ttl_s is None:
            return
        while self._sessions:
            oldest = next(iter(self._sessions.values()))
            if now - oldest.last_seen <= self.idle_ttl_s:
                break
            self._evict_one()

    def session(self, sensor_id: str,
                config: Optional[SensorConfig] = None) -> SensorSession:
        """Get or create the session for ``sensor_id``.

        Accessing a session marks it most-recently-used; the access
        also sweeps idle sessions and, when creating a new session
        against a full manager, evicts the LRU one.

        Raises:
            ServeError: An existing session was opened with a
                different config (a sensor cannot switch calibrations
                mid-stream).
        """
        now = self._clock()
        session = self._sessions.get(sensor_id)
        if session is not None:
            if config is not None and config != session.config:
                raise ServeError(
                    f"sensor {sensor_id!r} is bound to config "
                    f"{session.config}, got {config}"
                )
            # Move to the most-recently-used end of the LRU order.
            self._sessions[sensor_id] = self._sessions.pop(sensor_id)
            session.last_seen = now
            self._evict_idle(now)
            return session
        if config is None:
            config = SensorConfig()
        # Bind first, so evicting the config's last other session
        # does not drop the estimator this session is about to share.
        session = SensorSession(sensor_id, config, self.estimator(config))
        self._bound[config] = self._bound.get(config, 0) + 1
        self._evict_idle(now)
        if self.max_sessions is not None:
            while len(self._sessions) >= self.max_sessions:
                self._evict_one()
        session.last_seen = now
        self._sessions[sensor_id] = session
        return session

    def get(self, sensor_id: str) -> Optional[SensorSession]:
        """The existing session for ``sensor_id``, or None."""
        return self._sessions.get(sensor_id)
