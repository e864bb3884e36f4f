"""WiForce's core contribution: the wireless force-reading algorithm.

Paper section 3.3 end to end: group periodic wideband channel
estimates into *phase groups*, take the snapshot-axis DFT to isolate
the tag's "artificial Doppler" tones from static multipath, conjugate-
multiply consecutive groups to cancel air/hardware phase, average over
subcarriers for robustness, and invert a calibrated cubic phase-force
model to recover contact force magnitude and location.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "calibration": ("CalibrationCurve", "SensorModel",
                    "calibrate_harmonic_observable", "calibrate_with_rig"),
    "diagnostics": ("DiscoveredTag", "DiscoveredTone", "LinkReport",
                    "discover_tags", "link_report", "scan_tones"),
    "estimator": ("ForceLocationEstimate", "ForceLocationEstimator",
                  "ReadingUncertainty"),
    "harmonics": ("HarmonicExtractor", "HarmonicMatrix",
                  "integer_period_group_length"),
    "phase": ("differential_phase", "phase_stability_deg",
              "phase_trajectory"),
    "pipeline": ("PressReading", "WiForceReader"),
    "smoothing": ("SmoothedSample", "TrackSmoother"),
    "tracking": ("StreamingTracker", "TouchEvent", "TrackedSample"),
    "twodim": ("ArraySensorPlacement", "TwoDimensionalArray"),
})
