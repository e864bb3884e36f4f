"""Baselines the paper compares against or argues around.

Three comparison systems, each implemented far enough to score against
WiForce on the axis the paper claims:

* :mod:`repro.baselines.rfid_touch` — RIO/LiveTag-class RFID touch
  interfaces: binary touch + tag-granularity localization (the paper's
  "~5x better location accuracy" claim, section 5.1).
* :mod:`repro.baselines.strain_rss` — resonance-notch RSS strain
  sensing, which breaks under static multipath (related-work claim,
  section 8).
* :mod:`repro.baselines.digital_backscatter` — the power budget of
  the conventional sensor + ADC + MCU + codeword-translation
  backscatter pipeline (the architecture Fig. 3 contrasts).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "digital_backscatter": ("digital_backscatter_power_budget",),
    "rfid_touch": ("RFIDTouchArray", "RFIDTouchReading"),
    "strain_rss": ("NotchReader", "NotchStrainSensor", "StrainReading"),
    "vision_haptics": ("VisionHapticsPipeline", "WiForceLatency",
                       "latency_comparison"),
})
