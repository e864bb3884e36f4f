"""WiForce reproduction: wireless force sensing on a space continuum.

A full-stack simulation reproduction of "WiForce: Wireless Sensing and
Localization of Contact Forces on a Space Continuum" (NSDI 2021):
beam-contact mechanics, microstrip RF, a duty-cycle-multiplexed
backscatter tag, multipath/tissue channels, an OFDM/FMCW wireless
reader, and the phase-group harmonic algorithm that turns channel
estimates into force magnitude and contact location.

Quickstart::

    import numpy as np
    from repro import build_default_system, TagState

    system = build_default_system(carrier_frequency=900e6, seed=1)
    system.reader.capture_baseline()
    reading = system.reader.read(TagState(force=3.0, location=0.045))
    print(reading.force, reading.location)

See README.md for the architecture and DESIGN.md for the paper
experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.channel.multipath import MultipathChannel
    from repro.channel.propagation import BackscatterLink
    from repro.core.calibration import SensorModel
    from repro.core.pipeline import WiForceReader
    from repro.reader.batch import FastSounder
    from repro.sensor.geometry import SensorDesign
    from repro.sensor.tag import WiForceTag
    from repro.sensor.transduction import ForceTransducer

__version__ = "1.0.0"

#: The paper's calibration press locations (section 4.2) [m].
CALIBRATION_LOCATIONS = (0.020, 0.030, 0.040, 0.050, 0.060)

#: The paper's evaluated force range (section 5.1) [N].
FORCE_RANGE = (0.5, 8.0)


@dataclass
class WiForceSystem:
    """A fully assembled sensing deployment.

    Attributes:
        design: Sensor design.
        transducer: Force-to-RF transducer.
        tag: Backscatter tag.
        link: Reader/tag geometry.
        clutter: Environment multipath.
        sounder: Channel sounder (a :class:`FastSounder`).
        model: Calibrated sensor model.
        reader: End-to-end reader.
    """

    design: SensorDesign
    transducer: ForceTransducer
    tag: WiForceTag
    link: BackscatterLink
    clutter: Optional[MultipathChannel]
    sounder: FastSounder
    model: SensorModel
    reader: WiForceReader


def build_default_system(carrier_frequency: float = 900e6,
                         seed: Optional[int] = None,
                         transducer: Optional[ForceTransducer] = None
                         ) -> WiForceSystem:
    """Assemble the paper's default deployment in one call.

    Sensor at 50 cm from both reader antennas (Fig. 12), indoor
    clutter, OFDM sounding at the requested carrier, harmonic-domain
    calibration at the paper's five locations over 16 forces spanning
    :data:`FORCE_RANGE`, and two phase groups averaged per reading.

    Args:
        carrier_frequency: 900 MHz or 2.4 GHz in the paper.
        seed: Seed for all stochastic parts (clutter, noise).
        transducer: Reuse an existing transducer (its contact map is
            the expensive part).
    """
    from repro.channel.multipath import indoor_channel
    from repro.channel.propagation import BackscatterLink
    from repro.core.calibration import calibrate_harmonic_observable
    from repro.core.pipeline import WiForceReader
    from repro.reader.batch import FastSounder
    from repro.reader.waveform import OFDMSounderConfig
    from repro.sensor.geometry import default_sensor_design
    from repro.sensor.tag import WiForceTag
    from repro.sensor.transduction import ForceTransducer

    rng = np.random.default_rng(seed)
    design = default_sensor_design()
    if transducer is None:
        transducer = ForceTransducer(design)
    tag = WiForceTag(transducer)
    link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0)
    clutter = indoor_channel(carrier_frequency, rng=rng)
    config = OFDMSounderConfig(carrier_frequency=carrier_frequency)
    sounder = FastSounder(config, tag, link, clutter, rng=rng)
    model = calibrate_harmonic_observable(
        tag, carrier_frequency, CALIBRATION_LOCATIONS,
        np.linspace(FORCE_RANGE[0], FORCE_RANGE[1], 16))
    reader = WiForceReader(sounder, model, groups_per_capture=2)
    return WiForceSystem(
        design=design,
        transducer=transducer,
        tag=tag,
        link=link,
        clutter=clutter,
        sounder=sounder,
        model=model,
        reader=reader,
    )


__getattr__, __dir__, _exported = lazy_exports(__name__, {
    "channel.multipath": ("MultipathChannel", "indoor_channel"),
    "channel.propagation": ("BackscatterLink",),
    "core.calibration": ("SensorModel", "calibrate_harmonic_observable"),
    "core.estimator": ("ForceLocationEstimate", "ForceLocationEstimator"),
    "core.harmonics": ("HarmonicExtractor",),
    "core.pipeline": ("PressReading", "WiForceReader"),
    "reader.batch": ("FastSounder",),
    "reader.sounder": ("FrameLevelSounder",),
    "reader.waveform": ("OFDMSounderConfig",),
    "sensor.clock": ("wiforce_clocking",),
    "sensor.geometry": ("SensorDesign", "default_sensor_design"),
    "sensor.tag": ("TagState", "WiForceTag"),
    "sensor.transduction": ("ForceTransducer",),
})

__all__ = ["__version__", "CALIBRATION_LOCATIONS", "FORCE_RANGE",
           "WiForceSystem", "build_default_system", *_exported]
