"""RFID touch-interface baseline (RIO [16] / LiveTag [17] class).

These systems detect *which tag* is being touched from RSS/phase
perturbations of each tag's backscatter, so their localization is
quantised to the tag pitch (centimetres) and they carry no force
magnitude at all.  The paper's location-accuracy comparison (section
5.1: "about 5 times higher accuracy ... errors in the order of
magnitude of centimeters") is reproduced by running this array on the
same presses as WiForce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RFIDTouchReading:
    """One touch-array reading.

    Attributes:
        touched: Whether any tag registered a touch.
        tag_index: Index of the touched tag (-1 when none).
        location: Location estimate [m]: the touched tag's centre.
    """

    touched: bool
    tag_index: int
    location: float


class RFIDTouchArray:
    """A strip of RFID tags read by RSS/phase perturbation.

    A touch perturbs the tag whose footprint contains the finger, and
    to a lesser degree its neighbours (coupling).  Detection compares
    each tag's perturbation against a threshold; localization returns
    the strongest tag's centre — tag-pitch-quantised by construction.

    Args:
        length: Covered strip length [m].
        tag_pitch: Tag-to-tag spacing [m] (2-4 cm for RIO/LiveTag-class
            designs).
        detection_snr_db: Perturbation-to-noise ratio of a direct touch.
        rng: Random source.
    """

    def __init__(self, length: float = 80e-3, tag_pitch: float = 25e-3,
                 detection_snr_db: float = 20.0,
                 rng: Optional[np.random.Generator] = None):
        if length <= 0.0 or tag_pitch <= 0.0:
            raise ConfigurationError(
                "length and tag pitch must be positive"
            )
        if tag_pitch > length:
            raise ConfigurationError(
                f"tag pitch {tag_pitch} larger than the strip {length}"
            )
        self.length = float(length)
        self.tag_pitch = float(tag_pitch)
        self.detection_snr_db = float(detection_snr_db)
        self._rng = rng or np.random.default_rng()
        count = max(2, int(round(length / tag_pitch)) + 1)
        self._centres = np.linspace(0.0, length, count)

    def _perturbations(self, location: float, force: float) -> np.ndarray:
        """Per-tag perturbation amplitudes for a touch.

        The touch perturbs tags within roughly one pitch; the response
        saturates almost immediately with force (binary-touch nature:
        skin proximity, not pressure, detunes the tag).
        """
        distance = np.abs(self._centres - location)
        footprint = np.maximum(0.0, 1.0 - distance / self.tag_pitch)
        saturating = 1.0 - np.exp(-force / 0.2) if force > 0.0 else 0.0
        return footprint * saturating

    def read(self, force: float, location: float) -> RFIDTouchReading:
        """Read the array under a press.

        Args:
            force: Contact force [N] (0 = no touch).
            location: Contact location [m] along the strip.
        """
        if force < 0.0:
            raise ConfigurationError(f"force must be >= 0, got {force}")
        if not 0.0 <= location <= self.length:
            raise ConfigurationError(
                f"location {location} outside the strip [0, {self.length}]"
            )
        signal = self._perturbations(location, force)
        noise_scale = 10.0 ** (-self.detection_snr_db / 20.0)
        observed = signal + self._rng.normal(0.0, noise_scale,
                                             signal.shape)
        threshold = 3.0 * noise_scale
        if observed.max() < max(threshold, 0.3):
            return RFIDTouchReading(touched=False, tag_index=-1,
                                    location=0.0)
        index = int(np.argmax(observed))
        return RFIDTouchReading(touched=True, tag_index=index,
                                location=float(self._centres[index]))

    def location_errors(self, locations: List[float],
                        force: float = 2.0) -> np.ndarray:
        """Absolute localization error [m] for a batch of touches."""
        errors = []
        for location in locations:
            reading = self.read(force, float(location))
            if reading.touched:
                errors.append(abs(reading.location - location))
            else:
                errors.append(self.length)
        return np.array(errors)
