"""Ground-truth rig: actuated indenter + load cell (paper Fig. 11).

The paper grounds its evaluation with an actuated indenter that presses
the sensor at commanded positions while a load cell records the true
force.  This module simulates that rig, including realistic measurement
noise, so the wireless estimates can be scored against a ground truth
that is itself imperfect, exactly as in the physical experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Press:
    """One ground-truth press event.

    Attributes:
        commanded_force: Force the actuator was asked to apply [N].
        applied_force: Force actually applied to the sensor [N].
        measured_force: Load-cell reading [N].
        commanded_location: Commanded press position [m].
        applied_location: Actual press position [m].
    """

    commanded_force: float
    applied_force: float
    measured_force: float
    commanded_location: float
    applied_location: float


class Indenter:
    """Force actuator with a small regulation error.

    Attributes:
        force_noise_std: Std-dev of the applied-force regulation error [N].
        tip_radius: Indenter tip radius [m] (informational; the spreading
            through the soft layer is handled by the pressure kernel).
    """

    def __init__(self, force_noise_std: float = 0.02,
                 tip_radius: float = 1.5e-3,
                 rng: Optional[np.random.Generator] = None):
        if force_noise_std < 0.0:
            raise ConfigurationError(
                f"force noise std must be non-negative, got {force_noise_std}"
            )
        if tip_radius <= 0.0:
            raise ConfigurationError(
                f"tip radius must be positive, got {tip_radius}"
            )
        self.force_noise_std = float(force_noise_std)
        self.tip_radius = float(tip_radius)
        self._rng = rng or np.random.default_rng()

    def apply(self, commanded_force: float) -> float:
        """Return the actually-applied force [N] for a command [N]."""
        if commanded_force < 0.0:
            raise ConfigurationError(
                f"commanded force must be non-negative, got {commanded_force}"
            )
        if commanded_force == 0.0:
            return 0.0
        applied = commanded_force + self._rng.normal(0.0, self.force_noise_std)
        return max(0.0, applied)


class LoadCell:
    """Load cell measuring the true applied force.

    Attributes:
        noise_std: Reading noise std-dev [N].
        full_scale: Saturation limit [N].
    """

    def __init__(self, noise_std: float = 0.01, full_scale: float = 50.0,
                 rng: Optional[np.random.Generator] = None):
        if noise_std < 0.0:
            raise ConfigurationError(
                f"noise std must be non-negative, got {noise_std}"
            )
        if full_scale <= 0.0:
            raise ConfigurationError(
                f"full scale must be positive, got {full_scale}"
            )
        self.noise_std = float(noise_std)
        self.full_scale = float(full_scale)
        self._rng = rng or np.random.default_rng()

    def read(self, applied_force: float) -> float:
        """Return a noisy, saturating reading [N] of the applied force."""
        reading = applied_force + self._rng.normal(0.0, self.noise_std)
        return float(np.clip(reading, 0.0, self.full_scale))


class ActuatedStage:
    """Linear positioning stage carrying the indenter.

    Attributes:
        position_noise_std: Std-dev of the positioning error [m].
        travel: Usable travel range [m].
    """

    def __init__(self, position_noise_std: float = 0.05e-3,
                 travel: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        if position_noise_std < 0.0:
            raise ConfigurationError(
                f"position noise std must be non-negative, got "
                f"{position_noise_std}"
            )
        if travel <= 0.0:
            raise ConfigurationError(f"travel must be positive, got {travel}")
        self.position_noise_std = float(position_noise_std)
        self.travel = float(travel)
        self._rng = rng or np.random.default_rng()

    def move_to(self, commanded_position: float) -> float:
        """Return the actual position [m] reached for a command [m]."""
        if not 0.0 <= commanded_position <= self.travel:
            raise ConfigurationError(
                f"commanded position {commanded_position} outside travel "
                f"[0, {self.travel}]"
            )
        actual = commanded_position + self._rng.normal(
            0.0, self.position_noise_std)
        return float(np.clip(actual, 0.0, self.travel))


class GroundTruthRig:
    """Complete rig: stage + indenter + load cell (paper Fig. 11).

    The rig turns commanded (force, location) pairs into
    :class:`Press` records carrying both the true applied values (fed to
    the sensor simulation) and the noisy measured values (used as the
    experiment's ground truth, as in the paper).
    """

    def __init__(self, indenter: Optional[Indenter] = None,
                 load_cell: Optional[LoadCell] = None,
                 stage: Optional[ActuatedStage] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng()
        self.indenter = indenter or Indenter(rng=rng)
        self.load_cell = load_cell or LoadCell(rng=rng)
        self.stage = stage or ActuatedStage(rng=rng)

    def press(self, force: float, location: float) -> Press:
        """Execute one press and return the ground-truth record."""
        position = self.stage.move_to(location)
        applied = self.indenter.apply(force)
        measured = self.load_cell.read(applied)
        return Press(
            commanded_force=force,
            applied_force=applied,
            measured_force=measured,
            commanded_location=location,
            applied_location=position,
        )
