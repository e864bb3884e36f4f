"""RF switch models (paper section 4.3).

The tag multiplexes the two sensor ends with SPDT RF switches.  The
paper stresses that the switches must be *reflective* in the off state:
differential phase sensing compares the touched sensor against the
untouched one, and with an absorptive off state the untouched baseline
is absorbed instead of reflected, destroying the reference (section
4.3).  Both behaviours are modelled so that design choice can be
ablated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import from_db_amplitude


@dataclass(frozen=True)
class RFSwitch:
    """Single-pole RF switch between the antenna branch and a sensor end.

    The SPDT sits at the sensor end: its common port is the sensor, one
    throw goes to the splitter/antenna branch, the other to a reflective
    open.  Its off state therefore has two distinct faces: the *sensor*
    sees the reflective open (``off_reflection_*``), which the opposite
    port's measurement relies on, while the *antenna branch* looks into
    the deselected throw and sees only a small residual reflection
    (``branch_off_return_loss_db``).

    Attributes:
        name: Part identifier.
        insertion_loss_db: On-state insertion loss [dB] (one pass).
        off_reflection_magnitude: |Gamma| the sensor sees in the off
            state (≈1 reflective, ≈0 absorptive).
        off_reflection_phase: Phase [rad] of that off-state reflection.
        branch_off_return_loss_db: Return loss [dB] the antenna branch
            sees when the switch is off (large = well matched).
    """

    name: str = "ideal"
    insertion_loss_db: float = 0.0
    off_reflection_magnitude: float = 1.0
    off_reflection_phase: float = 0.0
    branch_off_return_loss_db: float = 20.0

    def __post_init__(self) -> None:
        if self.insertion_loss_db < 0.0:
            raise ConfigurationError(
                f"insertion loss must be non-negative dB, got "
                f"{self.insertion_loss_db}"
            )
        if not 0.0 <= self.off_reflection_magnitude <= 1.0:
            raise ConfigurationError(
                f"off-state |Gamma| must be in [0, 1], got "
                f"{self.off_reflection_magnitude}"
            )

    @property
    def is_reflective(self) -> bool:
        """True when the off state reflects most of the incident power."""
        return self.off_reflection_magnitude >= 0.5

    @property
    def through_gain(self) -> float:
        """On-state amplitude gain (one pass) from the insertion loss."""
        return from_db_amplitude(-self.insertion_loss_db)

    @property
    def off_reflection(self) -> complex:
        """Off-state reflection the *sensor* sees (line termination)."""
        return self.off_reflection_magnitude * np.exp(
            1j * self.off_reflection_phase)

    @property
    def branch_off_reflection(self) -> complex:
        """Off-state reflection the *antenna branch* sees."""
        return complex(from_db_amplitude(-self.branch_off_return_loss_db))

#: Analog Devices HMC544AE, the prototype's reflective switch: ~0.35 dB
#: insertion loss, reflective-open off state.
HMC544AE = RFSwitch(
    name="HMC544AE",
    insertion_loss_db=0.35,
    off_reflection_magnitude=0.95,
    off_reflection_phase=0.35,
    # Composite of the deselected throw's return loss and the Wilkinson
    # splitter's isolation-resistor absorption.
    branch_off_return_loss_db=30.0,
)

#: An absorptive counterpart used to ablate the reflective-switch
#: design requirement (paper section 4.3).
ABSORPTIVE_SWITCH = RFSwitch(
    name="absorptive",
    insertion_loss_db=0.5,
    off_reflection_magnitude=0.05,
    off_reflection_phase=0.0,
)
