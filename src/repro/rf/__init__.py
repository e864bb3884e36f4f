"""RF substrate: microstrip lines, two-port networks, switches, antennas.

Everything the sensor's electromagnetic half needs: quasi-static
microstrip synthesis (paper Appendix / Fig. 19), ABCD/S-parameter
two-port algebra used to model the shorted sensor line exactly
(Figs. 5 and 10), and reflective/absorptive RF switch models (paper
section 4.3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "antenna": ("Antenna", "HALF_WAVE_DIPOLE", "ISOTROPIC", "PATCH_6DBI",
                "OrientedLinkBudget", "polarization_loss_db"),
    "elements": ("ideal_splitter_reflection", "line_twoport",
                 "shorted_sensor_twoport"),
    "microstrip": ("MicrostripLine", "air_microstrip_impedance",
                   "synthesize_ratio_for_impedance",
                   "wide_ground_effective_width"),
    "switch": ("HMC544AE", "RFSwitch"),
    "twoport": ("TwoPort", "abcd_line", "abcd_shunt", "abcd_to_s",
                "cascade", "input_reflection"),
})
