"""The WiForce sensor: transduction, clocking, tag and power budget.

Combines the mechanics substrate (where do the shorting points go) with
the RF substrate (what reflection does that produce) into the complete
backscatter tag of paper section 4: microstrip sensor, two duty-cycled
reflective switches, splitter and antenna.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clock": ("ClockingScheme", "DutyCycleClock", "naive_clocking",
              "wiforce_clocking"),
    "fabrication": ("FabricationTolerances", "perturbed_design",
                    "scaled_design", "tolerance_report"),
    "geometry": ("SensorDesign", "default_sensor_design"),
    "harvester": ("EnergyHarvester", "HarvestingReport", "Rectifier"),
    "multitouch": ("AmbiguityReport", "TwoPressState", "ambiguity_report",
                   "two_press_phases"),
    "power": ("PowerBudget", "wiforce_power_budget"),
    "tag": ("TagState", "WiForceTag"),
    "transduction": ("ForceTransducer", "PortPhases"),
    "viscoelastic": ("CreepingTransducer", "StandardLinearSolid"),
})
