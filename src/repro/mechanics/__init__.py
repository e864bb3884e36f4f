"""Beam/contact mechanics substrate.

Models the WiForce sensor's mechanical half: a soft elastomer beam
bonded to the signal trace, suspended over the ground trace by an air
gap.  Pressing the beam closes the gap over a finite contact region
whose edges (the *shorting points*) shift outward as force grows — the
effect the RF half transduces into phase (paper sections 3.1 and 4.2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "beam": ("BeamSection", "CompositeBeam"),
    "contact": ("ContactMap", "ContactPatch", "GapContactSolver",
                "PressureKernel"),
    "dynamics": ("ModalSummary", "modal_summary", "natural_frequencies",
                 "settling_time"),
    "indenter": ("ActuatedStage", "GroundTruthRig", "Indenter", "LoadCell"),
    "materials": ("COPPER", "ECOFLEX_0030", "ECOFLEX_0050", "FR4",
                  "GELATIN_PHANTOM", "Material"),
})
