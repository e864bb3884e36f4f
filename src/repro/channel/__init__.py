"""Wireless channel substrate: propagation, multipath, tissue, noise.

Everything between the reader's antennas and the tag: two-way
backscatter link budgets (Friis), static indoor multipath clutter the
harmonic FFT must reject (paper section 3.3), the layered gelatin
tissue phantom of section 5.2, and receiver noise models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "interference": ("BurstyInterferer", "corrupt_stream",
                     "excise_interference"),
    "mobility": ("clutter_rejection_db", "doppler_shift", "equivalent_speed",
                 "walking_person_clutter"),
    "multipath": ("MultipathChannel", "Path", "indoor_channel"),
    "noise": ("awgn", "channel_estimate_noise_std"),
    "propagation": ("BackscatterLink", "backscatter_link_gain",
                    "free_space_path_gain"),
    "tissue": ("TissueLayer", "TissuePhantom", "body_phantom"),
})
