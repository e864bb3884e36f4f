"""Wireless reader substrate: waveforms, sounding, SDR front end.

The reader transmits a wideband waveform and extracts periodic channel
estimates H[k, n] (paper section 4.4: 64-subcarrier, 12.5 MHz OFDM with
a fresh estimate every 60 us).  Two fidelity levels are provided and
cross-validated in the tests: a frame-level sounder that synthesises
the channel-estimate stream directly (the bit-level verification
oracle), and a fast sounder that, for the reader pipeline, fuses
capture and harmonic extraction into one closed-form pass (the
production default).  An FMCW sounder demonstrates the
waveform-agnostic claim of section 3.3, and the front-end model
enforces the USRP's dynamic-range limit that drives the tissue
experiment's metal-plate isolation (section 5.2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batch": ("FastSounder",),
    "fmcw": ("FMCWSounder", "FMCWSounderConfig"),
    "frontend": ("SDRFrontEnd", "USRP_N210"),
    "sounder": ("ChannelEstimateStream", "FrameLevelSounder",
                "concatenate_streams"),
    "uwb": ("UWBSounder", "UWBSounderConfig"),
    "waveform": ("OFDMSounderConfig",),
})
