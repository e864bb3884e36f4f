"""Wireless reader substrate: waveforms, sounding, SDR front end.

The reader transmits a wideband waveform and extracts periodic channel
estimates H[k, n] (paper section 4.4: 64-subcarrier, 12.5 MHz OFDM with
a fresh estimate every 60 us).  Three fidelity levels are provided and
cross-validated in the tests: a sample-level OFDM modem, a frame-level
sounder that synthesises the channel-estimate stream directly (the
bit-level verification oracle), and a fast sounder that captures in
place and, for the reader pipeline, fuses capture and harmonic
extraction into one closed-form pass (the production default).  An FMCW
sounder demonstrates the waveform-agnostic claim of section 3.3, and
the front-end model enforces the USRP's dynamic-range limit that
drives the tissue experiment's metal-plate isolation (section 5.2).
"""

from repro.reader.waveform import OFDMSounderConfig, generate_preamble
from repro.reader.ofdm import OFDMModem
from repro.reader.sounder import (ChannelEstimateStream, FrameLevelSounder,
                                  concatenate_streams)
from repro.reader.batch import FastSounder
from repro.reader.fmcw import FMCWSounderConfig, FMCWSounder
from repro.reader.frontend import SDRFrontEnd, USRP_N210
from repro.reader.sync import FrameSynchronizer, SyncResult, apply_cfo, correct_cfo
from repro.reader.uwb import UWBSounder, UWBSounderConfig

__all__ = [
    "OFDMSounderConfig",
    "generate_preamble",
    "OFDMModem",
    "ChannelEstimateStream",
    "FrameLevelSounder",
    "FastSounder",
    "FMCWSounderConfig",
    "FMCWSounder",
    "SDRFrontEnd",
    "USRP_N210",
    "concatenate_streams",
    "FrameSynchronizer",
    "SyncResult",
    "apply_cfo",
    "correct_cfo",
    "UWBSounder",
    "UWBSounderConfig",
]
