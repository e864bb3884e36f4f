"""Sample-level end-to-end test: an unsynchronized listener reader.

The fast frame-level sounder assumes a synchronized single-device
reader (the paper's USRP).  This test runs the whole chain at the
*sample* level for a listener that is NOT synchronized: unknown frame
timing and a carrier frequency offset.  The receiver must detect the
preamble, estimate and correct the CFO, LS-estimate the channel per
frame, and still recover the press's differential phases — closing the
loop between the sample-level modem, the sync module and the harmonic
core.
"""

import numpy as np
import pytest

from repro.channel.propagation import BackscatterLink
from repro.core.calibration import harmonic_differential_phases
from repro.core.harmonics import HarmonicExtractor, integer_period_group_length
from repro.core.phase import differential_phase
from repro.experiments.scenarios import fast_transducer
from repro.reader.sounder import ChannelEstimateStream
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.tag import TagState, WiForceTag
from tests.oracles.ofdm import OFDMModem
from tests.oracles.sync import FrameSynchronizer, apply_cfo, correct_cfo

#: Shortened padding: 625-sample frames (50 us), so a 1 kHz-integer
#: phase group is only 20 frames and the sample-level test stays fast.
CONFIG = OFDMSounderConfig(carrier_frequency=900e6, zero_padding=305)
GROUP = integer_period_group_length(CONFIG.frame_period, 1e3)
TIMING_OFFSET = 217           # unknown to the receiver
CFO_HZ = 2e3                  # unknown to the receiver


@pytest.fixture(scope="module")
def setup():
    tag = WiForceTag(fast_transducer())
    link = BackscatterLink()
    frequencies = CONFIG.subcarrier_frequencies()
    tag_gain = link.tag_path_gain(frequencies)
    static = link.direct_path_gain(frequencies)
    modem = OFDMModem(CONFIG, noise_figure_db=6.0,
                      rng=np.random.default_rng(5))
    return tag, frequencies, tag_gain, static, modem


def transmit_capture(setup, state: TagState, frames: int,
                     start_time: float) -> np.ndarray:
    """Synthesize the listener's raw samples for one capture."""
    tag, frequencies, tag_gain, static, modem = setup
    frame_samples = CONFIG.frame_samples
    total = TIMING_OFFSET + frames * frame_samples
    samples = np.zeros(total, dtype=complex)
    times = start_time + np.arange(frames) * CONFIG.frame_period
    gamma = tag.reflection_series(frequencies, times, state)
    for n in range(frames):
        channel = static + tag_gain * gamma[n]
        received = modem.received_preamble(channel)
        start = TIMING_OFFSET + n * frame_samples
        samples[start:start + received.size] = received
    return apply_cfo(samples, CFO_HZ, CONFIG.bandwidth)


def receive_capture(setup, samples: np.ndarray, frames: int,
                    start_time: float) -> ChannelEstimateStream:
    """Synchronize, correct CFO and estimate the channel per frame."""
    _, frequencies, _, _, modem = setup
    sync = FrameSynchronizer(CONFIG)
    result = sync.detect(samples)
    corrected = correct_cfo(samples, result.cfo, CONFIG.bandwidth)
    frame_samples = CONFIG.frame_samples
    preamble = CONFIG.preamble_samples
    estimates = np.empty((frames, CONFIG.subcarriers), dtype=complex)
    for n in range(frames):
        start = result.offset + n * frame_samples
        estimates[n] = modem.estimate_channel(
            corrected[start:start + preamble])
    times = start_time + np.arange(frames) * CONFIG.frame_period
    return ChannelEstimateStream(
        estimates=estimates, times=times,
        frequencies=frequencies, frame_period=CONFIG.frame_period)


class TestListenerEndToEnd:
    def test_sync_recovers_offset_and_cfo(self, setup):
        samples = transmit_capture(setup, TagState(), 4, 0.0)
        result = FrameSynchronizer(CONFIG).detect(samples)
        assert abs(result.offset - TIMING_OFFSET) <= 2
        assert result.cfo == pytest.approx(CFO_HZ, rel=0.05)

    def test_differential_phase_survives_listener_chain(self, setup):
        tag = setup[0]
        frames = 2 * GROUP
        state = TagState(4.0, 0.040)

        base_tx = transmit_capture(setup, TagState(), frames, 0.0)
        touch_start = frames * CONFIG.frame_period
        touch_tx = transmit_capture(setup, state, frames, touch_start)

        base_stream = receive_capture(setup, base_tx, frames, 0.0)
        touch_stream = receive_capture(setup, touch_tx, frames,
                                       touch_start)

        tones = (tag.clocking.readout_port1, tag.clocking.readout_port2)
        extractor = HarmonicExtractor(tones=tones, group_length=GROUP)
        base = extractor.extract(base_stream)
        touch = extractor.extract(touch_stream)
        phi1 = differential_phase(base[tones[0]].values.mean(axis=0),
                                  touch[tones[0]].values.mean(axis=0))
        phi2 = differential_phase(base[tones[1]].values.mean(axis=0),
                                  touch[tones[1]].values.mean(axis=0))

        expected = harmonic_differential_phases(tag, 900e6, state.force,
                                                state.location)
        assert phi1 == pytest.approx(expected[0], abs=np.radians(5.0))
        assert phi2 == pytest.approx(expected[1], abs=np.radians(5.0))
