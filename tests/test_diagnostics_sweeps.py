"""Tag-discovery diagnostics, rig calibration and sweep tests."""

import numpy as np
import pytest

from repro.channel.multipath import indoor_channel
from repro.channel.propagation import BackscatterLink
from repro.core.calibration import calibrate_with_rig
from repro.core.diagnostics import discover_tags, link_report, scan_tones
from repro.core.harmonics import integer_period_group_length
from repro.errors import CalibrationError
from repro.experiments import sweeps
from repro.experiments.scenarios import fast_transducer
from repro.mechanics.indenter import GroundTruthRig
from repro.reader.sounder import FrameLevelSounder
from repro.reader.waveform import OFDMSounderConfig
from repro.sensor.clock import wiforce_clocking
from repro.sensor.tag import TagState, WiForceTag


@pytest.fixture(scope="module")
def discovery_stream():
    rng = np.random.default_rng(19)
    config = OFDMSounderConfig(carrier_frequency=900e6)
    tag = WiForceTag(fast_transducer())
    sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                indoor_channel(900e6, rng=rng), rng=rng)
    group = integer_period_group_length(config.frame_period, 1e3)
    return sounder.capture(TagState(), group), group


class TestToneDiscovery:
    def test_finds_readout_tones(self, discovery_stream):
        stream, group = discovery_stream
        tones = scan_tones(stream, group)
        found = {round(t.frequency) for t in tones}
        assert any(abs(f - 1000) < 30 for f in found)
        assert any(abs(f - 4000) < 30 for f in found)

    def test_discovers_tag_comb(self, discovery_stream):
        stream, group = discovery_stream
        tags = discover_tags(stream, group)
        assert tags
        assert tags[0].base_frequency == pytest.approx(1e3, rel=0.05)
        assert tags[0].readout_tones[1] == pytest.approx(4e3, rel=0.05)

    def test_distinct_clock_discovered(self):
        """A strip at a different base clock is identified as such."""
        rng = np.random.default_rng(29)
        config = OFDMSounderConfig(carrier_frequency=900e6)
        tag = WiForceTag(fast_transducer(),
                         clocking=wiforce_clocking(0.8e3))
        sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                    rng=rng)
        group = integer_period_group_length(config.frame_period, 0.8e3)
        stream = sounder.capture(TagState(), group)
        tags = discover_tags(stream, group)
        assert tags
        assert tags[0].base_frequency == pytest.approx(0.8e3, rel=0.05)

    def test_no_tag_in_dead_room(self):
        """Pure clutter produces no comb detections."""
        rng = np.random.default_rng(37)
        config = OFDMSounderConfig(carrier_frequency=900e6)
        tag = WiForceTag(fast_transducer())
        link = BackscatterLink(tag_blockage_db=80.0)  # tag unreachable
        sounder = FrameLevelSounder(config, tag, link,
                                    indoor_channel(900e6, rng=rng),
                                    rng=rng)
        group = integer_period_group_length(config.frame_period, 1e3)
        stream = sounder.capture(TagState(), group)
        tags = discover_tags(stream, group, min_prominence_db=15.0)
        assert not tags


class TestLinkReport:
    def test_healthy_link_usable(self, discovery_stream):
        stream, group = discovery_stream
        # Need several groups for SNR estimation: recapture longer.
        rng = np.random.default_rng(23)
        config = OFDMSounderConfig(carrier_frequency=900e6)
        tag = WiForceTag(fast_transducer())
        sounder = FrameLevelSounder(config, tag, BackscatterLink(),
                                    rng=rng)
        long_stream = sounder.capture(TagState(), 6 * group)
        report = link_report(long_stream, (1e3, 4e3), group)
        assert report.usable
        assert all(snr > 10.0 for _, snr in report.tone_snrs_db)

    def test_dead_link_flagged(self):
        rng = np.random.default_rng(31)
        config = OFDMSounderConfig(carrier_frequency=900e6)
        tag = WiForceTag(fast_transducer())
        link = BackscatterLink(tag_blockage_db=70.0)
        sounder = FrameLevelSounder(config, tag, link,
                                    indoor_channel(900e6, rng=rng),
                                    rng=rng)
        group = integer_period_group_length(config.frame_period, 1e3)
        stream = sounder.capture(TagState(), 6 * group)
        report = link_report(stream, (1e3, 4e3), group)
        assert not report.usable


class TestRigCalibration:
    def test_rig_calibrated_model_close_to_ideal(self, transducer, rng):
        rig = GroundTruthRig(rng=rng)
        forces = np.linspace(0.75, 8.0, 12)
        locations = (0.020, 0.040, 0.060)
        model = calibrate_with_rig(transducer, 900e6, locations, forces,
                                   rig, rng=rng)
        truth = transducer.differential_phases(900e6, 4.0, 0.040)
        predicted = model.predict(4.0, 0.040)
        assert predicted[0] == pytest.approx(truth.port1,
                                             abs=np.radians(4.0))

    def test_rig_noise_perturbs_model(self, transducer, rng):
        rig = GroundTruthRig(rng=rng)
        forces = np.linspace(0.75, 8.0, 12)
        locations = (0.020, 0.040, 0.060)
        noisy = calibrate_with_rig(transducer, 900e6, locations, forces,
                                   rig, phase_noise_std_deg=2.0, rng=rng)
        from tests.oracles.calibration import calibrate_port_observable
        clean = calibrate_port_observable(transducer, 900e6, locations,
                                          forces)
        assert noisy.predict(4.0, 0.04) != clean.predict(4.0, 0.04)

    def test_too_few_forces_rejected(self, transducer, rng):
        rig = GroundTruthRig(rng=rng)
        with pytest.raises(CalibrationError):
            calibrate_with_rig(transducer, 900e6, (0.02, 0.06),
                               [1.0, 2.0], rig, rng=rng)


class TestSweeps:
    def test_tx_power_sweep_improves_with_power(self):
        result = sweeps.sweep_tx_power(fast=True,
                                       powers_dbm=(-20.0, 10.0))
        medians = result.location_medians()
        assert medians[10.0] <= medians[-20.0] * 1.5

    def test_integration_sweep_runs(self):
        result = sweeps.sweep_integration(fast=True, groups=(1, 4))
        assert len(result.points) == 2
        assert all(force < 1.5 for _, force, _ in result.points)

    def test_range_sweep_runs(self):
        result = sweeps.sweep_range(fast=True, separations=(1.0, 4.0))
        assert all(location < 5e-3 for _, _, location in result.points)

    def test_calibration_density_sweep(self):
        result = sweeps.sweep_calibration_density(fast=True,
                                                  location_counts=(3, 9))
        medians = result.location_medians()
        # Denser calibration should not be worse.
        assert medians[9.0] <= medians[3.0] * 1.5
