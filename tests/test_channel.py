"""Channel substrate tests: propagation, multipath, tissue, noise."""

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, Path, indoor_channel
from repro.channel.noise import awgn, channel_estimate_noise_std
from repro.channel.propagation import (
    BackscatterLink,
    backscatter_link_gain,
    free_space_path_gain,
)
from repro.channel.tissue import TissueLayer, TissuePhantom, body_phantom
from repro.errors import ChannelError
from repro.units import SPEED_OF_LIGHT


class TestFreeSpace:
    def test_amplitude_inverse_distance(self):
        near = free_space_path_gain(900e6, 1.0)
        far = free_space_path_gain(900e6, 2.0)
        assert abs(near) == pytest.approx(2 * abs(far))

    def test_phase_matches_distance(self):
        distance = 1.234
        gain = free_space_path_gain(900e6, distance)
        expected = -2 * np.pi * 900e6 * distance / SPEED_OF_LIGHT
        assert np.angle(gain) == pytest.approx(
            np.angle(np.exp(1j * expected)))

    def test_antenna_gains_scale_amplitude(self):
        bare = free_space_path_gain(900e6, 1.0)
        with_gain = free_space_path_gain(900e6, 1.0, 6.0, 6.0)
        assert abs(with_gain) / abs(bare) == pytest.approx(10 ** 0.6,
                                                           rel=1e-6)

    def test_friis_free_space_loss_value(self):
        """31.5 dB at 900 MHz over 1 m (textbook value)."""
        gain = free_space_path_gain(900e6, 1.0)
        loss_db = -20 * np.log10(abs(gain))
        assert loss_db == pytest.approx(31.5, abs=0.2)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ChannelError):
            free_space_path_gain(900e6, 0.0)

    def test_two_way_is_product(self):
        two_way = backscatter_link_gain(900e6, 1.0, 2.0, 0.0, 0.0, 0.0)
        forward = free_space_path_gain(900e6, 1.0)
        backward = free_space_path_gain(900e6, 2.0)
        assert two_way == pytest.approx(forward * backward)


def loss_db(gain) -> float:
    """Power loss [dB] (positive) of a complex path gain."""
    return float(-20.0 * np.log10(np.abs(gain)))


class TestBackscatterLink:
    def test_two_way_loss_reasonable(self):
        link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0)
        loss = loss_db(link.tag_path_gain(900e6))
        assert 20.0 < loss < 60.0

    def test_direct_stronger_than_backscatter(self):
        link = BackscatterLink(tx_to_tag=0.5, tag_to_rx=0.5, tx_to_rx=1.0)
        assert (loss_db(link.direct_path_gain(900e6))
                < loss_db(link.tag_path_gain(900e6)))

    def test_direct_blockage_attenuates(self):
        open_link = BackscatterLink()
        blocked = BackscatterLink(direct_blockage_db=45.0)
        delta = (loss_db(blocked.direct_path_gain(900e6))
                 - loss_db(open_link.direct_path_gain(900e6)))
        assert delta == pytest.approx(45.0, abs=0.1)

    def test_tag_blockage_applies_twice(self):
        open_link = BackscatterLink()
        blocked = BackscatterLink(tag_blockage_db=10.0)
        delta = (loss_db(blocked.tag_path_gain(900e6))
                 - loss_db(open_link.tag_path_gain(900e6)))
        assert delta == pytest.approx(20.0, abs=0.1)

    def test_rejects_bad_distances(self):
        with pytest.raises(ChannelError):
            BackscatterLink(tx_to_tag=0.0)

    def test_rejects_negative_blockage(self):
        with pytest.raises(ChannelError):
            BackscatterLink(direct_blockage_db=-1.0)


class TestMultipath:
    def test_single_path_response(self):
        channel = MultipathChannel([Path(1.0 + 0j, 10e-9)])
        response = channel.frequency_response(np.array([1e9]))
        assert response[0] == pytest.approx(np.exp(-2j * np.pi * 1e9 * 10e-9))

    def test_static_channel_time_invariant(self):
        channel = MultipathChannel([Path(0.5, 10e-9), Path(0.2j, 30e-9)])
        f = np.array([1e9, 1.1e9])
        np.testing.assert_allclose(channel.frequency_response(f, 0.0),
                                   channel.frequency_response(f, 1.0))

    def test_doppler_path_rotates(self):
        channel = MultipathChannel([Path(1.0, 10e-9, doppler=100.0)])
        f = np.array([1e9])
        early = channel.frequency_response(f, 0.0)
        late = channel.frequency_response(f, 2.5e-3)
        assert np.angle(late[0] * np.conj(early[0])) == pytest.approx(
            2 * np.pi * 100.0 * 2.5e-3)

    def test_indoor_channel_power_budget(self, rng):
        channel = indoor_channel(900e6, clutter_to_direct_db=10.0, rng=rng)
        paths = channel.paths
        direct_power = abs(paths[0].gain) ** 2
        clutter_power = sum(abs(p.gain) ** 2 for p in paths[1:])
        assert clutter_power / direct_power == pytest.approx(0.1, rel=1e-6)

    def test_indoor_channel_no_clutter(self, rng):
        channel = indoor_channel(900e6, path_count=0, rng=rng)
        assert len(channel.paths) == 1

    def test_path_rejects_negative_delay(self):
        with pytest.raises(ChannelError):
            Path(1.0, -1e-9)


class TestTissuePhantom:
    def test_body_phantom_layers(self):
        phantom = body_phantom()
        assert [layer.name for layer in phantom.layers] == [
            "muscle", "fat", "skin"]
        assert sum(layer.thickness for layer in phantom.layers) == (
            pytest.approx(37e-3))

    def test_loss_positive(self):
        assert body_phantom().one_way_loss_db(900e6) > 3.0

    def test_higher_frequency_lossier(self):
        """The paper's reason to use 900 MHz for in-body sensing."""
        phantom = body_phantom()
        assert (phantom.one_way_loss_db(2.4e9)
                > phantom.one_way_loss_db(900e6) + 3.0)

    def test_lossless_layer_conserves_energy(self):
        # A lossless dielectric slab transmits + reflects all power.
        layer = TissueLayer("custom", 10e-3, permittivity_override=4.0,
                            conductivity_override=0.0)
        phantom = TissuePhantom([layer])
        t = phantom.transmission_coefficient(1e9)
        assert abs(t) <= 1.0 + 1e-9

    def test_half_wave_window_is_transparent(self):
        """A lossless slab exactly half a wavelength thick transmits
        fully (the classic radome result) — a strong check of the
        transfer-matrix algebra."""
        permittivity = 4.0
        frequency = 1e9
        wavelength = SPEED_OF_LIGHT / (frequency * np.sqrt(permittivity))
        layer = TissueLayer("custom", wavelength / 2.0,
                            permittivity_override=permittivity,
                            conductivity_override=0.0)
        phantom = TissuePhantom([layer])
        t = phantom.transmission_coefficient(frequency)
        assert abs(t) == pytest.approx(1.0, abs=1e-9)

    def test_thicker_muscle_lossier(self):
        thin = TissuePhantom([TissueLayer("muscle", 10e-3)])
        thick = TissuePhantom([TissueLayer("muscle", 30e-3)])
        assert thick.one_way_loss_db(900e6) > thin.one_way_loss_db(900e6)

    def test_transmission_vectorized(self):
        phantom = body_phantom()
        t = phantom.transmission_coefficient(np.array([900e6, 2.4e9]))
        assert t.shape == (2,)

    def test_rejects_unknown_tissue(self):
        with pytest.raises(ChannelError):
            TissueLayer("mystery-meat", 1e-3)

    def test_rejects_empty_stack(self):
        with pytest.raises(ChannelError):
            TissuePhantom([])

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ChannelError):
            TissueLayer("muscle", 0.0)


class TestNoise:
    def test_awgn_power(self, rng):
        noise = awgn(100_000, 2.0, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_awgn_zero_power(self, rng):
        noise = awgn(100, 0.0, rng)
        assert np.all(noise == 0.0)

    def test_awgn_rejects_negative(self, rng):
        with pytest.raises(ChannelError):
            awgn(10, -1.0, rng)

    def test_estimate_noise_scales_with_averaging(self):
        short = channel_estimate_noise_std(12.5e6, 64, 64, 0.1)
        long = channel_estimate_noise_std(12.5e6, 320, 64, 0.1)
        assert long == pytest.approx(short / np.sqrt(5.0))

    def test_estimate_noise_scales_with_amplitude(self):
        weak = channel_estimate_noise_std(12.5e6, 320, 64, 0.01)
        strong = channel_estimate_noise_std(12.5e6, 320, 64, 0.1)
        assert weak == pytest.approx(10 * strong)

    def test_rejects_short_preamble(self):
        with pytest.raises(ChannelError):
            channel_estimate_noise_std(12.5e6, 32, 64, 0.1)
