"""Two-port network algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RFError
from repro.rf.twoport import (
    TwoPort,
    abcd_line,
    abcd_shunt,
    abcd_to_s,
    cascade,
    input_reflection,
)
from tests.oracles.twoport import s_to_abcd

Z0 = 50.0


def lossless_line(beta_l: float, z0: float = 75.0) -> np.ndarray:
    return abcd_line(z0, 1j * np.array([beta_l]), 1.0)


class TestBuilders:
    def test_shunt_infinite_is_identity(self):
        matrix = abcd_shunt(1e18)
        np.testing.assert_allclose(matrix, np.eye(2), atol=1e-15)

    def test_shunt_rejects_zero(self):
        with pytest.raises(RFError):
            abcd_shunt(0.0)

    def test_line_zero_length_is_identity(self):
        matrix = abcd_line(50.0, 1j * np.array([10.0]), 0.0)
        np.testing.assert_allclose(matrix[0], np.eye(2), atol=1e-15)

    def test_line_rejects_negative_length(self):
        with pytest.raises(RFError):
            abcd_line(50.0, 1j, -0.1)

    def test_quarter_wave_inverts_impedance(self):
        matrix = lossless_line(np.pi / 2.0)
        s = abcd_to_s(matrix, Z0)
        # A quarter-wave 75-ohm line transforms a 50-ohm load to
        # 75^2/50 = 112.5 ohm.
        gamma_in = input_reflection(s, 0.0)
        z_in = Z0 * (1 + gamma_in) / (1 - gamma_in)
        assert z_in[0].real == pytest.approx(112.5, rel=1e-9)

    def test_lossless_line_determinant_unity(self):
        matrix = lossless_line(1.234)
        det = np.linalg.det(matrix[0])
        assert det == pytest.approx(1.0, abs=1e-12)


class TestConversions:
    @settings(max_examples=30, deadline=None)
    @given(beta_l=st.floats(min_value=0.05, max_value=3.0),
           z_line=st.floats(min_value=20.0, max_value=150.0))
    def test_abcd_s_roundtrip(self, beta_l, z_line):
        matrix = abcd_line(z_line, 1j * np.array([beta_l]), 1.0)
        back = s_to_abcd(abcd_to_s(matrix, Z0), Z0)
        np.testing.assert_allclose(back, matrix, atol=1e-9)

    def test_matched_line_s11_zero(self):
        matrix = abcd_line(Z0, 1j * np.array([1.0]), 1.0)
        s = abcd_to_s(matrix, Z0)
        assert abs(s[0, 0, 0]) < 1e-12

    def test_matched_line_s21_phase(self):
        beta_l = 0.7
        matrix = abcd_line(Z0, 1j * np.array([beta_l]), 1.0)
        s = abcd_to_s(matrix, Z0)
        assert np.angle(s[0, 1, 0]) == pytest.approx(-beta_l)

    def test_reciprocity_of_line(self):
        s = abcd_to_s(lossless_line(0.9), Z0)
        assert s[0, 0, 1] == pytest.approx(s[0, 1, 0])

    def test_lossless_unitarity(self):
        s = abcd_to_s(lossless_line(0.9), Z0)[0]
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)

    def test_rejects_bad_reference(self):
        with pytest.raises(RFError):
            abcd_to_s(lossless_line(1.0), 0.0)


class TestCascade:
    def test_cascade_of_lines_adds_length(self):
        half = abcd_line(Z0, 1j * np.array([0.4]), 1.0)
        full = abcd_line(Z0, 1j * np.array([0.8]), 1.0)
        np.testing.assert_allclose(cascade(half, half), full, atol=1e-12)

    def test_cascade_identity(self):
        matrix = lossless_line(0.5)
        identity = np.eye(2)[None, :, :]
        np.testing.assert_allclose(cascade(matrix, identity), matrix)

    def test_cascade_requires_matrices(self):
        with pytest.raises(RFError):
            cascade()


class TestInputReflection:
    def test_short_through_line_rotates(self):
        beta_l = 0.6
        s = abcd_to_s(abcd_line(Z0, 1j * np.array([beta_l]), 1.0), Z0)
        gamma = input_reflection(s, -1.0)
        expected = -np.exp(-2j * beta_l)
        assert gamma[0] == pytest.approx(expected)

    def test_open_through_line_rotates(self):
        beta_l = 0.6
        s = abcd_to_s(abcd_line(Z0, 1j * np.array([beta_l]), 1.0), Z0)
        gamma = input_reflection(s, 1.0)
        assert gamma[0] == pytest.approx(np.exp(-2j * beta_l))

    def test_matched_load_no_reflection(self):
        s = abcd_to_s(abcd_line(Z0, 1j * np.array([0.6]), 1.0), Z0)
        assert abs(input_reflection(s, 0.0)[0]) < 1e-12


class TestTwoPortClass:
    def make_twoport(self, beta_l=0.5):
        frequency = np.linspace(1e9, 2e9, 5)
        abcd = abcd_line(75.0, 1j * 2 * np.pi * frequency / 3e8, 0.05)
        return TwoPort(frequency, abcd_to_s(abcd, Z0), Z0)

    def test_shape_validation(self):
        with pytest.raises(RFError):
            TwoPort(np.array([1e9, 2e9]), np.zeros((3, 2, 2)))

    def test_accessors(self):
        network = self.make_twoport()
        assert network.s11.shape == (5,)
        assert network.s21.shape == (5,)

    def test_flip_swaps_ports(self):
        network = self.make_twoport()
        flipped = network.flipped()
        np.testing.assert_allclose(flipped.s11, network.s22)
        np.testing.assert_allclose(flipped.s21, network.s12)
