"""Property-based tests (hypothesis) on core invariants.

These complement the example-based suites with randomized checks of
the physical and algebraic invariants the stack rests on: passivity
and reciprocity of the RF networks, the duty-cycle Fourier identities,
phase-extraction identities, contact-solver physics, and calibration
round trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calibration import fit_sensor_model
from repro.core.phase import differential_phase
from repro.rf.elements import shorted_sensor_twoport
from repro.rf.microstrip import MicrostripLine, air_microstrip_impedance
from repro.rf.twoport import abcd_line, abcd_to_s, cascade, input_reflection
from repro.sensor.clock import DutyCycleClock, wiforce_clocking

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRFInvariants:
    @settings(max_examples=40, deadline=None)
    @given(z1=st.floats(min_value=20.0, max_value=150.0),
           z2=st.floats(min_value=20.0, max_value=150.0),
           l1=st.floats(min_value=0.0, max_value=3.0),
           l2=st.floats(min_value=0.0, max_value=3.0))
    def test_lossless_cascades_are_unitary(self, z1, z2, l1, l2):
        """Any cascade of lossless lines conserves power (|S| unitary)."""
        gamma = 1j * np.array([1.0])
        network = cascade(abcd_line(z1, gamma, l1), abcd_line(z2, gamma, l2))
        s = abcd_to_s(network)[0]
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(l1=st.floats(min_value=0.01, max_value=3.0),
           load_phase=st.floats(min_value=-3.1, max_value=3.1),
           load_magnitude=st.floats(min_value=0.0, max_value=1.0))
    def test_matched_line_preserves_reflection_magnitude(self, l1,
                                                         load_phase,
                                                         load_magnitude):
        """|Gamma_in| = |Gamma_L| through a lossless *matched* line —
        the reason shorting-point shifts appear purely as phase."""
        gamma = 1j * np.array([1.0])
        s = abcd_to_s(abcd_line(50.0, gamma, l1))
        load = load_magnitude * np.exp(1j * load_phase)
        gamma_in = input_reflection(s, load)
        assert abs(gamma_in[0]) == pytest.approx(load_magnitude,
                                                 abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(p1=st.floats(min_value=0.001, max_value=0.039),
           width=st.floats(min_value=0.002, max_value=0.06))
    def test_shorted_sensor_reciprocal_and_passive(self, p1, width):
        line = MicrostripLine()
        p2 = min(p1 + width, 0.079)
        network = shorted_sensor_twoport(line, np.array([900e6, 2.4e9]),
                                         (p1, p2))
        np.testing.assert_allclose(network.s12, network.s21, atol=1e-10)
        for k in range(2):
            s = network.s[k]
            eigenvalues = np.linalg.eigvalsh(np.eye(2) - s.conj().T @ s)
            assert np.all(eigenvalues > -1e-9)  # passive

    @settings(max_examples=40, deadline=None)
    @given(ratio=st.floats(min_value=0.05, max_value=5.0))
    def test_impedance_monotone_in_height_ratio(self, ratio):
        base = air_microstrip_impedance(ratio * 1e-3, 1e-3)
        taller = air_microstrip_impedance(ratio * 1.1e-3, 1e-3)
        assert taller > base


class TestClockInvariants:
    @settings(max_examples=40, deadline=None)
    @given(duty=st.floats(min_value=0.05, max_value=0.95),
           phase=st.floats(min_value=0.0, max_value=0.999),
           harmonic=st.integers(min_value=1, max_value=8))
    def test_fourier_coefficient_matches_fft(self, duty, phase, harmonic):
        clock = DutyCycleClock(1e3, duty=duty, phase=phase)
        n = 32768
        t = (np.arange(n) + 0.5) / (n * clock.frequency)
        spectrum = np.fft.fft(clock.is_on(t).astype(float)) / n
        expected = clock.fourier_coefficient(harmonic)
        assert spectrum[harmonic] == pytest.approx(expected, abs=5e-4)

    @settings(max_examples=20, deadline=None)
    @given(base=st.floats(min_value=100.0, max_value=2000.0))
    def test_wiforce_scheme_always_disjoint(self, base):
        scheme = wiforce_clocking(base)
        assert scheme.overlap_fraction() == 0.0
        scheme.validate()


class TestPhaseInvariants:
    @settings(max_examples=40, deadline=None)
    @given(rotation=st.floats(min_value=-3.0, max_value=3.0),
           channel_slope=st.floats(min_value=-5.0, max_value=5.0),
           amplitude=st.floats(min_value=1e-6, max_value=10.0))
    def test_differential_phase_channel_invariant(self, rotation,
                                                  channel_slope,
                                                  amplitude):
        """The extracted phase is invariant to any static channel."""
        k = np.arange(8)
        reference = np.exp(1j * 0.1 * k)
        observed = reference * np.exp(1j * rotation)
        channel = amplitude * np.exp(1j * channel_slope * k / 8.0)
        plain = differential_phase(reference, observed)
        through_channel = differential_phase(reference * channel,
                                             observed * channel)
        assert through_channel == pytest.approx(plain, abs=1e-9)
        assert plain == pytest.approx(rotation, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(min_value=-3.0, max_value=3.0),
           b=st.floats(min_value=-3.0, max_value=3.0))
    def test_differential_phase_antisymmetric(self, a, b):
        k = np.arange(8)
        va = np.exp(1j * (0.2 * k + a))
        vb = np.exp(1j * (0.2 * k + b))
        forward = differential_phase(va, vb)
        backward = differential_phase(vb, va)
        wrapped = np.angle(np.exp(1j * (forward + backward)))
        assert wrapped == pytest.approx(0.0, abs=1e-9)


class TestCalibrationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(c3=st.floats(min_value=-0.01, max_value=0.01),
           c2=st.floats(min_value=-0.05, max_value=0.05),
           c1=st.floats(min_value=-0.3, max_value=0.3),
           c0=st.floats(min_value=-2.0, max_value=2.0))
    def test_cubic_fit_roundtrip(self, c3, c2, c1, c0):
        """Fitting cubic data recovers the cubic exactly (within fit
        conditioning) at interior points."""
        from hypothesis import assume
        forces = np.linspace(1.0, 8.0, 12)
        phases = c3 * forces ** 3 + c2 * forces ** 2 + c1 * forces + c0
        # Samples with exactly zero phase at both ports are treated as
        # pre-contact and dropped by the fit; keep this a pure
        # curve-recovery property.
        assume(np.all(phases != 0.0))
        data = np.stack([phases, phases])
        model = fit_sensor_model([0.02, 0.06], forces, data, data, 900e6)
        probe = 4.321
        expected = c3 * probe ** 3 + c2 * probe ** 2 + c1 * probe + c0
        predicted, _ = model.predict(probe, 0.02)
        assert predicted == pytest.approx(expected, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_location_interpolation_is_convex(self, t):
        """Interpolated predictions stay between the endpoint curves."""
        forces = np.linspace(1.0, 8.0, 8)
        low = np.linspace(0.0, 1.0, 8)
        high = np.linspace(1.0, 3.0, 8)
        model = fit_sensor_model([0.02, 0.06], forces,
                                 np.stack([low, high]),
                                 np.stack([low, high]), 900e6)
        location = 0.02 + t * 0.04
        predicted, _ = model.predict(4.0, location)
        bounds = sorted([model.predict(4.0, 0.02)[0],
                         model.predict(4.0, 0.06)[0]])
        assert bounds[0] - 1e-9 <= predicted <= bounds[1] + 1e-9


class TestContactInvariants:
    @settings(max_examples=10, deadline=None)
    @given(force=st.floats(min_value=1.0, max_value=8.0))
    def test_mirror_symmetry(self, transducer, force):
        """The sensor is geometrically symmetric: mirrored presses give
        port-swapped shorting points."""
        left = transducer.shorting_points(force, 0.030)
        right = transducer.shorting_points(force, 0.050)
        if left is None or right is None:
            return
        length = transducer.design.length
        assert left[0] == pytest.approx(length - right[1], abs=2e-3)
        assert left[1] == pytest.approx(length - right[0], abs=2e-3)


class TestTagPhysicalInvariants:
    @settings(max_examples=12, deadline=None)
    @given(force=st.floats(min_value=0.0, max_value=8.0),
           location=st.floats(min_value=0.02, max_value=0.06),
           carrier=st.sampled_from([900e6, 2.4e9]))
    def test_tag_reflection_passive(self, tag, force, location, carrier):
        """No switch state ever reflects more power than it receives."""
        from repro.sensor.tag import TagState
        grid = np.array([carrier])
        states = tag.state_reflections(grid, TagState(force, location))
        for value in states.values():
            assert abs(value[0]) <= 1.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(force=st.floats(min_value=1.0, max_value=7.5),
           location=st.floats(min_value=0.025, max_value=0.055))
    def test_estimator_roundtrip(self, tag, model_900, force, location):
        """Noiseless phases invert back to the press (within the
        model's cubic-fit error, which grows in the saturating
        high-force regime)."""
        from repro.core.calibration import harmonic_differential_phases
        from repro.core.estimator import ForceLocationEstimator
        phases = harmonic_differential_phases(tag, 900e6, force, location)
        estimate = ForceLocationEstimator(model_900).invert(*phases)
        assert estimate.touched
        assert abs(estimate.force - force) < max(0.5, 0.15 * force)
        assert abs(estimate.location - location) < 2e-3

    @settings(max_examples=15, deadline=None)
    @given(thickness=st.floats(min_value=1e-3, max_value=40e-3),
           permittivity=st.floats(min_value=2.0, max_value=60.0),
           conductivity=st.floats(min_value=0.0, max_value=2.0))
    def test_tissue_slab_passive(self, thickness, permittivity,
                                 conductivity):
        """|t| <= 1 for any physical slab."""
        from repro.channel.tissue import TissueLayer, TissuePhantom
        layer = TissueLayer("custom", thickness,
                            permittivity_override=permittivity,
                            conductivity_override=conductivity)
        t = TissuePhantom([layer]).transmission_coefficient(900e6)
        assert abs(complex(t)) <= 1.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(phase_a=st.floats(min_value=-3.0, max_value=3.0),
           phase_b=st.floats(min_value=-3.0, max_value=3.0),
           mag_a=st.floats(min_value=0.0, max_value=1.0),
           mag_b=st.floats(min_value=0.0, max_value=1.0))
    def test_splitter_never_amplifies(self, phase_a, phase_b, mag_a,
                                      mag_b):
        from repro.rf.elements import ideal_splitter_reflection
        a = np.array([mag_a * np.exp(1j * phase_a)])
        b = np.array([mag_b * np.exp(1j * phase_b)])
        assert abs(ideal_splitter_reflection(a, b)[0]) <= 1.0 + 1e-12
