"""Ground-truth rig (indenter/load cell/stage) tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanics.indenter import (
    ActuatedStage,
    GroundTruthRig,
    Indenter,
    LoadCell,
)


class TestIndenter:
    def test_zero_command_zero_force(self, rng):
        indenter = Indenter(rng=rng)
        assert indenter.apply(0.0) == 0.0

    def test_applied_near_commanded(self, rng):
        indenter = Indenter(force_noise_std=0.02, rng=rng)
        applied = np.array([indenter.apply(3.0) for _ in range(200)])
        assert applied.mean() == pytest.approx(3.0, abs=0.01)
        assert applied.std() == pytest.approx(0.02, rel=0.3)

    def test_never_negative(self, rng):
        indenter = Indenter(force_noise_std=0.5, rng=rng)
        assert all(indenter.apply(0.01) >= 0.0 for _ in range(100))

    def test_rejects_negative_command(self, rng):
        with pytest.raises(ConfigurationError):
            Indenter(rng=rng).apply(-1.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            Indenter(force_noise_std=-0.1)

    def test_deterministic_with_zero_noise(self, rng):
        indenter = Indenter(force_noise_std=0.0, rng=rng)
        assert indenter.apply(2.5) == 2.5


class TestLoadCell:
    def test_reading_near_truth(self, rng):
        cell = LoadCell(noise_std=0.01, rng=rng)
        readings = np.array([cell.read(4.0) for _ in range(200)])
        assert readings.mean() == pytest.approx(4.0, abs=0.005)

    def test_saturates_at_full_scale(self, rng):
        cell = LoadCell(noise_std=0.0, full_scale=10.0, rng=rng)
        assert cell.read(100.0) == 10.0

    def test_never_negative(self, rng):
        cell = LoadCell(noise_std=1.0, rng=rng)
        assert all(cell.read(0.0) >= 0.0 for _ in range(100))

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            LoadCell(noise_std=-1.0)

    def test_rejects_zero_full_scale(self):
        with pytest.raises(ConfigurationError):
            LoadCell(full_scale=0.0)


class TestActuatedStage:
    def test_position_near_command(self, rng):
        stage = ActuatedStage(position_noise_std=0.05e-3, rng=rng)
        positions = np.array([stage.move_to(0.04) for _ in range(200)])
        assert positions.mean() == pytest.approx(0.04, abs=0.02e-3)

    def test_rejects_outside_travel(self, rng):
        with pytest.raises(ConfigurationError):
            ActuatedStage(rng=rng).move_to(1.0)

    def test_clips_to_travel(self, rng):
        stage = ActuatedStage(position_noise_std=1.0, travel=0.1, rng=rng)
        assert all(0.0 <= stage.move_to(0.05) <= 0.1 for _ in range(50))

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            ActuatedStage(position_noise_std=-1.0)


class TestGroundTruthRig:
    def test_press_record_fields(self, rng):
        rig = GroundTruthRig(rng=rng)
        press = rig.press(3.0, 0.04)
        assert press.commanded_force == 3.0
        assert press.commanded_location == 0.04
        assert press.applied_force == pytest.approx(3.0, abs=0.2)
        assert press.measured_force == pytest.approx(press.applied_force,
                                                     abs=0.1)
        assert press.applied_location == pytest.approx(0.04, abs=0.5e-3)

    def test_load_cell_tracks_applied_not_commanded(self, rng):
        rig = GroundTruthRig(
            indenter=Indenter(force_noise_std=0.5, rng=rng),
            load_cell=LoadCell(noise_std=1e-6, rng=rng),
            rng=rng,
        )
        press = rig.press(3.0, 0.04)
        assert press.measured_force == pytest.approx(press.applied_force,
                                                     abs=1e-4)
