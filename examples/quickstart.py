#!/usr/bin/env python3
"""Quickstart: deploy a WiForce sensor and read a press wirelessly.

Builds the paper's default deployment (80 mm sensor, reader antennas
1 m apart with the sensor midway, 900 MHz OFDM sounding), calibrates
the cubic sensor model, and reads a few presses — printing estimated
vs true force magnitude and contact location.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import TagState, build_default_system


def main() -> None:
    print("Building the default WiForce deployment (900 MHz)...")
    system = build_default_system(carrier_frequency=900e6, seed=42)

    reader = system.reader
    print(f"  sensor: {system.design.length * 1e3:.0f} mm microstrip, "
          f"Z0 = {system.design.line.characteristic_impedance:.1f} ohm")
    print(f"  clocks: {reader.sounder.tag.clocking.clock_port1.frequency:.0f}"
          f" / {reader.sounder.tag.clocking.clock_port2.frequency:.0f} Hz, "
          f"readout tones {reader.extractor.tones[0]:.0f} / "
          f"{reader.extractor.tones[1]:.0f} Hz")
    print(f"  channel estimate every "
          f"{reader.sounder.config.frame_period * 1e6:.1f} us, phase groups "
          f"of {reader.extractor.group_length} snapshots")

    print("\nCapturing the untouched baseline (fits tag clock drift)...")
    reader.capture_baseline()
    drift = reader.drift_rates
    print("  fitted drift: " + ", ".join(
        f"{tone:.0f} Hz -> {np.degrees(rate):.2f} deg/s"
        for tone, rate in sorted(drift.items())))

    presses = [(2.0, 0.030), (4.5, 0.045), (7.0, 0.060), (0.0, 0.0)]
    phase_noise = np.radians(0.5)  # the paper's phase accuracy class
    print("\nReading presses over the air:")
    print("   true F [N]  true x [mm] |  estimated")
    for force, location in presses:
        reading = reader.read(TagState(force, location), rebaseline=True)
        if reading.estimate.touched:
            bars = reader.estimator.error_bars(reading.estimate,
                                               phase_noise)
            print(f"   {force:9.2f}  {location * 1e3:10.1f} | "
                  f"{reading.force:5.2f} ± {bars.force_std:.2f} N at "
                  f"{reading.location * 1e3:5.1f} ± "
                  f"{bars.location_std * 1e3:.2f} mm")
        else:
            print(f"   {force:9.2f}  {'-':>10} | no touch")

    print("\nDone. See examples/surgical_phantom.py and "
          "examples/fingertip_ui.py for the paper's application demos.")


if __name__ == "__main__":
    main()
