"""Mechanical settling bench: why readings wait ~0.5 s (section 3.3).

The paper asserts forces take 0.5-1 s to stabilize and sizes its phase
groups accordingly.  Two mechanisms set that timescale here: the beam's
damped vibration after touch onset (modal dynamics) and the elastomer's
viscoelastic creep.  This bench computes both and the phase creep a
reader would see while holding a press.
"""

import numpy as np

from repro.mechanics.dynamics import modal_summary
from repro.sensor.geometry import default_sensor_design
from repro.sensor.viscoelastic import CreepingTransducer, StandardLinearSolid


def test_creep_and_settling(benchmark, report):
    def run():
        design = default_sensor_design()
        modal = modal_summary(design.composite_beam(),
                              foundation_stiffness=design.foundation_stiffness())
        sls = StandardLinearSolid()
        creeping = CreepingTransducer(sls, relaxation_levels=3,
                                      force_points=12, location_points=11)
        times = np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0])
        trace = np.degrees(creeping.creep_trace(900e6, 4.0, 0.040, times))
        return modal, sls, times, trace

    modal, sls, times, trace = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    lines = [
        f"beam fundamental mode     : {modal.fundamental:6.1f} Hz",
        f"vibration settling (2%)   : {modal.settling_time * 1e3:6.0f} ms",
        f"elastomer relaxation tau  : {sls.relaxation_time * 1e3:6.0f} ms",
        f"creep settling (5%)       : {sls.settling_time() * 1e3:6.0f} ms",
        "",
        "phase creep while holding 4 N at 40 mm (port 1):",
    ]
    for time, phase in zip(times, trace):
        lines.append(f"  t = {time * 1e3:6.0f} ms : {phase:8.2f} deg")
    total_creep = abs(trace[-1] - trace[0])
    lines.append("")
    lines.append(f"total creep onset->settled: {total_creep:.2f} deg")
    lines.append("paper shape: mechanics settle within ~1 s — readings "
                 "inside one 36 ms phase group see a static force "
                 "(section 3.3's stationarity assumption)")
    report("creep_settling", "\n".join(lines))

    # Both settling mechanisms land within the paper's 0.5-1 s band
    # (same order of magnitude).
    assert 0.05 < modal.settling_time < 2.0
    assert 0.3 < sls.settling_time() < 2.0
    # Creep converged by 2 s.
    assert abs(trace[-1] - trace[-2]) < 0.5
    # But the group duration (36 ms) sees only a sliver of the creep.
    assert total_creep < 25.0
