"""Fault-layer observability: instruments render; unarmed adds none.

Two contracts: (1) every ``fault.*`` instrument the degradation
machinery emits renders through the Prometheus exporter exactly as the
committed golden file says (the exposition format is an operational
contract — dashboards scrape these names); (2) an *unarmed* fault
layer is invisible — serving requests without an armed plan creates no
``fault.*`` instruments at all.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.errors import QueueFullError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import to_prometheus
from repro.obs.registry import observed
from repro.serve import BatchPolicy, EstimateRequest, InferenceService
from repro.serve.protocol import SensorConfig
from repro.serve.session import SensorSession
from tests.clients import RefusingScheduler, submit_through

GOLDEN = Path(__file__).parent / "data" / "obs_faults_prometheus.golden.txt"


def _fault_registry():
    """Exercise every fault.* emitter once, deterministically."""
    with observed() as registry:
        # Injection counters (global + per-site).
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="serve.scheduler", kind="stall",
                      schedule=(0,)),)))
        injector.draw("serve.scheduler")

        # Retry counter: the service's submit refused once, then
        # accepted.
        submit_through(RefusingScheduler(QueueFullError("full"),
                                         refusals=1))

        # Session quarantine.
        session = SensorSession("g-0", SensorConfig(), estimator=None)
        session.quarantine()
    return registry


class TestFaultInstrumentGolden:
    def test_matches_golden_file(self):
        assert to_prometheus(_fault_registry()) == GOLDEN.read_text()

    def test_every_emitter_is_covered(self):
        counters = _fault_registry().snapshot()["counters"]
        assert set(counters) == {
            "fault.injected",
            "fault.injected.serve.scheduler",
            "fault.retries.serve.submit",
            "fault.quarantines",
        }


class TestUnarmedIsInvisible:
    def test_unarmed_serve_request_creates_no_fault_instruments(
            self, model_900):
        service = InferenceService(
            policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
            model_factory=lambda config: model_900)
        request = EstimateRequest(sensor_id="u-0", sequence=0,
                                  time=0.0, phi1=0.5, phi2=0.4,
                                  config=SensorConfig())
        with observed() as registry:
            asyncio.run(service.estimate(request))
        snapshot = registry.snapshot()
        names = (list(snapshot["counters"])
                 + list(snapshot["gauges"])
                 + list(snapshot["histograms"]))
        assert not [name for name in names if name.startswith("fault.")]

    def test_unarmed_injection_renders_nothing(self):
        with observed() as registry:
            pass
        assert to_prometheus(registry) == ""
