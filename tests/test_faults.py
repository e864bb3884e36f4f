"""Fault layer units: plans, the injector registry, the service's
backpressure retries."""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultError, QueueFullError, ServeError
from repro.faults import (
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    armed,
    disarm,
    inject,
    unit_draw,
    validate_plan,
)
from repro.serve.service import RETRY_DELAYS_S
from tests.clients import RefusingScheduler, submit_through


class TestUnitDraw:
    def test_in_unit_interval(self):
        for counter in range(200):
            value = unit_draw(7, "site", "kind", counter)
            assert 0.0 <= value < 1.0

    def test_pure_function_of_arguments(self):
        assert (unit_draw(3, "a", 1) == unit_draw(3, "a", 1))
        assert (unit_draw(3, "a", 1) != unit_draw(4, "a", 1))
        assert (unit_draw(3, "a", 1) != unit_draw(3, "b", 1))

    def test_roughly_uniform(self):
        draws = [unit_draw(0, "x", c) for c in range(2000)]
        mean = sum(draws) / len(draws)
        assert 0.45 < mean < 0.55


class TestFaultSpec:
    def test_validates_fields(self):
        with pytest.raises(FaultError):
            FaultSpec(site="", kind="stall")
        with pytest.raises(FaultError):
            FaultSpec(site="s", kind="k", probability=1.5)
        with pytest.raises(FaultError):
            FaultSpec(site="s", kind="k", duration=0)
        with pytest.raises(FaultError):
            FaultSpec(site="s", kind="k", schedule=(-1,))

    def test_schedule_fires_exactly_there(self):
        spec = FaultSpec(site="s", kind="k", schedule=(2, 5))
        fired = [c for c in range(10) if spec.fires(0, c)]
        assert fired == [2, 5]

    def test_burst_duration_extends_schedule(self):
        spec = FaultSpec(site="s", kind="k", schedule=(3,), duration=3)
        fired = [c for c in range(10) if spec.fires(0, c)]
        assert fired == [3, 4, 5]

    def test_probability_is_counter_deterministic(self):
        spec = FaultSpec(site="s", kind="k", probability=0.3)
        first = [spec.fires(11, c) for c in range(100)]
        second = [spec.fires(11, c) for c in range(100)]
        assert first == second
        assert any(first) and not all(first)

    def test_zero_probability_never_fires(self):
        spec = FaultSpec(site="s", kind="k", probability=0.0)
        assert not any(spec.fires(0, c) for c in range(50))

    def test_per_spec_seed_decorrelates(self):
        a = FaultSpec(site="s", kind="k", probability=0.5, seed=0)
        b = FaultSpec(site="s", kind="k", probability=0.5, seed=1)
        assert ([a.fires(0, c) for c in range(64)]
                != [b.fires(0, c) for c in range(64)])

    def test_dict_round_trip(self):
        spec = FaultSpec(site="serve.scheduler", kind="stall",
                         probability=0.25, schedule=(1, 4),
                         magnitude=0.5, duration=2, seed=9)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_malformed_dict_raises_fault_error(self):
        with pytest.raises(FaultError):
            FaultSpec.from_dict("not a dict")
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"site": "s"})  # no kind
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"site": "s", "kind": "k",
                                 "probability": "lots"})


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            name="test",
            seed=5,
            specs=(
                FaultSpec(site="serve.scheduler", kind="stall",
                          probability=0.1),
                FaultSpec(site="cache.store", kind="corrupt",
                          schedule=(0,)),
            ),
        )

    def test_sites_and_specs_for(self):
        plan = self._plan()
        assert plan.sites == ("cache.store", "serve.scheduler")
        assert len(plan.specs_for("serve.scheduler")) == 1
        assert plan.specs_for("reader.capture") == ()

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_save_load_round_trip(self, tmp_path):
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_malformed_json_raises_fault_error(self):
        with pytest.raises(FaultError):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultError):
            FaultPlan.from_dict([1, 2, 3])

    def test_specs_must_be_fault_specs(self):
        with pytest.raises(FaultError):
            FaultPlan(specs=({"site": "s"},))


class TestInjector:
    def test_registry_names_all_issue_sites(self):
        assert set(SITES) == {
            "reader.capture", "channel.snr", "sensor.clock",
            "cache.store", "serve.scheduler", "experiments.parallel",
        }

    def test_validate_rejects_unknown_site_and_kind(self):
        with pytest.raises(FaultError):
            validate_plan(FaultPlan(specs=(
                FaultSpec(site="nope", kind="stall"),)))
        with pytest.raises(FaultError):
            validate_plan(FaultPlan(specs=(
                FaultSpec(site="serve.scheduler", kind="dropout"),)))

    def test_draw_advances_counter_and_records_events(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="serve.scheduler", kind="stall",
                      schedule=(1,), magnitude=0.5),))
        injector = FaultInjector(plan)
        assert injector.draw("serve.scheduler") is None
        event = injector.draw("serve.scheduler")
        assert event is not None
        assert (event.site, event.kind, event.counter) == (
            "serve.scheduler", "stall", 1)
        assert event.magnitude == 0.5
        assert injector.counter("serve.scheduler") == 2
        assert injector.event_dicts() == [event.to_dict()]

    def test_draw_at_does_not_advance(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="experiments.parallel", kind="crash",
                      schedule=(3,)),))
        injector = FaultInjector(plan)
        assert injector.draw_at("experiments.parallel", 3) is not None
        assert injector.draw_at("experiments.parallel", 3) is not None
        assert injector.counter("experiments.parallel") == 0

    def test_event_rng_is_deterministic(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="cache.store", kind="corrupt",
                      schedule=(0,)),))
        a = FaultInjector(plan).draw("cache.store")
        b = FaultInjector(plan).draw("cache.store")
        assert a.rng().integers(1 << 30) == b.rng().integers(1 << 30)

    def test_unknown_site_draw_is_noop(self):
        injector = FaultInjector(FaultPlan())
        assert injector.draw("serve.scheduler") is None


class TestArming:
    def test_unarmed_by_default(self):
        assert armed() is None

    def test_inject_arms_and_disarms(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="serve.scheduler", kind="stall",
                      probability=0.1),))
        with inject(plan) as injector:
            assert armed() is injector
        assert armed() is None

    def test_nesting_is_rejected(self):
        plan = FaultPlan()
        with inject(plan):
            with pytest.raises(FaultError):
                with inject(plan):
                    pass
        assert armed() is None

    def test_invalid_plan_is_rejected_before_arming(self):
        bad = FaultPlan(specs=(FaultSpec(site="nope", kind="k"),))
        with pytest.raises(FaultError):
            with inject(bad):
                pass
        assert armed() is None

    def test_disarm_escape_hatch(self):
        plan = FaultPlan()
        with inject(plan) as injector:
            assert disarm() is injector
            assert armed() is None


class TestRetry:
    def test_delays_are_seeded_and_bounded(self):
        """Two retries, about 1 ms then about 2 ms apart: the delays
        the committed chaos baseline was recorded with."""
        assert RETRY_DELAYS_S == (0.0010688843703050097,
                                  0.0021031817611761212)

    def test_budget_exhaustion_reraises_original_type(self):
        scheduler = RefusingScheduler(QueueFullError("full"))
        with pytest.raises(QueueFullError):
            submit_through(scheduler)
        assert scheduler.calls == 3

    def test_unlisted_exception_propagates_immediately(self):
        scheduler = RefusingScheduler(ServeError("nope"))
        with pytest.raises(ServeError):
            submit_through(scheduler)
        assert scheduler.calls == 1
