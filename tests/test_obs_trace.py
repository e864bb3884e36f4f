"""Distributed tracing: IDs, the traceparent codec, stitched trees.

The codec tests are the hostile-input contract: ``parse_traceparent``
is **total** — any string (or non-string) either decodes to a valid
:class:`TraceContext` or answers ``None``, never raises — and
well-formed headers round-trip exactly.  The stitching tests drive the
real serve stack and the campaign executor and assert every span of
one request shares one trace ID with correct parent links.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MemorySink, observed
from repro.obs import trace
from repro.obs.trace import (
    TraceContext,
    UNSAMPLED,
    parse_traceparent,
    render_waterfall,
    request_context,
    trace_sampled,
)
from repro.serve import BatchPolicy, EstimateRequest, InferenceService, SensorConfig
from tests.clients import estimate_many

_HEX = "0123456789abcdef"
_TRACE_IDS = st.text(_HEX, min_size=32, max_size=32).filter(
    lambda t: t != "0" * 32)
_SPAN_IDS = st.text(_HEX, min_size=16, max_size=16).filter(
    lambda s: s != "0" * 16)


class TestIds:
    def test_trace_ids_are_32_hex_and_unique(self):
        ids = {trace.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 32 and int(t, 16) >= 0 for t in ids)

    def test_span_ids_are_16_hex_and_unique(self):
        ids = [trace.new_span_id() for _ in range(512)]
        assert len(set(ids)) == 512
        assert all(len(s) == 16 and int(s, 16) > 0 for s in ids)


class TestSampling:
    def test_rate_bounds(self):
        assert trace_sampled("f" * 32, 1.0)
        assert not trace_sampled("0" * 31 + "1", 0.0)

    def test_decision_is_deterministic(self):
        tid = trace.new_trace_id()
        decisions = {trace_sampled(tid, 0.5) for _ in range(10)}
        assert len(decisions) == 1

    def test_rate_halves_roughly_half(self):
        sampled = sum(trace_sampled(trace.new_trace_id(), 0.5)
                      for _ in range(400))
        assert 100 < sampled < 300

    def test_sample_rate_parses_and_clamps(self, monkeypatch):
        assert trace.sample_rate({}) == 1.0
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "0.25"}) == 0.25
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "7"}) == 1.0
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "-1"}) == 0.0
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "nope"}) == 1.0

    def test_nan_rate_falls_back_to_one(self, monkeypatch):
        # "nan" parses as a float and slips through a plain clamp;
        # every new root would then fail to draw its decision.
        monkeypatch.setattr(trace, "_rate_cache", (None, 1.0))
        monkeypatch.setenv(trace.TRACE_SAMPLE_ENV, "nan")
        assert trace.sample_rate() == 1.0
        assert trace.new_root().sampled
        assert request_context().sampled
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "inf"}) == 1.0
        assert trace.sample_rate({trace.TRACE_SAMPLE_ENV: "-inf"}) == 0.0

    def test_unsampled_child_is_self(self):
        assert UNSAMPLED.child() is UNSAMPLED

    def test_request_context_always_has_real_ids(self, monkeypatch):
        monkeypatch.setenv(trace.TRACE_SAMPLE_ENV, "0")
        context = request_context()
        assert context.trace_id != "0" * 32
        assert not context.sampled


class TestTraceparentCodec:
    @given(trace_id=_TRACE_IDS, span_id=_SPAN_IDS,
           sampled=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, trace_id, span_id, sampled):
        context = TraceContext(trace_id, span_id, sampled)
        parsed = parse_traceparent(context.to_traceparent())
        assert parsed == context

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_total_on_arbitrary_text(self, header):
        parsed = parse_traceparent(header)
        if parsed is not None:
            assert parse_traceparent(parsed.to_traceparent()) == parsed

    @given(st.one_of(st.none(), st.integers(), st.binary(max_size=16),
                     st.lists(st.text(max_size=4))))
    @settings(max_examples=100, deadline=None)
    def test_total_on_non_strings(self, junk):
        assert parse_traceparent(junk) is None

    @pytest.mark.parametrize("header", [
        "",
        "00",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # zero span id
        "ff-" + "a" * 32 + "-" + "1" * 16 + "-01",   # forbidden version
        "00-" + "A" * 32 + "-" + "1" * 16 + "-01",   # uppercase hex
        "00-" + "a" * 31 + "-" + "1" * 16 + "-01",   # short trace id
        "00-" + "a" * 32 + "-" + "1" * 15 + "-01",   # short span id
        "00-" + "a" * 32 + "-" + "1" * 16 + "-0x",   # bad flags
        "00-" + "a" * 32 + "-" + "1" * 16 + "-01-extra",  # v00 + extras
        "0-aa-bb-01",
    ])
    def test_malformed_headers_degrade_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_with_extra_fields_parses(self):
        header = "01-" + "a" * 32 + "-" + "1" * 16 + "-01-future"
        parsed = parse_traceparent(header)
        assert parsed is not None
        assert parsed.sampled

    def test_flags_bit_zero_is_the_sampling_decision(self):
        base = "00-" + "a" * 32 + "-" + "1" * 16
        assert parse_traceparent(base + "-01").sampled
        assert not parse_traceparent(base + "-00").sampled
        assert parse_traceparent(base + "-03").sampled


def _by_name(events):
    spans = {}
    for event in events:
        if "span" in event:
            spans.setdefault(event["span"], []).append(event)
    return spans


class TestStitchedServeTrace:
    def test_one_request_is_one_coherent_tree(self, model_900):
        context = request_context()
        with observed(sink=MemorySink()) as registry:
            service = InferenceService(
                policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
                model_factory=lambda config: model_900)
            request = EstimateRequest(
                sensor_id="s0", sequence=0, time=0.0,
                phi1=0.5, phi2=0.4, config=SensorConfig())

            async def go():
                token = trace.set_context(context)
                try:
                    return await service.estimate(request)
                finally:
                    trace.reset_context(token)

            asyncio.run(go())
            events = registry.sink.events
        assert {event["trace_id"] for event in events} \
            == {context.trace_id}
        spans = _by_name(events)
        for name in ("serve.estimate", "serve.session", "serve.flush",
                     "estimator.invert_batch"):
            assert name in spans, name
        estimate = spans["serve.estimate"][0]
        session = spans["serve.session"][0]
        flush = spans["serve.flush"][0]
        invert = spans["estimator.invert_batch"][0]
        assert estimate["parent_span_id"] == context.span_id
        assert session["parent_span_id"] == estimate["span_id"]
        assert flush["parent_span_id"] == estimate["span_id"]
        assert invert["parent_span_id"] == flush["span_id"]
        assert flush["links"] == [{"trace_id": context.trace_id,
                                   "span_id": estimate["span_id"]}]

    def test_batch_flush_links_every_member(self, model_900):
        with observed(sink=MemorySink()) as registry:
            service = InferenceService(
                policy=BatchPolicy(max_batch=3, max_delay_s=0.05),
                model_factory=lambda config: model_900)
            config = SensorConfig()
            requests = [
                EstimateRequest(sensor_id=f"s{i}", sequence=0, time=0.0,
                                phi1=0.5, phi2=0.4, config=config)
                for i in range(3)
            ]
            asyncio.run(estimate_many(service, requests))
            events = registry.sink.events
        spans = _by_name(events)
        linked = {link["span_id"]
                  for flush in spans["serve.flush"]
                  for link in flush.get("links", ())}
        members = {event["span_id"] for event in spans["serve.estimate"]}
        assert linked == members
        assert len({event["trace_id"]
                    for event in spans["serve.estimate"]}) == 3


def _traced_trial(value):
    from repro.obs.registry import active

    obs = active()
    if obs is not None:
        obs.counter("trial.calls").increment()
        with obs.span("trial.work", {"value": value}):
            pass
    return value * 2


class TestCampaignTrace:
    def test_serial_trials_nest_under_campaign_run(self):
        from repro.experiments.parallel import CampaignExecutor

        with observed(sink=MemorySink()) as registry:
            execution = CampaignExecutor(workers=1).run(
                _traced_trial, [(1,), (2,)])
            events = registry.sink.events
        assert execution.results == [2, 4]
        spans = _by_name(events)
        run = spans["campaign.run"][0]
        assert len(spans["campaign.trial"]) == 2
        for trial in spans["campaign.trial"]:
            assert trial["trace_id"] == run["trace_id"]
            assert trial["parent_span_id"] == run["span_id"]
        for work in spans["trial.work"]:
            assert work["trace_id"] == run["trace_id"]

    def test_worker_trials_stitch_across_processes(self):
        from repro.experiments.parallel import CampaignExecutor

        with observed(sink=MemorySink()) as registry:
            execution = CampaignExecutor(workers=2).run(
                _traced_trial, [(1,), (2,), (3,), (4,)])
            events = registry.sink.events
        assert execution.results == [2, 4, 6, 8]
        if execution.mode != "parallel":
            pytest.skip(f"pool unavailable: {execution.fallback_reason}")
        spans = _by_name(events)
        run = spans["campaign.run"][0]
        assert len(spans["campaign.trial"]) == 4
        for trial in spans["campaign.trial"]:
            assert trial["trace_id"] == run["trace_id"]
            assert trial["parent_span_id"] == run["span_id"]
        span_ids = [event["span_id"] for event in events
                    if "span_id" in event]
        assert len(span_ids) == len(set(span_ids))


class TestWaterfall:
    def test_renders_nested_offsets(self):
        events = [
            {"span": "root", "trace_id": "a" * 32, "span_id": "1" * 16,
             "parent_span_id": None, "start_unix": 100.0,
             "duration_s": 0.01, "status": "ok"},
            {"span": "child", "trace_id": "a" * 32, "span_id": "2" * 16,
             "parent_span_id": "1" * 16, "start_unix": 100.002,
             "duration_s": 0.005, "status": "error",
             "error": "ValueError", "error_message": "boom",
             "batch_size": 2},
        ]
        rendered = render_waterfall(events, "aaaa")
        lines = rendered.splitlines()
        assert lines[0].startswith("trace " + "a" * 32)
        assert "root" in lines[1]
        assert lines[2].startswith("    ") or "  child" in lines[2]
        assert "!ValueError: boom" in lines[2]
        assert "batch_size=2" in lines[2]

    def test_no_match_renders_empty(self):
        assert render_waterfall([], "abc") == ""
        assert render_waterfall(
            [{"span": "s", "span_id": "1" * 16,
              "trace_id": "b" * 32}], "a") == ""

    def test_orphan_parents_become_roots(self):
        events = [{"span": "lonely", "trace_id": "c" * 32,
                   "span_id": "3" * 16, "parent_span_id": "9" * 16,
                   "start_unix": 1.0, "duration_s": 0.001,
                   "status": "ok"}]
        rendered = render_waterfall(events, "c" * 32)
        assert "lonely" in rendered
