#!/usr/bin/env python3
"""Traced gateway smoke: one request, one coherent trace tree.

Boots the asyncio gateway on an ephemeral loopback port, sends a
single ``POST /v1/estimate`` carrying a W3C ``traceparent`` header,
and asserts the full stitching contract end to end:

* the response echoes the caller's trace ID in ``x-repro-trace-id``;
* every span of the request — ``gateway.request`` →
  ``serve.estimate`` → ``serve.session`` / ``serve.flush`` →
  ``estimator.invert_batch`` — shares that one trace ID with correct
  parent links;
* the batch ``serve.flush`` span links back to its member request.

The collected span events are written as JSONL (default
``trace-events.jsonl``, override with ``--output``) so
``python -m repro trace show <trace-id> --input <file>`` can render
the waterfall afterwards; the trace ID is printed on stdout.  CI runs
this as the stitched-trace gate.

Run:  python examples/traced_gateway_smoke.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.experiments.scenarios import calibrated_model
from repro.gateway import Gateway, GatewayLimits, Tenant, TenantTable
from repro.gateway import http as gw_http
from repro.obs import MemorySink, observed
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    SensorConfig,
)

TRACE_ID = "feed" * 8
PARENT_SPAN = "abcd" * 4
TRACEPARENT = f"00-{TRACE_ID}-{PARENT_SPAN}-01"

EXPECTED_SPANS = ("gateway.request", "serve.estimate", "serve.session",
                  "serve.flush", "estimator.invert_batch")


async def _one_traced_request(gateway):
    host, port = gateway.address
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(EstimateRequest(
        sensor_id="smoke", sequence=0, time=0.0, phi1=0.5, phi2=0.4,
        config=SensorConfig()).to_dict()).encode("utf-8")
    writer.write(gw_http.render_request(
        "POST", "/v1/estimate",
        headers={"authorization": "Bearer smoke-token",
                 "connection": "close",
                 "content-type": "application/json",
                 "traceparent": TRACEPARENT},
        body=body))
    await writer.drain()
    response = await gw_http.read_response(reader, GatewayLimits())
    writer.close()
    await writer.wait_closed()
    return response


def _spans_by_name(events):
    spans = {}
    for event in events:
        if "span" in event:
            spans.setdefault(event["span"], []).append(event)
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="trace-events.jsonl",
                        help="span-event JSONL destination")
    args = parser.parse_args(argv)

    model = calibrated_model(900e6, fast=True)
    with observed(sink=MemorySink()) as registry:
        service = InferenceService(
            policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
            model_factory=lambda config: model)
        tenants = TenantTable([Tenant(name="smoke",
                                      token="smoke-token")])

        async def scenario():
            async with Gateway(service, tenants=tenants) as gateway:
                return await _one_traced_request(gateway)

        response = asyncio.run(scenario())
        events = list(registry.sink.events)

    assert response.status == 200, response.status
    echoed = response.headers.get("x-repro-trace-id")
    assert echoed == TRACE_ID, (echoed, TRACE_ID)

    spans = _spans_by_name(events)
    for name in EXPECTED_SPANS:
        assert name in spans, f"missing span {name!r}: {sorted(spans)}"
        for event in spans[name]:
            assert event["trace_id"] == TRACE_ID, (name, event)
    gateway_span = spans["gateway.request"][0]
    estimate = spans["serve.estimate"][0]
    flush = spans["serve.flush"][0]
    invert = spans["estimator.invert_batch"][0]
    assert gateway_span["parent_span_id"] == PARENT_SPAN
    assert estimate["parent_span_id"] == gateway_span["span_id"]
    assert flush["parent_span_id"] == estimate["span_id"]
    assert invert["parent_span_id"] == flush["span_id"]
    assert {"trace_id": TRACE_ID, "span_id": estimate["span_id"]} \
        in flush["links"]

    output = Path(args.output)
    output.write_text("".join(
        json.dumps(event, sort_keys=True, default=str) + "\n"
        for event in events if "span" in event), encoding="utf-8")
    sys.stderr.write(
        f"stitched trace OK: {len(events)} span events -> {output}\n")
    print(TRACE_ID)
    return 0


if __name__ == "__main__":
    sys.exit(main())
