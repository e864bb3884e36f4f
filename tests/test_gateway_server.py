"""Gateway end-to-end over real sockets: parity, auth, quotas.

The load-bearing guarantee is *network parity*: whatever the framing
layer, the micro-batch scheduler, and the per-tenant fan-in do, every
estimate served over a socket must be bit-identical to the direct
in-process :class:`InferenceService` answer for the same requests —
and the touch events pushed over a streaming subscription must be
bit-identical to a post-hoc ``touch_events`` query.

Every test here binds an ephemeral loopback port and drives it with
the honest clients of :mod:`repro.gateway.client` and
:mod:`tests.clients`; hostile bytes
live in ``tests/test_gateway_fuzz.py``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.estimator import (
    BatchForceLocationEstimate,
    ForceLocationEstimator,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.gateway import (
    ConnectionClosed,
    Gateway,
    GatewayLimits,
    HandshakeRejected,
    Tenant,
    TenantTable,
    TokenBucket,
    WebSocketClient,
)
from repro.gateway.server import MAX_SUBSCRIPTIONS
from repro.obs.recorder import RECORDER_DIR_ENV, recording
from repro.obs.registry import observed, process_registry
from repro.obs.slo import SloMonitor, default_slos
from repro.serve import (
    BatchPolicy,
    EstimateRequest,
    InferenceService,
    LoadProfile,
    SensorConfig,
    generate_requests,
)
from tests.clients import estimate_many, estimate_over_ws, http_request

#: Concurrent tenants for the e2e stream test (acceptance bar: >= 8).
N_TENANTS = 8


def _service(model, **kwargs):
    kwargs.setdefault("policy", BatchPolicy(max_batch=8,
                                            max_delay_s=0.001))
    return InferenceService(model_factory=lambda config: model,
                            **kwargs)


def _tenants(count, **kwargs):
    return [Tenant(name=f"tenant-{index}", token=f"token-{index}",
                   rate_per_s=kwargs.pop("rate_per_s", 1e6),
                   burst=kwargs.pop("burst", 1 << 16), **kwargs)
            for index in range(count)]


def _request(sensor_id, sequence, phi1=0.5, phi2=0.4, time=None):
    return EstimateRequest(
        sensor_id=sensor_id, sequence=sequence,
        time=0.01 * sequence if time is None else time,
        phi1=phi1, phi2=phi2, config=SensorConfig())


#: Estimate payloads a JSON decoder accepts but the protocol must not:
#: non-finite phases and an integer field that is infinite (``int()``
#: of it overflows), each a ``NaN`` / ``Infinity`` literal on the wire;
#: carriers outside the 10 MHz - 3 GHz design band; and a negative
#: touch threshold.
_BAD_PAYLOADS = [
    pytest.param({"phi1": float("nan"), "phi2": float("inf")},
                 id="nan-inf-phases"),
    pytest.param({"sequence": float("inf")}, id="inf-sequence"),
    pytest.param({"config": {"carrier_frequency": -5}},
                 id="negative-carrier"),
    pytest.param({"config": {"carrier_frequency": 1e30}},
                 id="huge-carrier"),
    pytest.param({"config": {"touch_threshold_deg": -1}},
                 id="negative-threshold"),
]


#: Requests sent alongside an out-of-span hint; their micro-batch
#: flushes as soon as it holds all of them (the long deadline keeps a
#: slow runner from splitting it).
N_GOOD = 4


def _bad_hint(sensor_id):
    """A touched request whose location hint (5 m) puts its +/-10 mm
    search window outside the model's 20-60 mm calibrated span."""
    return dict(_request(sensor_id, 0).to_dict(), location_hint=5.0)


def _hint_service(model):
    return _service(model, policy=BatchPolicy(max_batch=N_GOOD,
                                              max_delay_s=1.0))


def _internal_errors():
    return process_registry().snapshot()["counters"].get(
        "gateway.internal_errors", 0)


def _batch_fallbacks():
    """Flushes that failed and fell back to per-request inversion."""
    return process_registry().snapshot()["counters"].get(
        "serve.batch_fallbacks", 0)


def _nan_batch(self, phi1, phi2, location_hint=None):
    """An inverse gone wrong: every row touched, with a NaN force."""
    count = np.atleast_1d(phi1).size
    return BatchForceLocationEstimate(
        force=np.full(count, np.nan), location=np.full(count, 0.04),
        residual=np.zeros(count), touched=np.ones(count, dtype=bool))


def _strict_json(data):
    """Decode JSON that must carry no ``NaN`` / ``Infinity`` token."""
    def refuse(token):
        raise AssertionError(f"non-strict JSON token {token!r} on the wire")

    return json.loads(data, parse_constant=refuse)


def _assert_http_internal_error(model):
    """POST one estimate that inverts to NaN: a strict-JSON 500, one
    counted internal error, and the gateway keeps serving."""
    async def scenario():
        gateway = Gateway(_service(model), tenants=TenantTable(_tenants(1)))
        async with gateway:
            host, port = gateway.address
            response = await http_request(
                host, port, "POST", "/v1/estimate",
                payload=_request("s", 0).to_dict(), token="token-0")
            health = await http_request(host, port, "GET", "/healthz")
            return response, health, _internal_errors()

    response, health, internal_errors = asyncio.run(scenario())
    assert response.status == 500
    assert _strict_json(response.body) == {"error": "internal gateway error"}
    assert health.status == 200
    assert internal_errors == 1


def _assert_ws_internal_error(model):
    """Send one WS estimate that inverts to NaN: a strict-JSON
    ``internal`` envelope, one counted internal error, and the
    connection keeps serving."""
    async def scenario():
        gateway = Gateway(_service(model), tenants=TenantTable(_tenants(1)))
        async with gateway:
            host, port = gateway.address
            client = await WebSocketClient.connect(host, port,
                                                   token="token-0")
            await client.send_json({"type": "estimate",
                                    "request": _request("s", 0).to_dict()})
            frame = await asyncio.wait_for(client._recv_frame(), 5.0)
            await client.send_json({"type": "ping"})
            pong = await client.recv_json(5.0)
            await client.close()
            return frame, pong, _internal_errors()

    frame, pong, internal_errors = asyncio.run(scenario())
    error = _strict_json(frame.payload)
    assert (error["type"], error["code"]) == ("error", "internal")
    assert (error["sensor_id"], error["sequence"]) == ("s", 0)
    assert pong["type"] == "pong"
    assert internal_errors == 1


class TestStreamingParity:
    """The acceptance e2e: N concurrent tenants, bit-exact parity."""

    def test_concurrent_tenants_match_inprocess_service(self,
                                                        model_900):
        profile = LoadProfile(sensors=N_TENANTS,
                              requests_per_sensor=12,
                              max_batch=8, max_delay_s=0.001)
        requests = generate_requests(model_900, profile)
        by_sensor = {}
        for request in requests:
            by_sensor.setdefault(request.sensor_id, []).append(request)
        tenants = _tenants(N_TENANTS)
        tokens = dict(zip(sorted(by_sensor), (t.token
                                              for t in tenants)))

        async def drive_tenant(host, port, sensor_id):
            """One tenant: subscribe, then stream sequentially."""
            client = await WebSocketClient.connect(
                host, port, token=tokens[sensor_id])
            await client.send_json({"type": "subscribe",
                                    "sensor_id": sensor_id})
            assert (await client.recv_json())["type"] == "subscribed"
            replies, pushed = [], []
            for request in by_sensor[sensor_id]:
                reply, events = await estimate_over_ws(
                    client, request.to_dict())
                replies.append(reply)
                pushed.extend(events)
            # Unsubscribe drains any push emitted after the last
            # reply was already read.
            await client.send_json({"type": "unsubscribe",
                                    "sensor_id": sensor_id})
            while True:
                message = await client.recv_json()
                if message["type"] == "touch_event":
                    pushed.append(message)
                    continue
                assert message["type"] == "unsubscribed"
                break
            await client.close()
            return replies, pushed

        async def networked():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(tenants))
            async with gateway:
                host, port = gateway.address
                return await asyncio.gather(*(
                    drive_tenant(host, port, sensor_id)
                    for sensor_id in sorted(by_sensor)))

        async def inprocess():
            direct = _service(model_900)

            async def one_sensor(sensor_id):
                responses = []
                for request in by_sensor[sensor_id]:
                    responses.append(await direct.estimate(request))
                return responses

            responses = await asyncio.gather(*(
                one_sensor(sensor_id)
                for sensor_id in sorted(by_sensor)))
            return direct, responses

        outcome = asyncio.run(networked())
        direct, expected = asyncio.run(inprocess())

        for sensor_id, (replies, pushed), direct_responses in zip(
                sorted(by_sensor), outcome, expected):
            assert len(replies) == len(direct_responses)
            for reply, response in zip(replies, direct_responses):
                assert reply["type"] == "estimate"
                wire = reply["response"]
                assert wire == response.to_dict() | {
                    "batch_size": wire["batch_size"],
                    "latency_s": wire["latency_s"],
                }
                assert wire["estimate"] == response.to_dict()[
                    "estimate"]
            # Pushed touch events == the post-hoc query, bit-exact.
            # The direct session history may end mid-press; the push
            # contract only emits closed events.
            events = direct.sessions.get(sensor_id).closed_touch_events()
            assert [push["event"] for push in pushed] \
                == [event.to_dict() for event in events]
            assert [push["index"] for push in pushed] \
                == list(range(len(events)))

    def test_requests_from_separate_sockets_share_one_batch(self,
                                                            model_900):
        """Micro-batching survives the socket hop: N tenant sockets
        sending one request each coalesce into a single flush of N."""
        tenants = _tenants(N_TENANTS)

        async def one_request(host, port, index):
            client = await WebSocketClient.connect(
                host, port, token=tenants[index].token)
            reply, _ = await estimate_over_ws(
                client, _request(f"sensor-{index}", 0).to_dict())
            await client.close()
            return reply

        async def scenario():
            service = _service(model_900, policy=BatchPolicy(
                max_batch=N_TENANTS, max_delay_s=1.0))
            gateway = Gateway(service, tenants=TenantTable(tenants))
            async with gateway:
                host, port = gateway.address
                return await asyncio.gather(*(
                    one_request(host, port, index)
                    for index in range(N_TENANTS)))

        replies = asyncio.run(scenario())
        assert [reply["type"] for reply in replies] \
            == ["estimate"] * N_TENANTS
        assert [reply["response"]["batch_size"] for reply in replies] \
            == [N_TENANTS] * N_TENANTS

    def test_http_estimate_matches_inprocess(self, model_900):
        request = _request("sensor-http", 0)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=request.to_dict(), token="token-0")

        response = asyncio.run(scenario())
        direct = asyncio.run(_service(model_900).estimate(request))
        assert response.status == 200
        wire = response.json()
        assert wire["estimate"] == direct.to_dict()["estimate"]
        assert wire["quality"] == direct.quality == "ok"

    def test_touch_events_endpoint_matches_pushes(self, model_900):
        pattern = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0),
                   (0.4, 0.3), (0.0, 0.0)]

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                for sequence, (phi1, phi2) in enumerate(pattern):
                    await estimate_over_ws(client, _request(
                        "s", sequence, phi1, phi2).to_dict())
                # Subscribing late catches up on closed events.
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "s"})
                assert (await client.recv_json())["type"] \
                    == "subscribed"
                catchup = []
                while True:
                    message = await client.recv_json(timeout=5.0)
                    if message["type"] == "touch_event":
                        catchup.append(message)
                        if len(catchup) == 2:
                            break
                await client.close()
                queried = await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=s", token="token-0")
                return catchup, queried

        catchup, queried = asyncio.run(scenario())
        events = queried.json()["events"]
        assert len(events) == 2  # both presses closed by (0, 0)
        assert [push["event"] for push in catchup] == events

    def test_debounced_subscriber_gets_closed_events_mid_press(
            self, model_900):
        """A held press shorter than ``min_groups`` is no event yet, so
        it must not hold back the closed press before it."""
        pattern = [(0.0, 0.0), (0.5, 0.4), (0.6, 0.5), (0.5, 0.4),
                   (0.0, 0.0), (0.4, 0.3)]

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                for sequence, (phi1, phi2) in enumerate(pattern):
                    await estimate_over_ws(client, _request(
                        "s", sequence, phi1, phi2).to_dict())
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "s",
                                        "min_groups": 2})
                assert (await client.recv_json())["type"] \
                    == "subscribed"
                # The catch-up pushes precede the answer to a ping.
                await client.send_json({"type": "ping"})
                catchup = []
                while True:
                    message = await client.recv_json(timeout=5.0)
                    if message["type"] == "pong":
                        break
                    catchup.append(message)
                await client.close()
                queried = await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=s&min_groups=2",
                    token="token-0")
                return catchup, queried

        catchup, queried = asyncio.run(scenario())
        events = queried.json()["events"]
        assert len(events) == 1  # the held press has one group
        assert [push["event"] for push in catchup] == events

    def test_pushes_resume_after_session_eviction(self, model_900):
        """A request for another sensor evicts the subscribed sensor's
        session; the press served by its reopened session is still
        pushed, indexed from 0 as the GET list is."""
        press = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0)]

        async def scenario():
            gateway = Gateway(_service(model_900, max_sessions=1),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "a"})
                assert (await client.recv_json())["type"] \
                    == "subscribed"

                async def stream(sensor_id, first):
                    pushed = []
                    for offset, (phi1, phi2) in enumerate(press):
                        _, events = await estimate_over_ws(
                            client, _request(sensor_id, first + offset,
                                             phi1, phi2).to_dict())
                        pushed.extend(events)
                    # The release's push precedes the answer to a ping.
                    await client.send_json({"type": "ping"})
                    while True:
                        message = await client.recv_json(timeout=5.0)
                        if message["type"] == "pong":
                            return pushed
                        pushed.append(message)

                before = await stream("a", 0)
                evicted = weakref.ref(gateway.service.sessions.get("a"))
                await stream("b", 0)
                gc.collect()
                # The subscription does not keep the evicted session.
                assert evicted() is None
                after = await stream("a", 10)
                await client.close()
                queried = await http_request(
                    host, port, "GET", "/v1/touch_events?sensor_id=a",
                    token="token-0")
                return before, after, queried, gateway.service

        before, after, queried, service = asyncio.run(scenario())
        assert process_registry().snapshot()["counters"][
            "serve.session.evictions"] == 2
        assert [push["index"] for push in before] == [0]
        events = queried.json()["events"]
        assert len(events) == 1
        assert events[0]["onset"] == pytest.approx(0.10)
        assert [push["event"] for push in after] == events
        assert [push["index"] for push in after] == [0]

    def test_reopened_session_pushes_presses_released_over_http(
            self, model_900):
        """Presses a reopened session releases over HTTP are pushed as
        they are released, indexed from 0: the subscription's cursor
        restarts with the new session."""
        press = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0)]

        async def scenario():
            gateway = Gateway(_service(model_900, max_sessions=1),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "a"})
                assert (await client.recv_json())["type"] \
                    == "subscribed"

                async def pushes(first, phases):
                    """Stream ``phases`` for "a" over the socket from
                    sequence ``first``; the events pushed meanwhile."""
                    pushed = []
                    for sequence, (phi1, phi2) in enumerate(phases, first):
                        _, events = await estimate_over_ws(
                            client, _request("a", sequence, phi1,
                                             phi2).to_dict())
                        pushed.extend(events)
                    # The last push precedes the answer to a ping.
                    await client.send_json({"type": "ping"})
                    while True:
                        message = await client.recv_json(timeout=5.0)
                        if message["type"] == "pong":
                            return pushed
                        pushed.append(message)

                before = await pushes(0, press)

                async def post(sensor_id, sequence, phi1, phi2):
                    response = await http_request(
                        host, port, "POST", "/v1/estimate",
                        payload=_request(sensor_id, sequence, phi1,
                                         phi2).to_dict(),
                        token="token-0")
                    assert response.status == 200

                await post("b", 0, 0.0, 0.0)  # evicts "a"
                for sequence, (phi1, phi2) in enumerate(press * 2, 10):
                    await post("a", sequence, phi1, phi2)
                after = await pushes(20, [(0.0, 0.0)])
                await client.close()
                queried = await http_request(
                    host, port, "GET", "/v1/touch_events?sensor_id=a",
                    token="token-0")
                return before, after, queried, gateway.service

        before, after, queried, service = asyncio.run(scenario())
        assert process_registry().snapshot()["counters"][
            "serve.session.evictions"] == 2
        assert [push["index"] for push in before] == [0]
        events = queried.json()["events"]
        assert len(events) == 2
        assert [push["event"] for push in after] == events
        assert [push["index"] for push in after] == [0, 1]

    def test_http_estimates_push_released_presses(self, model_900):
        """A press and its release sent over HTTP reach a WebSocket
        subscriber with no further WebSocket traffic, as the GET list
        has them."""
        press = [(0.5, 0.4), (0.6, 0.5), (0.0, 0.0)]

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "s"})
                assert (await client.recv_json())["type"] \
                    == "subscribed"
                for sequence, (phi1, phi2) in enumerate(press):
                    response = await http_request(
                        host, port, "POST", "/v1/estimate",
                        payload=_request("s", sequence, phi1,
                                         phi2).to_dict(),
                        token="token-0")
                    assert response.status == 200
                pushed = await client.recv_json(timeout=5.0)
                await client.close()
                queried = await http_request(
                    host, port, "GET", "/v1/touch_events?sensor_id=s",
                    token="token-0")
                return pushed, queried

        pushed, queried = asyncio.run(scenario())
        events = queried.json()["events"]
        assert len(events) == 1
        assert pushed["type"] == "touch_event"
        assert pushed["index"] == 0
        assert pushed["event"] == events[0]

    def test_touch_events_unknown_sensor_404(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "GET",
                    "/v1/touch_events?sensor_id=ghost",
                    token="token-0")

        assert asyncio.run(scenario()).status == 404


class TestAuthAndQuotas:
    def test_missing_and_unknown_tokens_401(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                payload = _request("s", 0).to_dict()
                missing = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload)
                unknown = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="wrong")
                with pytest.raises(HandshakeRejected) as excinfo:
                    await WebSocketClient.connect(host, port,
                                                  token="wrong")
                return missing, unknown, excinfo.value

        missing, unknown, rejected = asyncio.run(scenario())
        assert missing.status == 401
        assert unknown.status == 401
        assert rejected.response.status == 401
        # The token itself must never be echoed back.
        assert b"wrong" not in unknown.body

    def test_anonymous_table_serves_without_credentials(self,
                                                        model_900):
        async def scenario():
            gateway = Gateway(_service(model_900))  # anonymous default
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict())

        assert asyncio.run(scenario()).status == 200

    def test_non_finite_quota_rate_is_rejected(self):
        # A NaN rate would refill the bucket to full on every request.
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                Tenant(name="t", token="k", rate_per_s=rate)
            with pytest.raises(ConfigurationError):
                TokenBucket(rate, 1.0)

    def test_request_quota_sheds_with_rejected_quality(self,
                                                       model_900):
        tenant = Tenant(name="small", token="small-token",
                        rate_per_s=0.001, burst=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                payload = _request("s", 0).to_dict()
                first = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="small-token")
                second = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="small-token")
                telemetry = process_registry().snapshot()
                return first, second, telemetry

        first, second, telemetry = asyncio.run(scenario())
        assert first.status == 200
        assert second.status == 429
        assert second.json()["quality"] == "rejected"
        assert telemetry["counters"]["gateway.rate_limited"] == 1

    def test_ws_quota_sheds_with_rejected_quality(self, model_900):
        tenant = Tenant(name="small", token="small-token",
                        rate_per_s=0.001, burst=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="small-token")
                ok, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                shed, _ = await estimate_over_ws(
                    client, _request("s", 1).to_dict())
                await client.close()
                return ok, shed

        ok, shed = asyncio.run(scenario())
        assert ok["type"] == "estimate"
        assert shed["type"] == "error"
        assert shed["code"] == "quota"
        assert shed["quality"] == "rejected"
        assert shed["sequence"] == 1  # request identity echoed back

    def test_connection_quota_rejects_second_socket(self, model_900):
        tenant = Tenant(name="single", token="single-token",
                        max_connections=1)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable([tenant]))
            async with gateway:
                host, port = gateway.address
                first = await WebSocketClient.connect(
                    host, port, token="single-token")
                with pytest.raises(HandshakeRejected) as excinfo:
                    await WebSocketClient.connect(
                        host, port, token="single-token")
                status = excinfo.value.response.status
                await first.close()
                # The slot is released on close; a new connection
                # succeeds.
                again = await WebSocketClient.connect(
                    host, port, token="single-token")
                await again.close()
                return status

        assert asyncio.run(scenario()) == 429

    def test_global_connection_cap_answers_503(self, model_900):
        async def scenario():
            gateway = Gateway(
                _service(model_900),
                tenants=TenantTable(_tenants(2)),
                limits=GatewayLimits(max_connections=1))
            async with gateway:
                host, port = gateway.address
                held = await WebSocketClient.connect(
                    host, port, token="token-0")
                overflow = await http_request(
                    host, port, "GET", "/healthz")
                await held.close()
                return overflow

        assert asyncio.run(scenario()).status == 503

    def test_backpressure_sheds_gracefully_and_recovers(self,
                                                        model_900):
        """Scheduler overload surfaces as rejected, never a crash."""
        service = _service(
            model_900,
            policy=BatchPolicy(max_batch=64, max_delay_s=0.05,
                               max_queue=1))
        flood = 12

        async def scenario():
            gateway = Gateway(service,
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                for sequence in range(flood):
                    await client.send_json({
                        "type": "estimate",
                        "request": _request("s", sequence).to_dict()})
                outcomes = [await client.recv_json(timeout=10.0)
                            for _ in range(flood)]
                await client.close()
                # The connection (and service) survive: a fresh
                # request afterwards is served.
                followup = await estimate_over_ws(
                    await WebSocketClient.connect(
                        host, port, token="token-0"),
                    _request("s", flood).to_dict())
                return outcomes, followup[0]

        outcomes, followup = asyncio.run(scenario())
        served = [o for o in outcomes if o["type"] == "estimate"]
        shed = [o for o in outcomes if o["type"] == "error"]
        assert len(served) + len(shed) == flood
        assert served, "the queued request should still be served"
        assert shed, "max_queue=1 under a 12-deep flood must shed"
        for outcome in shed:
            assert outcome["code"] == "backpressure"
            assert outcome["quality"] == "rejected"
        assert followup["type"] == "estimate"


class TestHttpSurface:
    def test_touch_events_min_groups_below_one_400(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                await http_request(host, port, "POST", "/v1/estimate",
                                   payload=_request("s", 0).to_dict(),
                                   token="token-0")
                return [await http_request(
                    host, port, "GET",
                    f"/v1/touch_events?sensor_id=s&min_groups={value}",
                    token="token-0") for value in ("0", "-3", "x", "1")]

        statuses = [response.status for response in asyncio.run(scenario())]
        assert statuses == [400, 400, 400, 200]

    def test_healthz_and_metrics_are_unauthenticated(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                health = await http_request(host, port, "GET",
                                            "/healthz")
                metrics = await http_request(host, port, "GET",
                                             "/metrics")
                return health, metrics

        health, metrics = asyncio.run(scenario())
        assert health.status == 200
        assert health.json()["status"] == "ok"
        assert metrics.status == 200
        text = metrics.body.decode("utf-8")
        assert "gateway_responses" in text.replace(".", "_")

    def test_metrics_show_session_builds_and_quarantines_unobserved(
            self, model_900, monkeypatch):
        """With observation off, a model build, the cache hits and a
        quarantine still reach ``/metrics``: the serving stack records
        them into the process registry ungated."""
        def failing_batch(self, phi1, phi2, location_hint=None):
            raise RuntimeError("batch path down")

        # Every flush falls back to per-request inversion, so every
        # answer is "degraded" and the streak quarantines the sensor.
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            failing_batch)

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                qualities = []
                for sequence, sensor_id in enumerate(["s"] * 5 + ["t"]):
                    response = await http_request(
                        host, port, "POST", "/v1/estimate",
                        payload=_request(sensor_id, sequence).to_dict(),
                        token="token-0")
                    qualities.append(response.json()["quality"])
                metrics = await http_request(host, port, "GET",
                                             "/metrics")
                return qualities, metrics.body.decode("utf-8")

        qualities, text = asyncio.run(scenario())
        assert qualities == ["degraded"] * 4 + ["quarantined", "degraded"]
        lines = set(text.splitlines())
        assert "repro_serve_session_model_builds 1" in lines
        assert "repro_serve_session_model_hits 1" in lines
        assert "repro_fault_quarantines 1" in lines

    def test_unknown_route_404_and_wrong_method_405(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                lost = await http_request(host, port, "GET",
                                          "/v2/nothing",
                                          token="token-0")
                wrong = await http_request(host, port, "GET",
                                           "/v1/estimate",
                                           token="token-0")
                return lost, wrong

        lost, wrong = asyncio.run(scenario())
        assert lost.status == 404
        assert wrong.status == 405

    def test_malformed_estimate_body_400(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload={"sensor_id": "s"}, token="token-0")

        response = asyncio.run(scenario())
        assert response.status == 400
        assert "error" in response.json()

    @pytest.mark.parametrize("override", _BAD_PAYLOADS)
    def test_non_finite_estimate_body_400(self, model_900, override):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                payload = dict(_request("s", 0).to_dict(), **override)
                response = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=payload, token="token-0")
                follow_up = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 1).to_dict(), token="token-0")
                return response, follow_up, _internal_errors()

        response, follow_up, internal_errors = asyncio.run(scenario())
        assert response.status == 400
        assert "error" in response.json()
        assert follow_up.status == 200
        assert follow_up.json()["sequence"] == 1
        assert internal_errors == 0

    def test_non_finite_estimate_is_an_internal_error(self, model_900,
                                                      monkeypatch):
        """A NaN estimate answers 500 in strict JSON and is counted."""
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            _nan_batch)
        _assert_http_internal_error(model_900)

    def test_dump_is_written_off_the_event_loop(self, model_900,
                                                monkeypatch, tmp_path):
        """A flight-recorder dump whose write takes 0.3 s stalls no
        connection: a request on a second connection, sent while the
        dump is being written, is answered within 0.1 s.  The dump holds
        the events up to the trigger and exists once ``stop()``
        returns."""
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            _nan_batch)
        directory = tmp_path / "dumps"
        monkeypatch.setenv(RECORDER_DIR_ENV, str(directory))
        writing = threading.Event()
        write_text = Path.write_text

        def slow_write_text(path, *args, **kwargs):
            writing.set()
            time.sleep(0.3)
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", slow_write_text)

        def probe(host, port):
            """GET /healthz on a blocking socket once the dump is being
            written: the seconds to the status line, and the line."""
            assert writing.wait(5.0)
            start = time.perf_counter()
            with socket.create_connection((host, port),
                                          timeout=5.0) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nhost: gateway\r\n"
                             b"connection: close\r\n\r\n")
                status = sock.makefile("rb").readline()
            return time.perf_counter() - start, status

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                probed = asyncio.ensure_future(
                    asyncio.to_thread(probe, host, port))
                failed = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(), token="token-0")
                elapsed, status = await probed
            return failed, elapsed, status, sorted(directory.iterdir())

        with recording():
            failed, elapsed, status, dumps = asyncio.run(scenario())
        assert failed.status == 500
        assert status.startswith(b"HTTP/1.1 200")
        assert elapsed < 0.1
        assert len(dumps) == 1
        lines = [json.loads(line)
                 for line in dumps[0].read_text().splitlines()]
        assert lines[0]["events"] == len(lines) - 1
        assert (lines[-1]["kind"], lines[-1]["event"], lines[-1]["where"]) \
            == ("log", "gateway.internal_errors", "/v1/estimate")

    def test_unwritable_dump_directory_still_answers_500(
            self, model_900, monkeypatch, unwritable_directory):
        """The flight-recorder dump at the zero-crash boundary fails,
        and the client still gets its 500."""
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            _nan_batch)
        monkeypatch.setenv(RECORDER_DIR_ENV, str(unwritable_directory))
        with recording() as recorder:
            _assert_http_internal_error(model_900)
        assert [event["event"] for event in recorder.snapshot()
                if event["kind"] == "log"] == ["gateway.internal_errors"]

    def test_out_of_span_hint_400_spares_its_batch(self, model_900):
        async def scenario():
            service = _hint_service(model_900)
            gateway = Gateway(service, tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address

                def post(payload):
                    return http_request(host, port, "POST",
                                        "/v1/estimate", payload=payload,
                                        token="token-0")

                alone = [await post(_bad_hint(f"bad-{index}"))
                         for index in range(6)]
                mixed = await asyncio.gather(
                    post(_bad_hint("bad-6")),
                    *(post(_request(f"good-{index}", 0).to_dict())
                      for index in range(N_GOOD)))
                return (alone, mixed, _batch_fallbacks(),
                        _internal_errors())

        alone, mixed, fallbacks, internal_errors = asyncio.run(scenario())
        assert [response.status for response in alone] == [400] * 6
        assert "calibrated span" in alone[0].json()["error"]
        assert mixed[0].status == 400
        replies = [response.json() for response in mixed[1:]]
        assert [response.status for response in mixed[1:]] \
            == [200] * N_GOOD
        assert [reply["quality"] for reply in replies] == ["ok"] * N_GOOD
        assert [reply["batch_size"] for reply in replies] \
            == [N_GOOD] * N_GOOD
        assert fallbacks == 0
        assert internal_errors == 0

    def test_stream_without_upgrade_headers_426(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                return await http_request(host, port, "GET",
                                          "/v1/stream",
                                          token="token-0")

        assert asyncio.run(scenario()).status == 426

    def test_keep_alive_serves_multiple_requests(self, model_900):
        """Two requests on one connection (no ``connection: close``)."""

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(
                    host, port)
                from repro.gateway import http as gw_http

                statuses = []
                for _ in range(2):
                    writer.write(gw_http.render_request(
                        "GET", "/healthz"))
                    await writer.drain()
                    response = await gw_http.read_response(
                        reader, GatewayLimits())
                    statuses.append(response.status)
                writer.close()
                await writer.wait_closed()
                return statuses

        assert asyncio.run(scenario()) == [200, 200]


class TestWsProtocolSurface:
    def test_subscriptions_per_connection_are_capped(self, model_900):
        """1,025 distinct subscribes on one connection: 1,024 are
        accepted, the last is a protocol error and the connection keeps
        serving; re-subscribing a sensor does not count twice, and an
        unsubscribe frees its slot."""
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")

                async def subscribe(sensor_id):
                    await client.send_json({"type": "subscribe",
                                            "sensor_id": sensor_id})
                    return await client.recv_json(5.0)

                replies = [await subscribe(f"s-{index}")
                           for index in range(MAX_SUBSCRIPTIONS + 1)]
                again = await subscribe("s-0")
                await client.send_json({"type": "unsubscribe",
                                        "sensor_id": "s-1"})
                await client.recv_json(5.0)
                freed = await subscribe("s-new")
                await client.close()
                return replies, again, freed, process_registry().snapshot()

        replies, again, freed, snapshot = asyncio.run(scenario())
        assert [reply["type"] for reply in replies] \
            == ["subscribed"] * MAX_SUBSCRIPTIONS + ["error"]
        assert replies[-1]["code"] == "protocol"
        assert (again["type"], freed["type"]) == ("subscribed",
                                                  "subscribed")
        counters = snapshot["counters"]
        assert counters["gateway.protocol_errors"] == 1
        assert counters["gateway.subscriptions"] == MAX_SUBSCRIPTIONS + 2

    def test_bad_json_message_is_answered_not_fatal(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                from repro.gateway import websocket

                await client.send_frame(websocket.OP_TEXT,
                                        b"{not json")
                error = await client.recv_json()
                # The connection survives the malformed message.
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.close()
                return error, reply

        error, reply = asyncio.run(scenario())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert reply["type"] == "estimate"

    def test_ws_ping_message_and_frame_are_answered(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({"type": "ping"})
                pong_message = await client.recv_json()
                from repro.gateway import websocket

                # A protocol-level ping is answered transparently by
                # the server; recv_json answers ours, so exercise the
                # server side with a raw ping and read the pong frame.
                await client.send_frame(websocket.OP_PING, b"abc")
                frame = await client._recv_frame()
                await client.close()
                return pong_message, frame

        pong_message, frame = asyncio.run(scenario())
        assert pong_message["type"] == "pong"
        from repro.gateway import websocket

        assert frame.opcode == websocket.OP_PONG
        assert frame.payload == b"abc"

    def test_malformed_estimate_payload_keeps_connection(self,
                                                         model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                error, _ = await estimate_over_ws(
                    client, {"sensor_id": "s"})
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.close()
                return error, reply

        error, reply = asyncio.run(scenario())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert reply["type"] == "estimate"

    @pytest.mark.parametrize("override", _BAD_PAYLOADS)
    def test_non_finite_estimate_is_a_protocol_error(self, model_900,
                                                     override):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                payload = dict(_request("s", 0).to_dict(), **override)
                error, _ = await estimate_over_ws(client, payload,
                                                  timeout=5.0)
                reply, _ = await estimate_over_ws(
                    client, _request("s", 1).to_dict())
                await client.close()
                return error, reply, _internal_errors()

        error, reply, internal_errors = asyncio.run(scenario())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert reply["type"] == "estimate"
        assert internal_errors == 0

    def test_non_finite_estimate_is_an_internal_error(self, model_900,
                                                      monkeypatch):
        """A NaN estimate answers the ``internal`` envelope in strict
        JSON, is counted, and the connection keeps serving."""
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            _nan_batch)
        _assert_ws_internal_error(model_900)

    def test_unwritable_dump_directory_still_answers_internal(
            self, model_900, monkeypatch, unwritable_directory):
        """The flight-recorder dump at the zero-crash boundary fails,
        and the client still gets its ``internal`` envelope."""
        monkeypatch.setattr(ForceLocationEstimator, "invert_batch",
                            _nan_batch)
        monkeypatch.setenv(RECORDER_DIR_ENV, str(unwritable_directory))
        with recording() as recorder:
            _assert_ws_internal_error(model_900)
        assert [event["event"] for event in recorder.snapshot()
                if event["kind"] == "log"] == ["gateway.internal_errors"]

    def test_error_envelope_echo_is_strict_json(self, model_900):
        """An ``Infinity`` sequence is refused without being echoed back
        as a token strict JSON cannot carry."""
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                payload = dict(_request("s", 0).to_dict(),
                               sequence=float("inf"))
                from repro.gateway import websocket

                await client.send_frame(websocket.OP_TEXT, json.dumps(
                    {"type": "estimate", "request": payload}).encode())
                frame = await asyncio.wait_for(client._recv_frame(), 5.0)
                await client.close()
                return frame

        error = _strict_json(asyncio.run(scenario()).payload)
        assert (error["type"], error["code"]) == ("error", "protocol")
        assert error["sensor_id"] == "s"
        assert "sequence" not in error

    def test_type_confused_fields_are_protocol_errors(self, model_900):
        """A bool ``sequence`` or ``min_groups`` is refused, naming the
        field, and the connection keeps serving."""
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                error, _ = await estimate_over_ws(
                    client, dict(_request("s", 0).to_dict(), sequence=True),
                    timeout=5.0)
                await client.send_json({"type": "subscribe",
                                        "sensor_id": "s",
                                        "min_groups": True})
                refused = await client.recv_json(timeout=5.0)
                reply, _ = await estimate_over_ws(
                    client, _request("s", 1).to_dict())
                await client.close()
                return error, refused, reply, _internal_errors()

        error, refused, reply, internal_errors = asyncio.run(scenario())
        assert (error["code"], refused["code"]) == ("protocol", "protocol")
        assert "sequence" in error["error"]
        assert "min_groups" in refused["error"]
        assert reply["type"] == "estimate"
        assert internal_errors == 0

    def test_unsubscribe_without_string_id_is_a_protocol_error(
            self, model_900):
        """A ``NaN``, numeric or missing ``sensor_id`` is refused like
        a bad ``subscribe``, and the connection keeps serving."""
        frames = [b'{"type": "unsubscribe", "sensor_id": NaN}',
                  b'{"type": "unsubscribe", "sensor_id": 7}',
                  b'{"type": "unsubscribe"}']

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                from repro.gateway import websocket

                replies = []
                for frame in frames:
                    await client.send_frame(websocket.OP_TEXT, frame)
                    replies.append(await client.recv_json(timeout=5.0))
                await client.send_json({"type": "ping"})
                pong = await client.recv_json(timeout=5.0)
                await client.close()
                counters = process_registry().snapshot()["counters"]
                return replies, pong, counters

        replies, pong, counters = asyncio.run(scenario())
        assert [(reply["type"], reply["code"]) for reply in replies] \
            == [("error", "protocol")] * len(frames)
        assert all("sensor_id" in reply["error"] for reply in replies)
        assert pong["type"] == "pong"
        assert counters["gateway.protocol_errors"] == len(frames)
        assert "gateway.internal_errors" not in counters

    def test_out_of_span_hint_is_a_protocol_error(self, model_900):
        async def scenario():
            service = _hint_service(model_900)
            gateway = Gateway(service, tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                alone = []
                for index in range(6):
                    reply, _ = await estimate_over_ws(
                        client, _bad_hint(f"bad-{index}"), timeout=5.0)
                    alone.append(reply)
                # Pipelined on one socket: the good requests share a
                # micro-batch while the bad one is answered alone.
                payloads = [_bad_hint("bad-6")] + [
                    _request(f"good-{index}", 0).to_dict()
                    for index in range(N_GOOD)]
                for payload in payloads:
                    await client.send_json({"type": "estimate",
                                            "request": payload})
                mixed = [await client.recv_json(5.0)
                         for _ in payloads]
                await client.close()
                return (alone, mixed, _batch_fallbacks(),
                        _internal_errors())

        alone, mixed, fallbacks, internal_errors = asyncio.run(scenario())
        assert [(reply["type"], reply["code"]) for reply in alone] \
            == [("error", "protocol")] * 6
        errors = [reply for reply in mixed if reply["type"] == "error"]
        assert [(error["sensor_id"], error["code"]) for error in errors] \
            == [("bad-6", "protocol")]
        served = [reply["response"] for reply in mixed
                  if reply["type"] == "estimate"]
        assert sorted(response["sensor_id"] for response in served) \
            == [f"good-{index}" for index in range(N_GOOD)]
        assert [response["quality"] for response in served] \
            == ["ok"] * N_GOOD
        assert [response["batch_size"] for response in served] \
            == [N_GOOD] * N_GOOD
        assert fallbacks == 0
        assert internal_errors == 0

    def test_clean_close_handshake(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.close()
                snapshot = process_registry().snapshot()
                return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["counters"]["gateway.ws_sessions"] == 1
        assert "gateway.internal_errors" \
            not in snapshot["counters"]


class TestLifecycle:
    def test_stop_closes_open_connections(self, model_900):
        """Stopping with a client still connected closes its connection
        and ends its handler, so the stop returns promptly and the
        loop reports no error when it shuts down."""
        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context))
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            host, port = await gateway.start()
            client = await WebSocketClient.connect(
                host, port, token="token-0")
            await client.send_json({"type": "ping"})
            assert (await client.recv_json())["type"] == "pong"
            await asyncio.wait_for(gateway.stop(), 5.0)
            with pytest.raises(ConnectionClosed):
                await client.recv_json(timeout=5.0)
            await client.close()
            return gateway

        gateway = asyncio.run(scenario())
        assert errors == []
        assert gateway._connections == {}


class TestClientContracts:
    def test_client_rejects_bad_accept_key(self):
        async def handshake(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 101 Switching Protocols\r\n"
                b"upgrade: websocket\r\n"
                b"connection: Upgrade\r\n"
                b"sec-websocket-accept: bogus\r\n\r\n")
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(handshake,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(ProtocolError):
                    await WebSocketClient.connect(host, port)
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_http_request_speaks_wire_json(self, model_900):
        """The one-shot client round-trips through raw sockets."""

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                response = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 3).to_dict(),
                    token="token-0")
                return response

        response = asyncio.run(scenario())
        payload = json.loads(response.body.decode("utf-8"))
        assert payload["sequence"] == 3
        assert payload["sensor_id"] == "s"


class TestTraceSurface:
    """Trace propagation at the network edge (W3C traceparent).

    Every HTTP response carries ``x-repro-trace-id``; every WS reply
    (estimate or error envelope) carries ``trace_id``; a caller-sent
    traceparent — HTTP header or WS message key — continues the
    caller's trace so the echoed ID matches the one they minted.
    """

    def test_every_http_response_carries_trace_id(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                ok = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                health = await http_request(host, port, "GET",
                                            "/healthz")
                lost = await http_request(host, port, "GET",
                                          "/v2/nothing",
                                          token="token-0")
                bad = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload={"sensor_id": "s"}, token="token-0")
                denied = await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 1).to_dict())
                return ok, health, lost, bad, denied

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] \
            == [200, 200, 404, 400, 401]
        trace_ids = [r.headers["x-repro-trace-id"] for r in responses]
        for trace_id in trace_ids:
            assert len(trace_id) == 32
            int(trace_id, 16)
        assert len(set(trace_ids)) == len(trace_ids)

    def test_http_traceparent_continues_the_trace(self, model_900):
        sent_trace = "ab" * 16
        traceparent = f"00-{sent_trace}-{'cd' * 8}-01"

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                reader, writer = await asyncio.open_connection(
                    host, port)
                from repro.gateway import http as gw_http

                body = json.dumps(
                    _request("s", 0).to_dict()).encode("utf-8")
                writer.write(gw_http.render_request(
                    "POST", "/v1/estimate",
                    headers={"authorization": "Bearer token-0",
                             "content-type": "application/json",
                             "traceparent": traceparent},
                    body=body))
                await writer.drain()
                response = await gw_http.read_response(
                    reader, GatewayLimits())
                writer.close()
                await writer.wait_closed()
                return response

        response = asyncio.run(scenario())
        assert response.status == 200
        assert response.headers["x-repro-trace-id"] == sent_trace

    def test_ws_replies_carry_trace_id(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                reply, _ = await estimate_over_ws(
                    client, _request("s", 0).to_dict())
                await client.send_json({"type": "estimate",
                                        "request": {"sensor_id": "s"}})
                error = await client.recv_json()
                await client.close()
                return reply, error

        reply, error = asyncio.run(scenario())
        assert reply["type"] == "estimate"
        assert len(reply["trace_id"]) == 32
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert len(error["trace_id"]) == 32
        assert error["trace_id"] != reply["trace_id"]

    def test_ws_traceparent_continues_the_trace(self, model_900):
        sent_trace = "12" * 16
        traceparent = f"00-{sent_trace}-{'34' * 8}-01"

        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                client = await WebSocketClient.connect(
                    host, port, token="token-0")
                await client.send_json({
                    "type": "estimate",
                    "traceparent": traceparent,
                    "request": _request("s", 0).to_dict()})
                reply = await client.recv_json()
                await client.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["type"] == "estimate"
        assert reply["trace_id"] == sent_trace

    def test_healthz_reports_slo_detail(self, model_900):
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                await http_request(
                    host, port, "POST", "/v1/estimate",
                    payload=_request("s", 0).to_dict(),
                    token="token-0")
                return await http_request(host, port, "GET",
                                          "/healthz")

        health = asyncio.run(scenario()).json()
        assert health["status"] in ("ok", "degraded")
        names = {status["name"] for status in health["slo"]}
        assert names == {"gateway-availability", "serve-latency"}
        for status in health["slo"]:
            assert "alerting" in status and "burn" in status


class TestHealthz:
    def test_serve_latency_slo_counts_every_estimate(self, model_900):
        """The ``serve-latency`` objective reads the ``serve.estimate``
        span, which also times an estimate that raised: three served
        and one refused for its hint make four events."""
        async def scenario():
            gateway = Gateway(_service(model_900),
                              tenants=TenantTable(_tenants(1)))
            async with gateway:
                host, port = gateway.address
                payloads = [_request("s", index).to_dict()
                            for index in range(3)] + [_bad_hint("bad")]
                statuses = [(await http_request(
                    host, port, "POST", "/v1/estimate", payload=payload,
                    token="token-0")).status for payload in payloads]
                health = await http_request(host, port, "GET", "/healthz")
                return statuses, health.json()

        statuses, health = asyncio.run(scenario())
        assert statuses == [200, 200, 200, 400]
        [latency] = [status for status in health["slo"]
                     if status["name"] == "serve-latency"]
        assert latency["events"] == 4
        assert latency["bad_events"] == 0

    def test_slo_monitor_holds_counts_not_snapshots(self, model_900):
        """Every ``/healthz`` adds one monitor sample: 512 of them, over
        the registry an observed service fills, grow traced memory by
        under 256 KB."""
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs")
        requests = [_request(f"s-{index}", 0) for index in range(32)]
        monitor = SloMonitor(default_slos())
        with observed() as registry:
            asyncio.run(estimate_many(_service(model_900), requests))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(512):
                    monitor.observe(registry.snapshot())
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert grown < 256 * 1024, grown
