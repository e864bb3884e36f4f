"""Consistent-hash sharding of the serve layer.

The contract under test is exact: the hash ring is a pure function of
``(sensor_id, shards, vnodes, salt)`` — same routing in every process
on every machine — and a sharded fleet returns **bit-identical**
responses to a single service for the same request tape, because
routing only decides where a sensor's session lives.  Also covered:
per-shard session placement, fleet-wide telemetry aggregation with no
counts lost, and ring balance at 10^5 sensors.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServeError
from repro.serve import (
    HashRing,
    InferenceService,
    LoadProfile,
    ShardedInferenceService,
    generate_requests,
)


@pytest.fixture(scope="module")
def tape():
    """A small multi-sensor request tape (shared, read-only)."""
    profile = LoadProfile(sensors=12, requests_per_sensor=4)
    service = InferenceService()
    estimator = service.sessions.estimator(profile.config)
    return generate_requests(estimator.model, profile)


class TestHashRing:
    def test_routing_is_deterministic_and_stable(self):
        ring = HashRing(4, vnodes=32)
        again = HashRing(4, vnodes=32)
        sensor_ids = [f"sensor-{index:03d}" for index in range(200)]
        first = [ring.shard_for(sensor_id) for sensor_id in sensor_ids]
        assert first == [again.shard_for(sensor_id)
                         for sensor_id in sensor_ids]
        assert all(0 <= shard < 4 for shard in first)
        assert set(first) == {0, 1, 2, 3}

    def test_distribution_counts_every_sensor_once(self):
        ring = HashRing(3, vnodes=64)
        sensor_ids = [f"sensor-{index:04d}" for index in range(500)]
        counts = ring.distribution(sensor_ids)
        assert sum(counts) == len(sensor_ids)
        assert ring.balance(sensor_ids) > 0.0

    def test_ring_balance_at_fleet_scale(self):
        """The ring spreads 10^5 sensor ids evenly (pure ring arithmetic,
        machine-independent)."""
        ring = HashRing(8, vnodes=256)
        sensor_ids = [f"sensor-{index:06d}" for index in range(100_000)]
        balance = ring.balance(sensor_ids)
        assert balance > 0.6, (
            f"hash ring balance at 10^5 sensors is {balance:.2f}; "
            f"min/max shard load must stay above 0.6")

    def test_single_shard_ring_routes_everything_to_zero(self):
        ring = HashRing(1)
        assert all(ring.shard_for(f"s{index}") == 0
                   for index in range(32))
        assert ring.balance(["a", "b"]) == 1.0

    def test_salt_changes_the_layout(self):
        sensor_ids = [f"sensor-{index:03d}" for index in range(100)]
        default = HashRing(4).distribution(sensor_ids)
        salted = HashRing(4, salt="other").distribution(sensor_ids)
        assert default != salted

    def test_validation(self):
        with pytest.raises(ServeError):
            HashRing(0)
        with pytest.raises(ServeError):
            HashRing(2, vnodes=0)


class TestShardedService:
    def test_sharded_matches_single_service_bit_for_bit(self, tape):
        sharded = ShardedInferenceService(shards=3)
        single = InferenceService()
        sharded_responses = asyncio.run(sharded.estimate_many(tape))
        single_responses = asyncio.run(single.estimate_many(tape))
        for ours, reference in zip(sharded_responses, single_responses):
            assert ours.sensor_id == reference.sensor_id
            assert ours.sequence == reference.sequence
            assert ours.estimate.force == reference.estimate.force
            assert ours.estimate.location == reference.estimate.location
            assert ours.estimate.touched == reference.estimate.touched

    def test_sessions_live_only_on_their_ring_shard(self, tape):
        sharded = ShardedInferenceService(shards=3)
        asyncio.run(sharded.estimate_many(tape))
        sensor_ids = {request.sensor_id for request in tape}
        for sensor_id in sensor_ids:
            owner = sharded.shard_for(sensor_id)
            for index, service in enumerate(sharded.services):
                session = service.sessions.get(sensor_id)
                if index == owner:
                    assert session is not None
                else:
                    assert session is None

    def test_telemetry_aggregates_with_no_counts_lost(self, tape):
        sharded = ShardedInferenceService(shards=3)
        asyncio.run(sharded.estimate_many(tape))
        snapshot = sharded.telemetry_snapshot()
        assert snapshot["counters"]["serve.responses"] == len(tape)
        per_shard = snapshot["shards"]
        assert len(per_shard) == 3
        assert sum(entry["responses"] for entry in per_shard) == len(tape)
        sensors = {request.sensor_id for request in tape}
        assert snapshot["sessions"]["count"] == len(sensors)
        latency = snapshot["histograms"]["serve.latency_seconds"]
        assert latency["count"] == len(tape)

    def test_touch_events_route_to_the_owning_shard(self, tape):
        sharded = ShardedInferenceService(shards=3)
        asyncio.run(sharded.estimate_many(tape))
        sensor_id = tape[0].sensor_id
        events = sharded.touch_events(sensor_id)
        assert isinstance(events, list)
        with pytest.raises(ServeError):
            sharded.touch_events("sensor-that-never-connected")

    def test_estimate_dict_round_trip(self, tape):
        sharded = ShardedInferenceService(shards=2)
        payload = tape[0].to_dict()
        response = asyncio.run(sharded.estimate_dict(payload))
        assert response["sensor_id"] == tape[0].sensor_id

