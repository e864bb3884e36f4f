"""Consistent-hash sharding of the serve layer across workers.

One :class:`InferenceService` owns one event loop, one micro-batch
scheduler, and one session table — past a point, one of each is the
bottleneck.  :class:`ShardedInferenceService` splits the fleet across
N independent shards, each a full service with its own scheduler and
its own telemetry registry, and routes every request by **consistent
hashing on the sensor id** over a :class:`HashRing`.

Routing is a pure function of ``(sensor_id, shards, vnodes, salt)``:
SHA-256 points, no process-seeded hashing, so the same sensor lands on
the same shard in every process on every machine.  Because sessions
are per-sensor and the estimator is element-wise, partitioning sensors
across shards never changes a single bit of any response — only which
scheduler coalesces it.  All of one sensor's requests stay on one
shard, preserving the per-session ordering the drift corrector needs.

The ring uses virtual nodes so shard loads stay balanced (the classic
consistent-hashing construction): each shard owns ``vnodes`` points on
a 64-bit circle, a sensor maps to the first point clockwise of its own
hash.
"""

from __future__ import annotations

import asyncio
import hashlib
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

from repro.core.tracking import TouchEvent
from repro.errors import ServeError
from repro.faults.retry import RetryPolicy
from repro.obs.registry import Registry
from repro.serve.protocol import EstimateRequest, EstimateResponse
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import InferenceService
from repro.serve.session import ModelFactory


def _point(key: str) -> int:
    """A key's position on the 64-bit hash circle (stable everywhere)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring mapping sensor ids to shard indices.

    Args:
        shards: Number of shards (>= 1).
        vnodes: Virtual nodes per shard; more points = tighter load
            balance at a small lookup-table cost.
        salt: Namespace prefix for the shard points, so two rings of
            the same size can be given disjoint layouts.
    """

    def __init__(self, shards: int, vnodes: int = 64,
                 salt: str = "wiforce"):
        if shards < 1:
            raise ServeError(f"hash ring needs >= 1 shard, got {shards}")
        if vnodes < 1:
            raise ServeError(f"hash ring needs >= 1 vnode, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        self.salt = salt
        points = []
        for shard in range(shards):
            for vnode in range(vnodes):
                points.append((_point(f"{salt}/{shard}/{vnode}"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, sensor_id: str) -> int:
        """The shard owning ``sensor_id`` (first point clockwise)."""
        index = bisect_right(self._points, _point(sensor_id))
        return self._owners[index % len(self._owners)]

    def distribution(self, sensor_ids: Sequence[str]) -> List[int]:
        """Sensor count per shard for a concrete fleet."""
        counts = [0] * self.shards
        for sensor_id in sensor_ids:
            counts[self.shard_for(sensor_id)] += 1
        return counts

    def balance(self, sensor_ids: Sequence[str]) -> float:
        """min/max shard load over a fleet (1.0 = perfectly even).

        Deterministic for a fixed fleet and ring layout, so it gates
        ring-construction regressions machine-independently.
        """
        counts = self.distribution(sensor_ids)
        largest = max(counts)
        return min(counts) / largest if largest else 1.0

    def __len__(self) -> int:
        return self.shards


class ShardedInferenceService:
    """N independent :class:`InferenceService` shards behind one ring.

    Every shard owns its own micro-batch scheduler, session table, and
    telemetry :class:`Registry` — nothing is shared across shards, so
    they can be driven from separate threads or event loops without
    coordination.

    Constructor arguments mirror :class:`InferenceService` and are
    applied to every shard.
    """

    def __init__(self, shards: int = 4, vnodes: int = 64,
                 policy: Optional[BatchPolicy] = None,
                 model_factory: Optional[ModelFactory] = None,
                 baseline_samples: int = 0,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_sessions: Optional[int] = None,
                 idle_ttl_s: Optional[float] = None):
        self.ring = HashRing(shards, vnodes=vnodes)
        self.services = [
            InferenceService(policy=policy, model_factory=model_factory,
                             baseline_samples=baseline_samples,
                             registry=Registry(),
                             retry_policy=retry_policy,
                             max_sessions=max_sessions,
                             idle_ttl_s=idle_ttl_s)
            for _ in range(shards)
        ]

    @property
    def shards(self) -> int:
        """Number of shards."""
        return len(self.services)

    def shard_for(self, sensor_id: str) -> int:
        """Deterministic shard index for a sensor."""
        return self.ring.shard_for(sensor_id)

    def service_for(self, sensor_id: str) -> InferenceService:
        """The shard service owning a sensor."""
        return self.services[self.ring.shard_for(sensor_id)]

    async def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Route one request to its shard (single-loop convenience)."""
        return await self.service_for(request.sensor_id).estimate(request)

    async def estimate_dict(self, payload: dict) -> dict:
        """JSON-boundary variant of :meth:`estimate` (dict in/out)."""
        request = EstimateRequest.from_dict(payload)
        response = await self.estimate(request)
        return response.to_dict()

    async def estimate_many(
        self, requests: Sequence[EstimateRequest],
    ) -> List[EstimateResponse]:
        """Serve a burst across all shards, in request order."""
        return list(await asyncio.gather(
            *(self.estimate(request) for request in requests)))

    def touch_events(self, sensor_id: str,
                     min_groups: int = 1) -> List[TouchEvent]:
        """Touch events from the owning shard's session history."""
        return self.service_for(sensor_id).touch_events(
            sensor_id, min_groups=min_groups)

    def drain(self) -> None:
        """Flush parked micro-batches on every shard."""
        for service in self.services:
            service.drain()

    def telemetry_snapshot(self) -> Dict:
        """Fleet-wide snapshot: merged instruments + per-shard stats.

        Counters sum and histograms merge across shards through
        :meth:`repro.obs.Registry.merge_snapshot`, so aggregate
        latency percentiles are computable from the merged histograms;
        the ``shards`` list keeps the per-shard session-cache stats
        for spotting imbalance.
        """
        aggregate = Registry()
        per_shard = []
        session_totals = {"count": 0, "model_builds": 0,
                          "model_hits": 0, "evictions": 0}
        for index, service in enumerate(self.services):
            snapshot = service.telemetry_snapshot()
            sessions = snapshot.pop("sessions")
            aggregate.merge_snapshot(snapshot)
            for key in session_totals:
                session_totals[key] += sessions[key]
            per_shard.append({
                "shard": index,
                "sessions": sessions,
                "responses": snapshot.get("counters", {}).get(
                    "serve.responses", 0),
            })
        merged = aggregate.snapshot()
        merged["sessions"] = session_totals
        merged["shards"] = per_shard
        return merged
