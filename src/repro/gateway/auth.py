"""Per-tenant bearer-token auth and token-bucket quotas.

A *tenant* is one paying/trusted consumer of the gateway: it owns a
bearer token, a sustained request rate with a burst allowance, and a
concurrent-connection cap.  The :class:`TenantTable` is the gateway's
whole auth layer: ``authenticate`` maps an ``Authorization`` header to
a tenant (or raises :class:`repro.errors.AuthError` -> 401), ``admit``
spends one token from the tenant's bucket (refusal -> 429 with
``quality="rejected"``), and the connection slots bound fan-in per
tenant before a single byte reaches the inference service.

Quota shedding composes with the scheduler's bounded-queue
backpressure deliberately: the bucket protects *other tenants* from
one tenant's burst, while :class:`repro.errors.QueueFullError`
protects the *service* from aggregate overload.  Both surface to the
client the same way — a rejection, never a crash.

Buckets take the current time as an argument (the gateway passes its
event-loop clock), so quota behavior is deterministic under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.errors import AuthError, ConfigurationError

#: Tenant name used when the table allows anonymous access.
ANONYMOUS = "anonymous"


@dataclass(frozen=True)
class Tenant:
    """One gateway consumer and its quota envelope.

    Attributes:
        name: Stable tenant identity (lands in telemetry, never the
            token).
        token: Bearer credential presented as
            ``Authorization: Bearer <token>``.
        rate_per_s: Sustained request admission rate.
        burst: Bucket capacity — requests admitted instantly after an
            idle period before the rate limit bites.
        max_connections: Concurrent gateway connections this tenant
            may hold open.
    """

    name: str
    token: str
    rate_per_s: float = 200.0
    burst: int = 50
    max_connections: int = 32

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not (math.isfinite(self.rate_per_s) and self.rate_per_s > 0.0):
            raise ConfigurationError(
                f"rate_per_s must be finite and > 0, got {self.rate_per_s}")
        if self.burst < 1:
            raise ConfigurationError(
                f"burst must be >= 1, got {self.burst}")
        if self.max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, got "
                f"{self.max_connections}")


class TokenBucket:
    """Classic token bucket; time is injected for determinism.

    Args:
        rate_per_s: Steady-state refill rate [tokens/s].
        capacity: Bucket size (burst allowance); starts full.
    """

    def __init__(self, rate_per_s: float, capacity: float):
        if not all(math.isfinite(value) and value > 0.0
                   for value in (rate_per_s, capacity)):
            raise ConfigurationError(
                "token bucket rate and capacity must be finite and > 0")
        self.rate_per_s = float(rate_per_s)
        self.capacity = float(capacity)
        self.tokens = float(capacity)
        self._last: Optional[float] = None

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens at time ``now`` if available."""
        if self._last is not None and now > self._last:
            self.tokens = min(self.capacity,
                              self.tokens
                              + (now - self._last) * self.rate_per_s)
        self._last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


class TenantTable:
    """Token -> tenant lookup plus per-tenant buckets and slots.

    Args:
        tenants: The configured tenants (tokens must be unique).
        allow_anonymous: Admit requests without a credential as the
            built-in ``anonymous`` tenant (demo / loopback use; a
            production table leaves this off).
        anonymous_rate_per_s / anonymous_burst: Quota envelope for the
            anonymous tenant.
    """

    def __init__(self, tenants: Iterable[Tenant] = (),
                 allow_anonymous: bool = False,
                 anonymous_rate_per_s: float = 1e6,
                 anonymous_burst: int = 1 << 16):
        self._by_token: Dict[str, Tenant] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._connections: Dict[str, int] = {}
        for tenant in tenants:
            if not tenant.token:
                raise ConfigurationError(
                    f"tenant {tenant.name!r} has an empty token")
            if tenant.token in self._by_token:
                raise ConfigurationError(
                    f"duplicate token between tenants "
                    f"{self._by_token[tenant.token].name!r} and "
                    f"{tenant.name!r}")
            self._by_token[tenant.token] = tenant
        self.anonymous: Optional[Tenant] = None
        if allow_anonymous:
            self.anonymous = Tenant(
                ANONYMOUS, token="", rate_per_s=anonymous_rate_per_s,
                burst=anonymous_burst,
                max_connections=1 << 16)

    def __len__(self) -> int:
        return len(self._by_token)

    @property
    def tenants(self) -> Dict[str, Tenant]:
        """Configured tenants keyed by name (copy)."""
        return {tenant.name: tenant
                for tenant in self._by_token.values()}

    def authenticate(self, authorization: Optional[str]) -> Tenant:
        """Resolve an ``Authorization`` header value to a tenant.

        Raises:
            AuthError: Missing/malformed header or unknown token
                (the gateway answers 401; the message never echoes
                the presented token).
        """
        if not authorization:
            if self.anonymous is not None:
                return self.anonymous
            raise AuthError("missing bearer token")
        scheme, _, token = authorization.partition(" ")
        token = token.strip()
        if scheme.lower() != "bearer" or not token:
            raise AuthError("authorization must be 'Bearer <token>'")
        tenant = self._by_token.get(token)
        if tenant is None:
            raise AuthError("unknown bearer token")
        return tenant

    def _bucket(self, tenant: Tenant) -> TokenBucket:
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = self._buckets[tenant.name] = TokenBucket(
                tenant.rate_per_s, float(tenant.burst))
        return bucket

    def admit(self, tenant: Tenant, now: float) -> bool:
        """Spend one request token from the tenant's bucket."""
        return self._bucket(tenant).allow(now)

    def open_connections(self, tenant: Tenant) -> int:
        """Connections the tenant currently holds."""
        return self._connections.get(tenant.name, 0)

    def acquire_connection(self, tenant: Tenant) -> bool:
        """Claim one connection slot; False when the tenant is full."""
        held = self._connections.get(tenant.name, 0)
        if held >= tenant.max_connections:
            return False
        self._connections[tenant.name] = held + 1
        return True

    def release_connection(self, tenant: Tenant) -> None:
        """Return one connection slot."""
        held = self._connections.get(tenant.name, 0)
        if held <= 1:
            self._connections.pop(tenant.name, None)
        else:
            self._connections[tenant.name] = held - 1
