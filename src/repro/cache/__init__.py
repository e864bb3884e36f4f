"""``repro.cache`` — content-addressed artifact cache + memoization.

Every expensive *deterministic* computation in the stack — the
finite-difference contact solves behind
:class:`~repro.mechanics.contact.ContactMap`, the harmonic calibration
fits behind :func:`~repro.core.calibration.calibrate_harmonic_observable`,
the per-toleranced-unit calibrations in the Monte-Carlo campaigns — is
a pure function of its configuration.  This package memoizes them on
disk, content-addressed by a versioned sha256 of the inputs, so every
process on a machine (CI runs, :class:`CampaignExecutor` workers,
serve replicas) shares one warm artifact store instead of paying the
cold start N times.

Two tiers: a bounded in-memory LRU in front of an atomic-write disk
store.  Operationally:

* ``REPRO_CACHE=0`` — kill switch, bypasses both tiers (bit-identical
  results, just slower).
* ``REPRO_CACHE_DIR`` — relocate the store (default
  ``~/.cache/repro``).
* ``python -m repro cache stats|prune|clear`` — inspect and maintain.

See DESIGN.md ("Artifact cache") for the key schema and invalidation
rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "keys": ("KEY_SCHEMA_VERSION", "canonicalize", "key_digest"),
    "store": ("ArtifactCache", "CACHE_DIR_ENV", "CACHE_ENV", "CacheConfig",
              "FORMAT_VERSION", "clear", "config_from_env", "directory_stats",
              "get_cache", "prune"),
})
