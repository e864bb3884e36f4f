"""Two-tier content-addressed artifact store.

Layout on disk::

    <cache_dir>/v<FORMAT_VERSION>/<namespace>/<key-digest>.pkl

Each artifact file is ``MAGIC + sha256(body) + body`` where the body
is the pickled encoded payload — the digest makes truncated or
bit-rotten files detectable, and detection degrades to a recompute,
never an exception.  Writes go to a temp file in the same directory
followed by ``os.replace``, so the workers of one sharded
:class:`~repro.experiments.parallel.CampaignExecutor` run racing on
the same artifact each land a complete file and the last one wins
(they are bit-identical anyway: the key addresses the content).

In front of the disk tier sits a bounded in-memory LRU holding the
*encoded* payloads; the ``decode`` hook runs on every hit so callers
always receive a fresh object they may mutate freely.

When observation is enabled, cache activity is recorded on the shared
:mod:`repro.obs` registry (``cache.*`` counters plus
``cache.load_seconds`` and ``cache.store_seconds`` histograms), so
campaign and bench manifests carry hit rates with zero extra plumbing.
``repro cache stats`` prints :func:`directory_stats`, the on-disk
entry counts and sizes.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache.keys import KEY_SCHEMA_VERSION, key_digest
from repro.errors import CacheError
from repro.faults.inject import armed as fault_armed
from repro.obs.registry import active

#: Kill switch: ``REPRO_CACHE=0`` (or ``false`` / ``no``) bypasses
#: both tiers entirely — every call recomputes, nothing is read or
#: written.
CACHE_ENV = "REPRO_CACHE"

#: Overrides the default on-disk location (``~/.cache/repro``).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk artifact format version (directory prefix ``v<N>``).  Bump
#: when the file framing or pickle envelope changes incompatibly.
FORMAT_VERSION = 1

#: File magic prefixing every artifact.
_MAGIC = b"repro-artifact-v1\n"

#: Artifact file suffix.
_SUFFIX = ".pkl"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CacheConfig:
    """Resolved cache configuration (directory + kill switch)."""

    directory: Path
    enabled: bool = True
    memory_entries: int = 128


def _env_truthy_off(raw: str) -> bool:
    """Whether an env value spells "off" (``0`` / ``false`` / ``no``)."""
    return raw.strip().lower() in ("0", "false", "no")


def config_from_env(environ: Optional[dict] = None) -> CacheConfig:
    """Resolve the cache configuration from the environment.

    ``REPRO_CACHE_DIR`` picks the directory (default
    ``~/.cache/repro``); ``REPRO_CACHE=0`` disables both tiers.
    """
    env = os.environ if environ is None else environ
    raw_dir = env.get(CACHE_DIR_ENV, "").strip()
    directory = Path(raw_dir) if raw_dir else (
        Path.home() / ".cache" / "repro")
    raw_switch = env.get(CACHE_ENV, "")
    return CacheConfig(directory=directory,
                       enabled=not _env_truthy_off(raw_switch))


class ArtifactCache:
    """Content-addressed artifact cache: memory LRU over a disk tier.

    Args:
        directory: Root of the on-disk tier (created lazily).
        enabled: When False, :meth:`get_or_compute` always recomputes.
        memory_entries: Bound on the in-memory LRU (encoded payloads).
    """

    def __init__(self, directory, enabled: bool = True,
                 memory_entries: int = 128):
        if memory_entries < 0:
            raise CacheError(
                f"memory_entries must be >= 0, got {memory_entries}")
        self.directory = Path(directory)
        self.enabled = bool(enabled)
        self.memory_entries = int(memory_entries)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    # -- public API -----------------------------------------------------

    def get_or_compute(self, namespace: str, version: int, key: Any,
                       compute: Callable[[], Any],
                       encode: Optional[Callable[[Any], Any]] = None,
                       decode: Optional[Callable[[Any], Any]] = None
                       ) -> Any:
        """The cache's one verb: load the artifact or compute-and-store.

        Args:
            namespace: Dotted artifact family (one directory on disk),
                e.g. ``"mechanics.contact_tables"``.
            version: Caller-owned artifact version; bump it whenever
                the computation's semantics change so stale entries
                can never be served.
            key: Everything the computation depends on, in the
                vocabulary :func:`repro.cache.keys.canonicalize`
                accepts.
            compute: Zero-argument callable producing the value.
            encode: Value -> stable payload (e.g.
                ``SensorModel.to_dict``).  Defaults to identity.
            decode: Payload -> fresh value (e.g.
                ``SensorModel.from_dict``).  Runs on **every** hit, so
                a decode that copies makes cached artifacts immune to
                caller mutation.  Defaults to identity.
        """
        if not self.enabled:
            return compute()
        digest = key_digest(namespace, version, key)
        start = time.perf_counter()
        payload, tier = self._load(namespace, digest)
        obs = active()
        if obs is not None:
            obs.counter("cache.requests").increment()
        if tier is not None:
            if obs is not None:
                obs.counter("cache.hits").increment()
                obs.counter(f"cache.{tier}_hits").increment()
                obs.histogram("cache.load_seconds").observe(
                    time.perf_counter() - start)
            return decode(payload) if decode is not None else payload
        if obs is not None:
            obs.counter("cache.misses").increment()
        value = compute()
        payload = encode(value) if encode is not None else value
        self._store(namespace, digest, payload)
        return decode(payload) if decode is not None else value

    # -- memory tier ----------------------------------------------------

    def _memory_get(self, digest: str) -> Tuple[Any, bool]:
        if digest not in self._memory:
            return None, False
        self._memory.move_to_end(digest)
        return self._memory[digest], True

    def _memory_put(self, digest: str, payload: Any) -> None:
        if self.memory_entries == 0:
            return
        self._memory[digest] = payload
        self._memory.move_to_end(digest)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    # -- disk tier ------------------------------------------------------

    def _artifact_path(self, namespace: str, digest: str) -> Path:
        return (self.directory / f"v{FORMAT_VERSION}" / namespace
                / f"{digest}{_SUFFIX}")

    def _load(self, namespace: str, digest: str
              ) -> Tuple[Any, Optional[str]]:
        """(payload, tier) from memory or disk; (None, None) on miss."""
        payload, found = self._memory_get(digest)
        if found:
            return payload, "memory"
        path = self._artifact_path(namespace, digest)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, None
        inj = fault_armed()
        if inj is not None and raw:
            fault = inj.draw("cache.store")
            if fault is not None:
                # Bit-rot injection: flip one byte of the artifact so
                # the integrity check below must catch it and the read
                # degrades to a recompute.
                index = int(fault.rng().integers(len(raw)))
                raw = (raw[:index] + bytes([raw[index] ^ 0xFF])
                       + raw[index + 1:])
        payload, ok = _decode_file(raw)
        if not ok:
            # Truncated or corrupt artifact: count it, drop the file so
            # the rewrite below is clean, and recompute.
            obs = active()
            if obs is not None:
                obs.counter("cache.errors").increment()
            logger.warning("discarding corrupt cache artifact %s", path)
            try:
                path.unlink()
            except OSError:
                pass
            return None, None
        obs = active()
        if obs is not None:
            obs.counter("cache.bytes_read").increment(len(raw))
        self._memory_put(digest, payload)
        return payload, "disk"

    def _store(self, namespace: str, digest: str, payload: Any) -> None:
        """Atomic write-through: temp file + ``os.replace``."""
        self._memory_put(digest, payload)
        path = self._artifact_path(namespace, digest)
        start = time.perf_counter()
        try:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            obs = active()
            if obs is not None:
                obs.counter("cache.errors").increment()
            logger.warning("cache payload for %s/%s is not picklable; "
                           "kept in memory only", namespace, digest[:12])
            return
        raw = _MAGIC + _body_digest(body) + body
        temp = path.with_name(f".tmp-{os.getpid()}-{uuid.uuid4().hex}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp.write_bytes(raw)
            os.replace(temp, path)
        except OSError as exc:
            # An unwritable disk degrades the cache to memory-only.
            obs = active()
            if obs is not None:
                obs.counter("cache.errors").increment()
            logger.warning("could not persist cache artifact %s: %s",
                           path, exc)
            try:
                temp.unlink()
            except OSError:
                pass
            return
        obs = active()
        if obs is not None:
            obs.counter("cache.writes").increment()
            obs.counter("cache.bytes_written").increment(len(raw))
            obs.histogram("cache.store_seconds").observe(
                time.perf_counter() - start)


def _body_digest(body: bytes) -> bytes:
    """Integrity line for an artifact body: 64 hex chars + newline."""
    return hashlib.sha256(body).hexdigest().encode() + b"\n"


def _decode_file(raw: bytes) -> Tuple[Any, bool]:
    """(payload, ok) from an artifact file's bytes."""
    if not raw.startswith(_MAGIC):
        return None, False
    rest = raw[len(_MAGIC):]
    if len(rest) < 65 or rest[64:65] != b"\n":
        return None, False
    digest, body = rest[:65], rest[65:]
    if _body_digest(body) != digest:
        return None, False
    try:
        return pickle.loads(body), True
    except Exception:
        return None, False


# -- directory maintenance (CLI backend) --------------------------------


def directory_stats(directory) -> dict:
    """Entry counts and byte totals per namespace under ``directory``."""
    directory = Path(directory)
    namespaces: Dict[str, Dict[str, int]] = {}
    total_entries = 0
    total_bytes = 0
    if directory.exists():
        for path in sorted(directory.glob(f"v*/*/*{_SUFFIX}")):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = namespaces.setdefault(path.parent.name,
                                          {"entries": 0, "bytes": 0})
            entry["entries"] += 1
            entry["bytes"] += size
            total_entries += 1
            total_bytes += size
    return {
        "directory": str(directory),
        "format_version": FORMAT_VERSION,
        "key_schema_version": KEY_SCHEMA_VERSION,
        "namespaces": namespaces,
        "total_entries": total_entries,
        "total_bytes": total_bytes,
    }


def prune(directory, max_age_days: Optional[float] = None,
          max_bytes: Optional[int] = None) -> dict:
    """Delete stale artifacts; returns what was removed.

    ``max_age_days`` removes artifacts older than the horizon;
    ``max_bytes`` then evicts oldest-first until the directory fits.
    Also reaps artifacts from older on-disk format versions (their
    directory prefix no longer matches ``v<FORMAT_VERSION>``) and any
    orphaned temp files.

    Raises:
        CacheError: A bound is negative (which would delete every
            artifact; :func:`clear` is the command for that).
    """
    for name, bound in (("max_age_days", max_age_days),
                        ("max_bytes", max_bytes)):
        if bound is not None and bound < 0:
            raise CacheError(f"{name} must be >= 0, got {bound!r}")
    return _evict(Path(directory), max_age_days, max_bytes)


def _evict(directory: Path, max_age_days: Optional[float],
           max_bytes: Optional[int]) -> dict:
    """:func:`prune` without the bound checks (:func:`clear` passes a
    negative age to drop everything)."""
    removed = 0
    removed_bytes = 0

    def _unlink(path: Path) -> None:
        nonlocal removed, removed_bytes
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return
        removed += 1
        removed_bytes += size

    if not directory.exists():
        return {"removed": 0, "removed_bytes": 0}
    for path in directory.glob("v*/*/.tmp-*"):
        _unlink(path)
    for path in directory.glob(f"v*/*/*{_SUFFIX}"):
        if path.parts[-3] != f"v{FORMAT_VERSION}":
            _unlink(path)
    survivors = []
    now = time.time()
    for path in directory.glob(
            f"v{FORMAT_VERSION}/*/*{_SUFFIX}"):
        try:
            stat = path.stat()
        except OSError:
            continue
        if (max_age_days is not None
                and now - stat.st_mtime > max_age_days * 86400.0):
            _unlink(path)
            continue
        survivors.append((stat.st_mtime, stat.st_size, path))
    if max_bytes is not None:
        survivors.sort()  # oldest first
        kept_bytes = sum(size for _, size, _ in survivors)
        for _, size, path in survivors:
            if kept_bytes <= max_bytes:
                break
            _unlink(path)
            kept_bytes -= size
    return {"removed": removed, "removed_bytes": removed_bytes}


def clear(directory) -> dict:
    """Delete every artifact under ``directory`` (all versions)."""
    return _evict(Path(directory), max_age_days=-1.0, max_bytes=None)


# -- the process-wide default cache -------------------------------------


_cache: Optional[ArtifactCache] = None
_cache_config: Optional[CacheConfig] = None


def get_cache() -> ArtifactCache:
    """The process-wide cache, configured from the environment.

    Re-reads ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` on every call (two
    dict lookups) so tests and operators can flip the kill switch or
    redirect the directory without touching module state.
    """
    global _cache, _cache_config
    config = config_from_env()
    if _cache is None or config != _cache_config:
        _cache = ArtifactCache(config.directory, enabled=config.enabled,
                               memory_entries=config.memory_entries)
        _cache_config = config
    return _cache
