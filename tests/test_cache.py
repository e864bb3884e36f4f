"""repro.cache: keys, tiers, robustness, wiring, CLI.

The invariants under test are the ones the campaigns lean on:

* content addressing — equal specs hit, different specs (or bumped
  versions) miss;
* robustness — corrupt/truncated artifacts, unwritable directories and
  the kill switch all degrade to recompute, never to an exception,
  and always bit-identically;
* observability — hits/misses surface on the shared obs registry and
  in the Prometheus export.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cache import (
    ArtifactCache,
    CACHE_DIR_ENV,
    CACHE_ENV,
    FORMAT_VERSION,
    canonicalize,
    clear,
    config_from_env,
    directory_stats,
    get_cache,
    key_digest,
    prune,
)
from repro.errors import CacheError
from repro.obs import to_prometheus
from repro.obs.registry import observed
from repro.sensor.geometry import default_sensor_design


@contextmanager
def temporary_cache(directory):
    """Scope a fresh cache under ``directory`` as the process default."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(directory))
        patch.delenv(CACHE_ENV, raising=False)
        yield get_cache()


@pytest.fixture()
def cache(tmp_path):
    """A fresh two-tier cache rooted in a temp directory."""
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture()
def counts():
    """Observe the test; ``counts(name)`` reads the ``cache.<name>``
    counter (0 when it never incremented)."""
    with observed() as registry:
        yield lambda name: registry.snapshot()["counters"].get(
            f"cache.{name}", 0)


# -- key canonicalization ------------------------------------------------


class TestCanonicalize:
    def test_floats_keep_exact_bits(self):
        assert canonicalize(0.1) != canonicalize(
            0.1 + 2.0 ** -54)

    def test_nan_and_inf_are_representable(self):
        assert canonicalize(float("nan")) != canonicalize(float("inf"))

    def test_int_and_float_are_distinct(self):
        assert canonicalize(1) != canonicalize(1.0)

    def test_ndarray_keyed_by_content(self):
        a = np.arange(6, dtype=float)
        b = np.arange(6, dtype=float)
        assert canonicalize(a) == canonicalize(b)
        b[3] = -1.0
        assert canonicalize(a) != canonicalize(b)

    def test_ndarray_dtype_matters(self):
        assert (canonicalize(np.zeros(3, dtype=np.float32))
                != canonicalize(np.zeros(3, dtype=np.float64)))

    def test_dataclasses_recurse(self):
        design = default_sensor_design()
        assert canonicalize(design) == canonicalize(
            default_sensor_design())

    def test_unknown_types_raise_cache_error(self):
        with pytest.raises(CacheError):
            canonicalize(object())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(CacheError):
            canonicalize({1: "x"})

    def test_digest_depends_on_namespace_version_key(self):
        base = key_digest("ns", 1, {"a": 1})
        assert key_digest("other", 1, {"a": 1}) != base
        assert key_digest("ns", 2, {"a": 1}) != base
        assert key_digest("ns", 1, {"a": 2}) != base


# -- tiers and the decorator ---------------------------------------------


class TestTiers:
    def test_miss_then_memory_then_disk(self, cache, counts):
        calls = []
        value = cache.get_or_compute("ns", 1, {"k": 1},
                                     lambda: calls.append(1) or 42)
        assert value == 42
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert counts("memory_hits") == 1
        cache._memory.clear()
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert counts("disk_hits") == 1

    def test_memory_tier_is_bounded_lru(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=4)
        for k in range(6):
            cache.get_or_compute("ns", 1, {"k": k}, lambda k=k: k)
        assert len(cache._memory) == 4

    def test_decode_runs_on_every_hit(self, cache):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: [1, 2],
                             encode=list, decode=list)
        first = cache.get_or_compute("ns", 1, {"k": 1}, lambda: [1, 2],
                                     encode=list, decode=list)
        second = cache.get_or_compute("ns", 1, {"k": 1}, lambda: [1, 2],
                                      encode=list, decode=list)
        assert first == second
        assert first is not second  # callers may mutate freely

    def test_version_bump_invalidates(self, cache, counts):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: "v1")
        assert cache.get_or_compute("ns", 2, {"k": 1},
                                    lambda: "v2") == "v2"
        assert counts("misses") == 2


# -- robustness ----------------------------------------------------------


def _artifact_files(cache):
    return sorted(cache.directory.glob("v*/*/*.pkl"))


class TestRobustness:
    def _seed(self, cache):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: {"v": 7})
        cache._memory.clear()
        [path] = _artifact_files(cache)
        return path

    def test_truncated_artifact_recomputes(self, cache, counts):
        path = self._seed(cache)
        path.write_bytes(path.read_bytes()[:30])
        value = cache.get_or_compute("ns", 1, {"k": 1},
                                     lambda: {"v": 7})
        assert value == {"v": 7}
        assert counts("errors") == 1
        assert counts("misses") == 2

    def test_flipped_bit_recomputes(self, cache, counts):
        path = self._seed(cache)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: {"v": 7}) == {"v": 7}
        assert counts("errors") == 1

    def test_garbage_file_recomputes(self, cache, counts):
        path = self._seed(cache)
        path.write_bytes(b"not an artifact at all")
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: {"v": 7}) == {"v": 7}
        assert counts("errors") == 1

    def test_unpicklable_body_recomputes(self, cache, counts):
        path = self._seed(cache)
        from repro.cache.store import _MAGIC, _body_digest

        body = pickle.dumps({"v": 7})[:-2]  # framed but truncated pickle
        path.write_bytes(_MAGIC + _body_digest(body) + body)
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: {"v": 7}) == {"v": 7}
        assert counts("errors") == 1

    def test_corrupt_artifact_is_dropped_and_rewritten(self, cache):
        path = self._seed(cache)
        path.write_bytes(b"junk")
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: {"v": 7})
        cache._memory.clear()
        assert cache.get_or_compute("ns", 1, {"k": 1},
                                    lambda: {"v": 0}) == {"v": 7}

    def test_unwritable_directory_degrades(self, tmp_path, counts):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should be")
        cache = ArtifactCache(target)
        assert cache.get_or_compute("ns", 1, {"k": 1}, lambda: 5) == 5
        assert counts("errors") == 1
        # The memory tier still serves.
        assert cache.get_or_compute("ns", 1, {"k": 1}, lambda: 6) == 5

    def test_disabled_cache_recomputes_every_call(self, tmp_path,
                                                  counts):
        cache = ArtifactCache(tmp_path, enabled=False)
        calls = []
        for _ in range(2):
            cache.get_or_compute("ns", 1, {"k": 1},
                                 lambda: calls.append(1) or 1)
        assert len(calls) == 2
        assert counts("requests") == 0
        assert not _artifact_files(cache)


# -- env configuration ---------------------------------------------------


class TestEnvironment:
    def test_kill_switch_values(self):
        for raw in ("0", "false", "no", " FALSE "):
            assert not config_from_env({CACHE_ENV: raw}).enabled
        for raw in ("", "1", "true", "on"):
            assert config_from_env({CACHE_ENV: raw}).enabled

    def test_dir_env_wins(self, tmp_path):
        config = config_from_env({CACHE_DIR_ENV: str(tmp_path)})
        assert config.directory == tmp_path

    def test_get_cache_tracks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "a"))
        first = get_cache()
        assert first.directory == tmp_path / "a"
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "b"))
        assert get_cache().directory == tmp_path / "b"
        monkeypatch.setenv(CACHE_ENV, "0")
        assert not get_cache().enabled

    def test_temporary_cache_scopes_default(self, tmp_path):
        with temporary_cache(tmp_path) as cache:
            assert get_cache() is cache
        assert get_cache() is not cache


# -- maintenance + CLI ---------------------------------------------------


class TestMaintenance:
    def test_directory_stats_counts_namespaces(self, cache):
        cache.get_or_compute("ns.a", 1, {"k": 1}, lambda: 1)
        cache.get_or_compute("ns.b", 1, {"k": 1}, lambda: 2)
        stats = directory_stats(cache.directory)
        assert stats["total_entries"] == 2
        assert set(stats["namespaces"]) == {"ns.a", "ns.b"}
        assert stats["format_version"] == FORMAT_VERSION

    def test_prune_by_age(self, cache):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        [path] = _artifact_files(cache)
        old = os.stat(path).st_mtime - 10 * 86400
        os.utime(path, (old, old))
        assert prune(cache.directory, max_age_days=30.0)["removed"] == 0
        assert prune(cache.directory, max_age_days=5.0)["removed"] == 1

    def test_prune_to_byte_budget_keeps_newest(self, cache):
        for k in range(4):
            cache.get_or_compute("ns", 1, {"k": k}, lambda k=k: k)
        paths = _artifact_files(cache)
        for age, path in enumerate(paths):
            stamp = os.stat(path).st_mtime - 100 * (len(paths) - age)
            os.utime(path, (stamp, stamp))
        one_entry = os.stat(paths[0]).st_size
        result = prune(cache.directory, max_bytes=one_entry)
        assert result["removed"] == 3

    def test_prune_reaps_temp_and_old_formats(self, cache):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        [path] = _artifact_files(cache)
        (path.parent / ".tmp-1-dead").write_bytes(b"orphan")
        stale = cache.directory / "v0" / "ns" / "old.pkl"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"stale format")
        assert prune(cache.directory)["removed"] == 2
        assert _artifact_files(cache) == [path]

    @pytest.mark.parametrize("bound", [{"max_bytes": -5},
                                       {"max_age_days": -1.0}])
    def test_negative_prune_bound_is_refused(self, cache, bound):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        with pytest.raises(CacheError, match=next(iter(bound))):
            prune(cache.directory, **bound)
        assert prune(cache.directory, max_bytes=0)["removed"] == 1

    def test_clear_removes_everything(self, cache):
        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        clear(cache.directory)
        assert directory_stats(cache.directory)["total_entries"] == 0

    def test_cli_stats_prune_clear(self, cache, capsys):
        from repro.cli import main

        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        root = str(cache.directory)
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "1 artifacts" in out and "ns" in out
        assert main(["cache", "prune", "--cache-dir", root,
                     "--max-age-days", "30"]) == 0
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "removed 1 artifacts" in capsys.readouterr().out
        assert directory_stats(root)["total_entries"] == 0

    @pytest.mark.parametrize("flags", [["--max-bytes", "-5"],
                                       ["--max-age-days", "-1"]])
    def test_cli_negative_prune_bound_deletes_nothing(self, cache,
                                                      flags, capsys):
        from repro.cli import main

        cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
        root = str(cache.directory)
        assert main(["cache", "prune", "--cache-dir", root] + flags) == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert directory_stats(root)["total_entries"] == 1

    def test_cli_stats_respects_env_dir(self, cache, capsys,
                                        monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(CACHE_DIR_ENV, str(cache.directory))
        assert main(["cache", "stats"]) == 0
        assert str(cache.directory) in capsys.readouterr().out


# -- observability -------------------------------------------------------


class TestObservability:
    def test_counters_and_prometheus_export(self, cache):
        with observed() as registry:
            cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
            cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["cache.requests"] == 2
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.memory_hits"] == 1
        assert counters["cache.writes"] == 1
        text = to_prometheus(snapshot)
        assert "repro_cache_hits 1" in text
        assert "repro_cache_misses 1" in text
        assert "repro_cache_load_seconds" in text

    def test_error_counter_on_corruption(self, cache):
        with observed() as registry:
            cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
            cache._memory.clear()
            [path] = _artifact_files(cache)
            path.write_bytes(b"junk")
            cache.get_or_compute("ns", 1, {"k": 1}, lambda: 1)
            counters = registry.snapshot()["counters"]
        assert counters["cache.errors"] == 1
        assert counters["cache.misses"] == 2

    def test_error_counter_on_unpicklable_payload(self, cache, counts):
        """A value that cannot be pickled stays in memory only, and
        counts one ``cache.errors``."""
        value = cache.get_or_compute("ns", 1, {"k": 1}, lambda: (lambda: 7))
        assert value() == 7
        assert counts("errors") == 1
        assert not _artifact_files(cache)


# -- wiring into the simulation cold paths -------------------------------


class TestWiring:
    def test_contact_map_round_trips_through_cache(self, tmp_path,
                                                   counts):
        from repro.mechanics.contact import ContactMap

        design = default_sensor_design()
        with temporary_cache(tmp_path) as cache:
            cold = ContactMap(design.contact_solver(nodes=81),
                              force_points=5, location_points=5)
            assert counts("misses") == 1
            warm = ContactMap(design.contact_solver(nodes=81),
                              force_points=5, location_points=5)
            assert counts("hits") == 1
        np.testing.assert_array_equal(cold._left, warm._left)
        np.testing.assert_array_equal(cold._right, warm._right)

    def test_contact_map_bit_identical_without_cache(self, tmp_path,
                                                     monkeypatch):
        from repro.mechanics.contact import ContactMap

        design = default_sensor_design()
        with temporary_cache(tmp_path):
            cached = ContactMap(design.contact_solver(nodes=81),
                                force_points=5, location_points=5)
            cached = ContactMap(design.contact_solver(nodes=81),
                                force_points=5, location_points=5)
        monkeypatch.setenv(CACHE_ENV, "0")
        bare = ContactMap(design.contact_solver(nodes=81),
                          force_points=5, location_points=5)
        np.testing.assert_array_equal(cached._left, bare._left)
        np.testing.assert_array_equal(cached._right, bare._right)

    def test_calibration_round_trips_through_cache(self, tmp_path,
                                                   counts):
        from repro.core.calibration import calibrate_harmonic_observable
        from repro.sensor.tag import WiForceTag
        from repro.sensor.transduction import ForceTransducer

        design = default_sensor_design()
        locations = (0.02, 0.04, 0.06)
        forces = np.linspace(0.5, 8.0, 6)

        def build():
            tag = WiForceTag(ForceTransducer(design, force_points=6,
                                             location_points=7))
            return calibrate_harmonic_observable(tag, 900e6, locations,
                                                 forces)

        with temporary_cache(tmp_path) as cache:
            cold = build()
            assert counts("misses") == 2  # tables + calibration
            warm = build()
            assert counts("misses") == 2
        assert cold.to_dict() == warm.to_dict()

    def test_calibration_bit_identical_without_cache(self, tmp_path,
                                                     monkeypatch):
        from repro.core.calibration import calibrate_harmonic_observable
        from repro.sensor.tag import WiForceTag
        from repro.sensor.transduction import ForceTransducer

        design = default_sensor_design()
        locations = (0.02, 0.04, 0.06)
        forces = np.linspace(0.5, 8.0, 6)

        def build():
            tag = WiForceTag(ForceTransducer(design, force_points=6,
                                             location_points=7))
            return calibrate_harmonic_observable(tag, 900e6, locations,
                                                 forces)

        with temporary_cache(tmp_path):
            cached = build()
            cached = build()
        monkeypatch.setenv(CACHE_ENV, "0")
        assert cached.to_dict() == build().to_dict()

    def test_artifacts_shared_across_processes(self, tmp_path):
        """A child process with the same spec starts disk-warm."""
        import json

        import repro

        script = (
            "import json\n"
            "from repro.mechanics.contact import ContactMap\n"
            "from repro.obs import observed\n"
            "from repro.sensor.geometry import default_sensor_design\n"
            "design = default_sensor_design()\n"
            "with observed() as registry:\n"
            "    ContactMap(design.contact_solver(nodes=81),\n"
            "               force_points=5, location_points=5)\n"
            "print(json.dumps(registry.snapshot()['counters']))\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=source_root)
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env=env, check=True)
            runs.append(json.loads(proc.stdout))
        assert runs[0]["cache.misses"] == 1
        assert runs[0]["cache.writes"] == 1
        assert runs[1]["cache.disk_hits"] == 1
        assert "cache.misses" not in runs[1]
