"""Run manifests: git SHA, config hashing, report stamping."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    Registry,
    config_hash,
    git_sha,
    run_manifest,
    stamp_report,
)


class TestGitSha:
    def test_resolves_in_this_repo(self, tmp_path):
        """A throwaway repository, so the test also passes from a source
        export that has no ``.git``."""
        if shutil.which("git") is None:
            pytest.skip("no git executable")

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=repro", "-c",
                 "user.email=repro@example.invalid", "-c",
                 "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "empty")
        sha = git_sha(tmp_path)
        assert sha == git("rev-parse", "HEAD")
        assert len(sha) == 40
        int(sha, 16)  # hex

    def test_unknown_outside_git(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert (config_hash({"a": 1, "b": 2})
                == config_hash({"b": 2, "a": 1}))

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_empty_is_none(self):
        assert config_hash(None) == "none"
        assert config_hash({}) == "none"

    def test_short_hex(self):
        digest = config_hash({"n_samples": 1000})
        assert len(digest) == 16
        int(digest, 16)

    def test_exotic_values_fall_back_to_str(self):
        digest = config_hash({"path": object()})
        assert digest != "none"


class TestRunManifest:
    def test_fields_present(self):
        manifest = run_manifest(config={"x": 1})
        assert manifest["git_sha"] != ""
        assert manifest["config_hash"] == config_hash({"x": 1})
        assert manifest["created_unix"] > 0
        assert manifest["python_version"].count(".") >= 1
        assert manifest["platform"]
        assert manifest["instruments"] is None

    def test_includes_registry_snapshot(self):
        registry = Registry()
        registry.counter("c").increment(2)
        manifest = run_manifest(registry=registry)
        assert manifest["instruments"]["counters"]["c"] == 2

    def test_is_json_serialisable(self):
        registry = Registry()
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        text = json.dumps(run_manifest(config={"a": 1},
                                       registry=registry))
        assert "config_hash" in text


class TestStampReport:
    def test_stamps_in_place_and_returns(self):
        report = {"throughput_rps": 100.0}
        stamped = stamp_report(report, config={"k": 1})
        assert stamped is report
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["manifest"]["config_hash"] == config_hash({"k": 1})
        assert report["throughput_rps"] == 100.0

    def test_existing_keys_preserved(self):
        report = {"service": {"throughput_rps": 1.0}}
        stamp_report(report)
        assert report["service"] == {"throughput_rps": 1.0}
        assert report["manifest"]["config_hash"] == "none"
