"""CLI tests (python -m repro ...)."""

import asyncio
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_log_level_parses(self):
        args = build_parser().parse_args(["--log-level", "debug", "info"])
        assert args.log_level == "debug"

    def test_log_level_default_info(self):
        assert build_parser().parse_args(["info"]).log_level == "info"

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "info"])

    def test_obs_report_parses(self):
        args = build_parser().parse_args(
            ["obs-report", "--input", "x.json", "--prometheus"])
        assert args.command == "obs-report"
        assert args.input == "x.json"
        assert args.prometheus is True

    def test_obs_report_defaults_to_chaos_report(self):
        args = build_parser().parse_args(["obs-report"])
        assert args.input == "benchmarks/results/BENCH_chaos.json"

    def test_calibrate_defaults(self):
        args = build_parser().parse_args(["calibrate"])
        assert args.carrier == 900e6
        assert args.output == "wiforce_model.json"

    def test_read_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["read", "--force", "1",
                                       "--location", "0.04"])

    @pytest.mark.parametrize("spec", ["a", "a:b:x", "a:b:nan", "a:b:1:0"])
    def test_bad_tenant_spec_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["gateway", "--tenant", spec])
        assert excinfo.value.code == 2
        assert repr(spec) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--anonymous", "--max-delay-ms", "nan"], "--max-delay-ms"),
        (["--anonymous", "--idle-ttl-s", "inf"], "--idle-ttl-s"),
        (["--anonymous", "--max-batch", "0"], "--max-batch"),
        (["--anonymous", "--max-sessions", "0"], "--max-sessions"),
        (["--tenant", "a:t", "--tenant", "b:t"], "--tenant"),
    ])
    def test_bad_serving_setting_is_a_usage_error(self, argv, flag, capsys,
                                                  monkeypatch):
        def serve(coroutine):
            coroutine.close()
            raise AssertionError("the gateway started")

        monkeypatch.setattr(asyncio, "run", serve)
        assert main(["gateway", "--port", "0", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"argument {flag}: " in err
        assert "Traceback" not in err

    def test_tenant_spec_builds_a_tenant(self):
        args = build_parser().parse_args(
            ["gateway", "--tenant", "a:b:5:7"])
        [tenant] = args.tenant
        assert (tenant.name, tenant.token, tenant.rate_per_s,
                tenant.burst) == ("a", "b", 5.0, 7)


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "80 mm" in output
        assert "HMC544AE" in output

    def test_power_runs(self, capsys):
        assert main(["power"]) == 0
        output = capsys.readouterr().out
        assert "uW" in output

    def test_calibrate_then_read(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["calibrate", "--fast", "--output",
                     str(model_path)]) == 0
        assert model_path.exists()
        assert main(["read", "--model", str(model_path), "--force", "3.0",
                     "--location", "0.04", "--fast",
                     "--repeats", "1"]) == 0
        output = capsys.readouterr().out
        assert "estimated:" in output


class TestObsReport:
    @pytest.fixture()
    def stamped_report(self, tmp_path):
        """A minimal bench report stamped exactly like the emitters do."""
        from repro.obs import Registry, stamp_report

        registry = Registry()
        registry.counter("estimator.batch_inversions").increment(8)
        registry.gauge("campaign.worker_utilization").set(0.9)
        registry.histogram("serve.latency_seconds").observe(0.004)
        with registry.span("serve.flush"):
            pass
        report = stamp_report({"service": {"throughput_rps": 1000.0}},
                              config={"sensors": 8}, registry=registry)
        path = tmp_path / "BENCH_chaos.json"
        path.write_text(json.dumps(report))
        return path

    def test_summarizes_stamped_report(self, stamped_report, capsys):
        assert main(["obs-report", "--input", str(stamped_report)]) == 0
        output = capsys.readouterr().out
        assert "schema_version : 2" in output
        assert "estimator.batch_inversions" in output
        assert "campaign.worker_utilization" in output
        assert "serve.latency_seconds" in output
        assert "span.serve.flush.seconds" in output
        # Per-stage stats columns come from the snapshot histograms.
        assert "p99" in output

    def test_prometheus_dump(self, stamped_report, capsys):
        assert main(["obs-report", "--input", str(stamped_report),
                     "--prometheus"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_estimator_batch_inversions counter" in output
        assert 'repro_serve_latency_seconds_bucket{le="+Inf"} 1' in output

    def test_missing_file_fails(self, tmp_path):
        assert main(["obs-report", "--input",
                     str(tmp_path / "absent.json")]) == 1

    def test_report_without_snapshot_fails(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"service": {}}))
        assert main(["obs-report", "--input", str(path)]) == 1

    def test_pre_manifest_report_falls_back_to_telemetry(self, tmp_path,
                                                         capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(
            {"telemetry": {"counters": {"requests.total": 4}}}))
        assert main(["obs-report", "--input", str(path)]) == 0
        output = capsys.readouterr().out
        assert "schema_version : 1" in output
        assert "requests.total" in output


@pytest.mark.integration
class TestDemoCommand:
    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo", "--fast", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "press 2.0 N" in output
        assert "read" in output
