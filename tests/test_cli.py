"""CLI tests (python -m repro ...)."""

import asyncio
import http.client
import json
import os
import queue
import re
import subprocess
import sys
import threading

import pytest

import repro
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
        registry.histogram("serve.queue_seconds").observe(0.004)
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
        assert "serve.queue_seconds" in output
        assert "span.serve.flush.seconds" in output
        # Per-stage stats columns come from the snapshot histograms.
        assert "p99" in output

    def test_prometheus_dump(self, stamped_report, capsys):
        assert main(["obs-report", "--input", str(stamped_report),
                     "--prometheus"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_estimator_batch_inversions counter" in output
        assert 'repro_serve_queue_seconds_bucket{le="+Inf"} 1' in output

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


class TestGatewayCommand:
    """``repro gateway`` as an operator starts it, in its own process."""

    TRACE_ID = "cafe" * 8

    def _serve_one_traced_estimate(self, port):
        """POST one estimate carrying a ``traceparent``; return the
        ``/metrics`` page read afterwards."""
        from repro.serve import EstimateRequest, SensorConfig

        body = json.dumps(EstimateRequest(
            sensor_id="cli-0", sequence=0, time=0.0, phi1=0.5, phi2=0.4,
            config=SensorConfig()).to_dict())
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        try:
            connection.request("POST", "/v1/estimate", body=body, headers={
                "content-type": "application/json",
                "traceparent": f"00-{self.TRACE_ID}-{'ab' * 8}-01"})
            response = connection.getresponse()
            assert response.status == 200, response.read()
            response.read()
        finally:
            connection.close()
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=60)
        try:
            connection.request("GET", "/metrics")
            return connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()

    def test_observed_gateway_keeps_one_registry(self, tmp_path, capsys):
        """With ``REPRO_OBS=1``, ``/metrics`` shows the serving and the
        gated instruments side by side, and the trace export holds the
        request's whole span tree."""
        export = tmp_path / "spans.jsonl"
        env = dict(os.environ, REPRO_OBS="1",
                   REPRO_TRACE_EXPORT=str(export), PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.path.dirname(
                       os.path.dirname(repro.__file__)))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--anonymous",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        lines = queue.Queue()
        threading.Thread(target=lambda: [lines.put(line)
                                         for line in process.stdout],
                         daemon=True).start()
        try:
            banner = lines.get(timeout=120)
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            metrics = self._serve_one_traced_estimate(port)
        finally:
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        assert "repro_serve_responses" in metrics
        assert "repro_serve_session_model_builds" in metrics
        capsys.readouterr()
        assert main(["trace", "show", self.TRACE_ID, "--input",
                     str(export)]) == 0
        waterfall = capsys.readouterr().out
        for name in ("gateway.request", "serve.estimate", "serve.flush",
                     "estimator.invert_batch"):
            assert name in waterfall, (name, waterfall)
