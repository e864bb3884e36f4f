"""Command-line interface: ``python -m repro <command>``.

Commands:
    info        Print the default sensor design and deployment summary.
    power       Print the tag power budget vs the digital baseline.
    calibrate   Build the cubic sensor model and save it as JSON.
    read        Simulate wireless reads of one press with a saved model.
    demo        One-command end-to-end demo (build, calibrate, read).
    gateway     Serve the inference service over HTTP/WebSocket sockets.
    chaos       Run the serve campaign under an armed fault plan.
    obs-report  Summarize the observability manifest of a bench run.
    trace       Render a trace waterfall from exported span events.
    cache       Inspect / prune / clear the shared artifact cache.

Primary results go to stdout (machine-consumable); progress and
diagnostics go through the ``repro`` logger hierarchy on stderr,
controlled by ``--log-level``.  ``REPRO_OBS=1`` turns the shared
instrument registry on for any command.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

import numpy as np

logger = logging.getLogger(__name__)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.mechanics.dynamics import modal_summary
    from repro.sensor.geometry import default_sensor_design

    design = default_sensor_design()
    line = design.line
    print("WiForce default sensor (paper prototype):")
    print(f"  length            : {line.length * 1e3:.0f} mm")
    print(f"  trace / ground    : {line.width * 1e3:.1f} / "
          f"{line.ground_width * 1e3:.1f} mm")
    print(f"  air gap           : {line.height * 1e3:.2f} mm")
    print(f"  Z0                : {line.characteristic_impedance:.1f} ohm")
    print(f"  soft beam         : {design.soft_material.name}, "
          f"{design.soft_thickness * 1e3:.0f} mm thick")
    print(f"  switch            : {design.switch.name} "
          f"(reflective={design.switch.is_reflective})")
    summary = modal_summary(design.composite_beam(),
                            foundation_stiffness=design.foundation_stiffness())
    print(f"  fundamental mode  : {summary.fundamental:.1f} Hz")
    print(f"  settling time     : {summary.settling_time * 1e3:.0f} ms "
          "(phase-group stationarity margin)")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.baselines.digital_backscatter import (
        digital_backscatter_power_budget,
    )
    from repro.sensor.power import wiforce_power_budget

    wiforce = wiforce_power_budget()
    digital = digital_backscatter_power_budget()
    print(f"WiForce tag          : {wiforce.total_uw:8.3f} uW "
          "(paper: < 1 uW)")
    print(f"digital backscatter  : {digital.total_uw:8.3f} uW")
    print(f"factor               : {digital.total / wiforce.total:8.0f}x")
    return 0


def _transducer(fast: bool):
    from repro.experiments.scenarios import default_transducer, fast_transducer

    return fast_transducer() if fast else default_transducer()


def _build_tag(fast: bool):
    from repro.sensor.tag import WiForceTag

    return WiForceTag(_transducer(fast))


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro import CALIBRATION_LOCATIONS, FORCE_RANGE
    from repro.core.calibration import calibrate_harmonic_observable

    logger.info("calibrating at %.0f MHz (%s contact map)",
                args.carrier / 1e6, "fast" if args.fast else "full")
    model = calibrate_harmonic_observable(
        _build_tag(args.fast), args.carrier, CALIBRATION_LOCATIONS,
        np.linspace(*FORCE_RANGE, 16))
    model.save(args.output)
    print(f"Saved sensor model to {args.output}")
    return 0


def _cmd_read(args: argparse.Namespace) -> int:
    from repro.channel.multipath import indoor_channel
    from repro.channel.propagation import BackscatterLink
    from repro.core.calibration import SensorModel
    from repro.core.pipeline import WiForceReader
    from repro.reader.batch import FastSounder
    from repro.reader.waveform import OFDMSounderConfig
    from repro.sensor.tag import TagState

    model = SensorModel.load(args.model)
    tag = _build_tag(args.fast)
    rng = np.random.default_rng(args.seed)
    sounder = FastSounder(
        OFDMSounderConfig(carrier_frequency=model.frequency), tag,
        BackscatterLink(), indoor_channel(model.frequency, rng=rng),
        rng=rng)
    reader = WiForceReader(sounder, model)
    for _ in range(args.repeats):
        reading = reader.read(TagState(args.force, args.location),
                              rebaseline=True)
        print(f"estimated: {reading.force:6.2f} N at "
              f"{reading.location * 1e3:6.1f} mm   (phases "
              f"{np.degrees(reading.phi1):7.1f}, "
              f"{np.degrees(reading.phi2):7.1f} deg)")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import TagState, build_default_system

    logger.info("building the default deployment (this calibrates the "
                "sensor model; ~15 s)")
    system = build_default_system(carrier_frequency=args.carrier,
                                  seed=args.seed,
                                  transducer=_transducer(args.fast))
    system.reader.capture_baseline()
    for force, location in ((2.0, 0.030), (5.0, 0.050)):
        reading = system.reader.read(TagState(force, location),
                                     rebaseline=True)
        print(f"press {force:.1f} N @ {location * 1e3:.0f} mm -> "
              f"read {reading.force:.2f} N @ "
              f"{reading.location * 1e3:.1f} mm")
    return 0


def _tenant(spec: str):
    """A ``--tenant`` value, ``name:token[:rate[:burst]]``, as a Tenant."""
    from repro.gateway import Tenant

    try:
        name, token, *quota = spec.split(":")
        if not token or len(quota) > 2:
            raise ValueError("empty token or more than four fields")
        # ConfigurationError, raised on a bad quota, is a ValueError.
        return Tenant(name, token, *(parse(value) for parse, value
                                     in zip((float, int), quota)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not NAME:TOKEN[:RATE[:BURST]] ({exc})") from None


#: The ``repro gateway`` flag behind each serving-constructor argument,
#: keyed by the name the constructor's error message starts with.
_GATEWAY_FLAGS = {"max_batch": "--max-batch", "max_delay_s": "--max-delay-ms",
                  "max_sessions": "--max-sessions",
                  "idle_ttl_s": "--idle-ttl-s"}


def _usage_error(flag: str, exc: Exception) -> int:
    """Report a flag the serving constructors reject, as argparse
    would: one stderr line, exit status 2."""
    print(f"repro gateway: error: argument {flag}: {exc}", file=sys.stderr)
    return 2


def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigurationError, ServeError
    from repro.gateway import Gateway, TenantTable
    from repro.serve import BatchPolicy, InferenceService

    if not args.tenant and not args.anonymous:
        logger.error("no --tenant given; pass --anonymous to serve "
                     "without auth (loopback demos only)")
        return 1
    try:
        table = TenantTable(args.tenant, allow_anonymous=args.anonymous)
    except ConfigurationError as exc:
        return _usage_error("--tenant", exc)
    try:
        service = InferenceService(
            policy=BatchPolicy(max_batch=args.max_batch,
                               max_delay_s=args.max_delay_ms * 1e-3),
            max_sessions=args.max_sessions,
            idle_ttl_s=args.idle_ttl_s)
    except ServeError as exc:
        return _usage_error(_GATEWAY_FLAGS[str(exc).split()[0]], exc)
    gateway = Gateway(service, tenants=table, host=args.host,
                      port=args.port)

    async def serve() -> None:
        host, port = await gateway.start()
        print(f"gateway listening on http://{host}:{port} "
              f"(estimate: POST /v1/estimate, stream: GET /v1/stream)")
        try:
            await gateway.serve_forever()
        finally:
            await gateway.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        logger.info("gateway stopped")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos
    from repro.faults.plan import FaultPlan
    from repro.serve import LoadProfile, write_report

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        plan = chaos.default_plan(args.seed)
    profile = LoadProfile(
        sensors=args.sensors,
        requests_per_sensor=args.requests,
        carrier_frequency=args.carrier,
        fast=not args.full,
    )
    logger.info(
        "running chaos campaign: plan %s (seed %d, %d specs) over %d "
        "requests", plan.name, args.seed, len(plan.specs),
        profile.total_requests)
    report = chaos.run_chaos(
        plan=plan, profile=profile, seed=args.seed,
        transport="gateway" if args.gateway else "inprocess")
    print(chaos.summarize(report))
    path = write_report(report, args.output)
    print(f"Wrote {path}")
    crashes = report["survival"]["crashes"]
    if crashes:
        logger.error("chaos campaign saw %d crash(es)", crashes)
        return 1
    return 0


def _render_histogram_stats(histograms: dict) -> List[str]:
    """Aligned count/mean/p50/p99/max lines for snapshot histograms."""
    from repro.obs import Histogram

    if not histograms:
        return ["  (none)"]
    width = max(len(name) for name in histograms)
    lines = [f"  {'name':<{width}}  {'count':>7}  {'mean':>10}  "
             f"{'p50':>10}  {'p99':>10}  {'max':>10}"]
    for name, payload in sorted(histograms.items()):
        histogram = Histogram.from_dict(dict(payload, name=name))
        maximum = payload["max"] if payload["count"] else float("nan")
        lines.append(
            f"  {name:<{width}}  {histogram.count:>7}  "
            f"{histogram.mean:>10.3g}  {histogram.quantile(0.5):>10.3g}  "
            f"{histogram.quantile(0.99):>10.3g}  {maximum:>10.3g}")
    return lines


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import to_prometheus

    path = Path(args.input)
    if not path.exists():
        logger.error("no benchmark report at %s — run "
                     "`python -m repro chaos` first", path)
        return 1
    report = json.loads(path.read_text())
    manifest = report.get("manifest") or {}
    snapshot = manifest.get("instruments")
    if snapshot is None:
        # Pre-manifest reports still carry the service telemetry.
        snapshot = report.get("telemetry")
    if snapshot is None:
        logger.error("%s carries no instrument snapshot", path)
        return 1
    if args.prometheus:
        print(to_prometheus(snapshot), end="")
        return 0
    print(f"observability report: {path}")
    print(f"  schema_version : {report.get('schema_version', 1)}")
    print(f"  git sha        : {manifest.get('git_sha', 'unknown')}")
    print(f"  config hash    : {manifest.get('config_hash', 'unknown')}")
    counters = snapshot.get("counters", {})
    print("counters:")
    if counters:
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            print(f"  {name:<{width}}  {value}")
    else:
        print("  (none)")
    gauges = snapshot.get("gauges", {})
    if gauges:
        print("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in sorted(gauges.items()):
            print(f"  {name:<{width}}  {value:.4g}")
    histograms = snapshot.get("histograms", {})
    spans = {name: payload for name, payload in histograms.items()
             if name.startswith("span.")}
    stages = {name: payload for name, payload in histograms.items()
              if not name.startswith("span.")}
    print("stage latency histograms [s]:")
    for line in _render_histogram_stats(stages):
        print(line)
    print("trace spans [s]:")
    for line in _render_histogram_stats(spans):
        print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.trace import render_waterfall

    path = Path(args.input)
    if not path.exists():
        logger.error("no span-event export at %s — run with REPRO_OBS=1 "
                     "REPRO_TRACE_EXPORT=%s first", path, path)
        return 1
    events = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    rendered = render_waterfall(events, args.trace_id)
    if not rendered:
        logger.error("no spans matching trace %r in %s (%d events)",
                     args.trace_id, path, len(events))
        return 1
    print(rendered)
    return 0


def _cache_directory(args: argparse.Namespace):
    from repro.cache import config_from_env

    if args.cache_dir:
        from pathlib import Path

        return Path(args.cache_dir)
    return config_from_env().directory


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import clear, config_from_env, directory_stats, prune
    from repro.errors import CacheError

    directory = _cache_directory(args)
    if args.action == "stats":
        stats = directory_stats(directory)
        enabled = config_from_env().enabled
        print(f"cache directory : {stats['directory']}")
        print(f"enabled         : {enabled}")
        print(f"format version  : v{stats['format_version']} "
              f"(key schema {stats['key_schema_version']})")
        print(f"total           : {stats['total_entries']} artifacts, "
              f"{stats['total_bytes']} bytes")
        if stats["namespaces"]:
            width = max(len(name) for name in stats["namespaces"])
            for name, entry in sorted(stats["namespaces"].items()):
                print(f"  {name:<{width}}  {entry['entries']:>5} artifacts  "
                      f"{entry['bytes']:>12} bytes")
        return 0
    if args.action == "prune":
        try:
            result = prune(directory, max_age_days=args.max_age_days,
                           max_bytes=args.max_bytes)
        except CacheError as exc:
            logger.error("cache prune: %s", exc)
            return 1
    else:  # clear
        result = clear(directory)
    print(f"removed {result['removed']} artifacts "
          f"({result['removed_bytes']} bytes) from {directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiForce reproduction command-line tools",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error", "critical"],
        help="repro logger verbosity on stderr (default info)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the sensor design summary")
    sub.add_parser("power", help="print tag vs digital power budgets")

    calibrate = sub.add_parser("calibrate",
                               help="build and save a sensor model")
    calibrate.add_argument("--carrier", type=float, default=900e6,
                           help="carrier frequency [Hz] (default 900e6)")
    calibrate.add_argument("--output", default="wiforce_model.json",
                           help="output JSON path")
    calibrate.add_argument("--fast", action="store_true",
                           help="reduced-resolution contact map")

    read = sub.add_parser("read", help="simulate wireless reads")
    read.add_argument("--model", required=True, help="saved model JSON")
    read.add_argument("--force", type=float, required=True,
                      help="applied force [N]")
    read.add_argument("--location", type=float, required=True,
                      help="press location [m] from port 1")
    read.add_argument("--repeats", type=int, default=3)
    read.add_argument("--seed", type=int, default=0)
    read.add_argument("--fast", action="store_true")

    demo = sub.add_parser("demo", help="end-to-end demo")
    demo.add_argument("--carrier", type=float, default=900e6)
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--fast", action="store_true")

    gateway = sub.add_parser(
        "gateway",
        help="serve the inference service over HTTP/WebSocket")
    gateway.add_argument("--host", default="127.0.0.1",
                         help="bind address (default loopback)")
    gateway.add_argument("--port", type=int, default=8790,
                         help="bind port (default 8790; 0 = ephemeral)")
    gateway.add_argument(
        "--tenant", action="append", default=[], type=_tenant,
        metavar="NAME:TOKEN[:RATE[:BURST]]",
        help="register a tenant credential (repeatable)")
    gateway.add_argument(
        "--anonymous", action="store_true",
        help="allow unauthenticated requests (loopback demos only)")
    gateway.add_argument("--max-batch", type=int, default=32,
                         help="micro-batch flush size (default 32)")
    gateway.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="micro-batch flush deadline [ms]")
    gateway.add_argument(
        "--max-sessions", type=int, default=1024,
        help="LRU session cap for connect/disconnect churn "
             "(default 1024)")
    gateway.add_argument(
        "--idle-ttl-s", type=float, default=900.0,
        help="evict sensor sessions idle longer than this [s]")

    chaos = sub.add_parser(
        "chaos",
        help="run the serve campaign under an armed fault plan and "
             "report survival")
    chaos.add_argument("--seed", type=int, default=0,
                       help="plan seed (overrides a loaded plan's seed)")
    chaos.add_argument("--plan", default="",
                       help="fault plan JSON path (default: the "
                            "built-in serve plan)")
    chaos.add_argument("--sensors", type=int, default=4,
                       help="concurrent sensor streams (default 4)")
    chaos.add_argument("--requests", type=int, default=48,
                       help="samples per stream (default 48)")
    chaos.add_argument("--carrier", type=float, default=900e6)
    chaos.add_argument("--full", action="store_true",
                       help="full-resolution calibration (slower)")
    chaos.add_argument(
        "--gateway", action="store_true",
        help="route the campaign through a real loopback gateway "
             "socket instead of calling the service in-process")
    chaos.add_argument(
        "--output", default="benchmarks/results/BENCH_chaos.json",
        help="JSON survival report path")

    obs_report = sub.add_parser(
        "obs-report",
        help="summarize the manifest + instrument snapshot of a "
             "benchmark report")
    obs_report.add_argument(
        "--input", default="benchmarks/results/BENCH_chaos.json",
        help="stamped benchmark JSON (default BENCH_chaos.json)")
    obs_report.add_argument(
        "--prometheus", action="store_true",
        help="dump the snapshot in Prometheus text format instead")

    trace_cmd = sub.add_parser(
        "trace",
        help="inspect exported trace spans (waterfall per trace id)")
    trace_sub = trace_cmd.add_subparsers(dest="trace_action",
                                         required=True)
    trace_show = trace_sub.add_parser(
        "show", help="render one trace as a span waterfall")
    trace_show.add_argument(
        "trace_id", help="32-hex trace id (a unique prefix works)")
    trace_show.add_argument(
        "--input", default="trace-events.jsonl",
        help="span-event JSONL written via REPRO_TRACE_EXPORT "
             "(default trace-events.jsonl)")

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain the content-addressed artifact cache")
    cache.add_argument(
        "action", choices=["stats", "prune", "clear"],
        help="stats: per-namespace sizes; prune: age/size eviction; "
             "clear: remove everything")
    cache.add_argument(
        "--cache-dir", default="",
        help="cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)")
    cache.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: drop artifacts older than this many days")
    cache.add_argument(
        "--max-bytes", type=int, default=None,
        help="prune: evict oldest-first until the directory fits")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "power": _cmd_power,
    "calibrate": _cmd_calibrate,
    "read": _cmd_read,
    "demo": _cmd_demo,
    "gateway": _cmd_gateway,
    "chaos": _cmd_chaos,
    "obs-report": _cmd_obs_report,
    "trace": _cmd_trace,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.obs import configure_logging, enable_from_env

    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    enable_from_env()
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
