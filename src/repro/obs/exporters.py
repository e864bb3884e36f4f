"""Exporter: a registry snapshot in the Prometheus text format.

:func:`to_prometheus` renders counters, gauges, and histograms (with
cumulative ``le`` buckets), so a scrape endpoint or pushgateway hook
needs no extra dependencies.
"""

from __future__ import annotations

import re

from repro.obs.registry import Registry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str) -> str:
    """``serve.queue_seconds`` -> ``repro_serve_queue_seconds``."""
    sanitized = _NAME_RE.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _format_value(value: float) -> str:
    """Prometheus sample value: integers stay integral."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def to_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot in Prometheus text format.

    Accepts either a :meth:`Registry.snapshot` dict or a live
    :class:`Registry`.  Histograms become the standard cumulative
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    """
    if isinstance(snapshot, Registry):
        snapshot = snapshot.snapshot()
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} '
                f"{cumulative}")
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {payload["count"]}')
        lines.append(f"{metric}_sum {_format_value(payload['sum'])}")
        lines.append(f"{metric}_count {payload['count']}")
    return "\n".join(lines) + "\n" if lines else ""
