"""Render telemetry snapshots for humans (text) and machines (JSON).

Both expositions consume the same :class:`~repro.obs.telemetry.
TelemetrySnapshot` stream that the event bus, the ``repro metrics`` CLI
command and ``benchmarks/bench_observability.py`` share — one producer,
many consumers.
"""

from __future__ import annotations

import math

from .metrics import HistogramSnapshot, RegistrySnapshot
from .telemetry import TelemetrySnapshot

__all__ = [
    "render_text",
    "snapshot_payload",
]


def _finite(value: float) -> float | None:
    return None if not math.isfinite(value) else value


def _histogram_payload(snap: HistogramSnapshot) -> dict:
    return {
        "bounds": list(snap.bounds),
        "counts": list(snap.counts),
        "total": snap.total,
        "count": snap.count,
        "min": _finite(snap.vmin),
        "max": _finite(snap.vmax),
        "mean": None if snap.count == 0 else snap.mean,
        "p50": None if snap.count == 0 else snap.quantile(0.5),
        "p95": None if snap.count == 0 else snap.quantile(0.95),
    }


def _registry_payload(registry: RegistrySnapshot) -> dict:
    return {
        "counters": dict(sorted(registry.counters.items())),
        "gauges": dict(sorted(registry.gauges.items())),
        "histograms": {
            name: _histogram_payload(registry.histograms[name])
            for name in sorted(registry.histograms)
        },
    }


def snapshot_payload(snapshot: TelemetrySnapshot) -> dict:
    """A JSON-serialisable dict of one snapshot (stable key order)."""
    return {
        "format": "repro.telemetry/v1",
        "time": snapshot.time,
        "registry": _registry_payload(snapshot.registry),
        "scopes": {
            name: _registry_payload(snapshot.scopes[name])
            for name in sorted(snapshot.scopes)
        },
        "merged": _registry_payload(snapshot.merged),
        "spans": [
            {
                "name": span.name,
                "parent": span.parent,
                "count": span.count,
                "wall_s": span.wall_s,
                "cpu_s": span.cpu_s,
                "max_wall_s": span.max_wall_s,
            }
            for span in snapshot.spans
        ],
    }


def _format_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _render_registry(registry: RegistrySnapshot, lines: list[str], indent: str) -> None:
    for name in sorted(registry.counters):
        lines.append(f"{indent}counter    {name:<36} {registry.counters[name]:.0f}")
    for name in sorted(registry.gauges):
        lines.append(f"{indent}gauge      {name:<36} {registry.gauges[name]:g}")
    for name in sorted(registry.histograms):
        h = registry.histograms[name]
        if h.count == 0:
            lines.append(f"{indent}histogram  {name:<36} (empty)")
            continue
        # Latency histograms follow the `*_s` naming convention; size
        # histograms (windows, samples) render as plain numbers.
        fmt = _format_seconds if name.endswith("_s") else "{:g}".format
        lines.append(
            f"{indent}histogram  {name:<36} count={h.count} "
            f"mean={fmt(h.mean)} "
            f"p50={fmt(h.quantile(0.5))} "
            f"p95={fmt(h.quantile(0.95))} "
            f"max={fmt(h.vmax)}"
        )


def render_text(snapshot: TelemetrySnapshot) -> str:
    """A human-readable exposition of one snapshot."""
    when = "ad-hoc" if snapshot.time is None else f"t={snapshot.time:.3f}s"
    lines = [f"# telemetry snapshot ({when})"]
    _render_registry(snapshot.registry, lines, "")
    for scope in sorted(snapshot.scopes):
        lines.append(f"[scope {scope}]")
        _render_registry(snapshot.scopes[scope], lines, "  ")
    if snapshot.spans:
        lines.append("# spans (name < parent)")
        for span in snapshot.spans:
            parent = f" < {span.parent}" if span.parent else ""
            lines.append(
                f"span       {span.name + parent:<36} count={span.count} "
                f"wall={_format_seconds(span.wall_s)} "
                f"cpu={_format_seconds(span.cpu_s)} "
                f"max={_format_seconds(span.max_wall_s)}"
            )
    return "\n".join(lines)
