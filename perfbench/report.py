"""Metric catalogue and the arithmetic that turns runs into metrics.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions
``BENCHMARK.json`` lists; the self-tests hold the two in step.
"""

from __future__ import annotations

import statistics

import numpy as np

END_TO_END = (
    ("frames_per_s", "frames/s", "higher"),
    ("tick_p50_ms", "ms", "lower"),
    ("tick_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("manager.tick.self_s", "s", "lower"),
    ("manager.tick.incl_s", "s", "lower"),
    ("manager.predict_all.self_s", "s", "lower"),
    ("manager.restack_share", "share", "lower"),
    ("manager.served_share", "share", "higher"),
    ("online.observe.self_s", "s", "lower"),
    ("online.observe.incl_s", "s", "lower"),
    ("online.refreshes", "count", "lower"),
    ("segmentation.add_point.self_s", "s", "lower"),
    ("segmentation.add_point.calls", "count", "lower"),
    ("segmentation.vertices_per_sample", "ratio", "lower"),
    ("query.generate.self_s", "s", "lower"),
    ("matching.find.self_s", "s", "lower"),
    ("matching.find.incl_s", "s", "lower"),
    ("matching.find.rigid.calls", "count", "lower"),
    ("matching.find.rigid.incl_s", "s", "lower"),
    ("matching.find.normalized.calls", "count", "lower"),
    ("matching.find.normalized.incl_s", "s", "lower"),
    ("matching.find.warped.calls", "count", "lower"),
    ("matching.find.warped.incl_s", "s", "lower"),
    ("matching.ranked_per_generated", "ratio", "higher"),
    ("matching.matches_returned", "count", "lower"),
    ("index.lookup.self_s", "s", "lower"),
    ("index.lookup.calls", "count", "lower"),
    ("index.catch_up.incl_s", "s", "lower"),
    ("index.windows_indexed", "count", "lower"),
    ("similarity.kernel.self_s", "s", "lower"),
    ("similarity.kernel.rows", "count", "lower"),
    ("prediction.build_plan.self_s", "s", "lower"),
    ("prediction.build_plan.incl_s", "s", "lower"),
    ("prediction.build_plan.calls", "count", "lower"),
    ("prediction.plan_matches", "count", "lower"),
    ("prediction.plan_serve.incl_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.commit.self_s", "s", "lower"),
    ("store.compact_s", "s", "lower"),
    ("store.bytes_written_per_vertex", "B/vertex", "lower"),
    ("sharding.tick.incl_s", "s", "lower"),
    ("sharding.predict.incl_s", "s", "lower"),
    ("sharding.merge.self_s", "s", "lower"),
    ("sharding.codec.self_s", "s", "lower"),
    ("sharding.coordinator.self_s", "s", "lower"),
    ("sharding.worker_busy_s", "s", "lower"),
    ("sharding.worker_skew", "ratio", "lower"),
    ("sharding.scatter_finds", "count", "lower"),
    ("sharding.series_shipped", "count", "lower"),
    ("sharding.foreign_matches", "count", "lower"),
    ("sharding.recoveries", "count", "lower"),
    ("sharding.vs_single_process", "ratio", "higher"),
    ("tick_error_rate", "share", "lower"),
    ("unattributed_share", "share", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

MODES = ("rigid", "normalized", "warped")


def percentile_summary(latencies: np.ndarray) -> dict:
    """Median and p99 tick latency with the sample count beyond each."""
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))
    return {
        "ticks": int(len(latencies)),
        "p50_s": p50,
        "p99_s": p99,
        "beyond_p50": int((latencies > p50).sum()),
        "beyond_p99": int((latencies > p99).sum()),
    }


def with_units(values: dict, catalogue) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in catalogue
    }


class RegistryDelta:
    """Counter and histogram totals accrued between two registry snapshots."""

    def __init__(self, end, start) -> None:
        self.end, self.start = end, start

    def counter(self, name: str) -> float:
        return self.end.counter(name) - self.start.counter(name)

    def hist_total(self, name: str) -> float:
        def total(snapshot) -> float:
            histogram = snapshot.histograms.get(name)
            return histogram.total if histogram is not None else 0.0

        return total(self.end) - total(self.start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    table,
    recorder_counts: dict,
    registry,
    traced,
    untraced,
    n_tenants: int,
    open_s: float,
    failed: int,
    worker_mode: str | None = None,
    reference_wall_s: float | None = None,
) -> dict:
    """Every per-layer metric of one traced pass.

    ``table`` holds the benchmark's own spans (this process only) and
    ``registry`` (a :class:`RegistryDelta`) the program's telemetry over
    the same ticks; for a sharded run that is the workers' folded
    registry plus the coordinator's, and ``worker_mode`` names the mode
    the workers serve.
    """
    counter = registry.counter
    hist_total = registry.hist_total

    def calls(prefix: str, counter_name: str) -> float:
        return table.calls(prefix) or counter(counter_name)

    def incl(prefix: str, histogram_name: str) -> float:
        return table.incl_s(prefix) or hist_total(histogram_name)

    wall = traced.wall_s
    samples = counter("segmenter.points")
    generated = counter("matcher.candidates_generated")
    plan_calls = table.calls("prediction.build_plan")
    v = {
        "manager.tick.self_s": table.self_s("manager.tick"),
        "manager.tick.incl_s": incl("manager.tick", "service.tick_s"),
        "manager.predict_all.self_s": table.self_s("manager.predict_all"),
        "manager.restack_share": table.share_with_child(
            "manager.predict_all", "prediction.build_plan"
        ),
        "manager.served_share": _ratio(
            traced.served, traced.n_ticks * n_tenants
        ),
        "online.observe.self_s": table.self_s("online.observe"),
        "online.observe.incl_s": incl("online.observe", "session.observe_s"),
        "online.refreshes": counter("session.query_refreshes"),
        "segmentation.add_point.self_s": table.self_s(
            "segmentation.add_point"
        ),
        "segmentation.add_point.calls": calls(
            "segmentation.add_point", "segmenter.points"
        ),
        "segmentation.vertices_per_sample": _ratio(
            counter("segmenter.vertices"), samples
        ),
        "query.generate.self_s": table.self_s("query.generate"),
        "matching.find.self_s": table.self_s("matching.find"),
        "matching.find.incl_s": incl("matching.find", "matcher.find_s"),
        "matching.ranked_per_generated": _ratio(
            counter("matcher.candidates_ranked"), generated
        ),
        "matching.matches_returned": counter("matcher.matches_returned"),
        "index.lookup.self_s": table.self_s("index.lookup"),
        "index.lookup.calls": calls("index.lookup", "index.lookups"),
        "index.catch_up.incl_s": hist_total("index.catch_up_s"),
        "index.windows_indexed": counter("index.windows_indexed"),
        "similarity.kernel.self_s": table.self_s("similarity.kernel"),
        "similarity.kernel.rows": recorder_counts.get(
            "similarity.kernel.rows",
            generated - counter("matcher.candidates_pruned"),
        ),
        "prediction.build_plan.self_s": table.self_s("prediction.build_plan"),
        "prediction.build_plan.incl_s": incl(
            "prediction.build_plan", "prediction.plan_build_s"
        ),
        "prediction.build_plan.calls": calls(
            "prediction.build_plan", "prediction.plan_builds"
        ),
        "prediction.plan_matches": _ratio(
            recorder_counts.get("prediction.plan_matches", 0.0), plan_calls
        ),
        "prediction.plan_serve.incl_s": hist_total("prediction.plan_serve_s"),
        "store.open_s": open_s,
        "store.commit.self_s": table.self_s("store.commit"),
        "store.compact_s": table.incl_s("store.compact"),
        "store.bytes_written_per_vertex": _ratio(
            traced.written_bytes, traced.committed_vertices
        ),
        "sharding.tick.incl_s": table.incl_s("sharding.tick"),
        "sharding.predict.incl_s": table.incl_s("sharding.predict"),
        "sharding.merge.self_s": table.self_s("sharding.merge"),
        "sharding.codec.self_s": table.self_s("sharding.codec"),
        "sharding.coordinator.self_s": table.self_s("sharding.tick")
        + table.self_s("sharding.predict"),
        "sharding.worker_busy_s": sum(traced.worker_cpu_s),
        "sharding.worker_skew": _ratio(
            max(traced.worker_cpu_s, default=0.0),
            statistics.fmean(traced.worker_cpu_s)
            if traced.worker_cpu_s
            else 0.0,
        ),
        "sharding.scatter_finds": counter("router.scatter_finds"),
        "sharding.series_shipped": counter("router.series_shipped"),
        "sharding.foreign_matches": counter("router.foreign_matches"),
        "sharding.recoveries": counter("router.recoveries"),
        "sharding.vs_single_process": (
            _ratio(reference_wall_s, untraced.wall_s)
            if reference_wall_s is not None
            else 0.0
        ),
        "tick_error_rate": _ratio(failed, traced.n_ticks),
        "unattributed_share": 1.0 - _ratio(table.total_self_s(), wall),
        "trace_overhead": _ratio(wall, untraced.wall_s),
    }
    for mode in MODES:
        prefix = f"matching.find.{mode}"
        if worker_mode is None:
            v[f"{prefix}.calls"] = table.calls(prefix)
            v[f"{prefix}.incl_s"] = table.incl_s(prefix)
        elif mode == worker_mode:
            v[f"{prefix}.calls"] = counter("matcher.queries")
            v[f"{prefix}.incl_s"] = hist_total("matcher.find_s")
        else:
            v[f"{prefix}.calls"] = 0.0
            v[f"{prefix}.incl_s"] = 0.0
    return with_units(v, PER_LAYER)
