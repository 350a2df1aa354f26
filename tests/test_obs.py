"""Telemetry-verified tests for the observability layer.

Unit coverage of the registry / tracer / facade / expositions, plus the
two contracts the tentpole rests on:

* **oracle-exact counts** — the matcher's candidate counters are checked
  against naive bookkeeping derived from the frozen reference
  implementations in :mod:`repro.testing.oracle`, not against the
  engine's own numbers;
* **enabled/disabled identity** — running a full online session with
  telemetry on produces byte-identical matches and predictions to
  running it with telemetry off.
"""

import copy
import json
import math

import numpy as np
import pytest

from repro.core.matching import SubsequenceMatcher
from repro.core.model import BreathingState
from repro.core.online import OnlineAnalysisSession, OnlineSessionConfig
from repro.core.segmentation import OnlineSegmenter
from repro.database.store import MotionDatabase
from repro.events import EventBus, decode_value, encode_value
from repro.obs import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistrySnapshot,
    TELEMETRY_ENV_VAR,
    Telemetry,
    Tracer,
    default_telemetry,
    render_text,
    snapshot_payload,
)
from repro.testing.oracle import reference_matches

from conftest import make_series
from tests_support import clean_cycles

LATENCY = 0.2


# -- instruments ---------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(4)
        g.add(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_le_bucket_semantics(self):
        h = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for v in (1.0, 1.5, 2.0, 7.0):  # on-bound values land *in* the bucket
            h.observe(v)
        assert h.counts == [1, 2, 0, 1]
        assert h.count == 4
        assert h.total == 11.5
        assert h.vmin == 1.0 and h.vmax == 7.0

    def test_bounds_must_be_increasing_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_quantile_reports_bucket_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0, 2.0, 5.0))
        for v in (0.5, 0.5, 1.5, 4.0):
            h.observe(v)
        s = reg.snapshot().histograms["h"]
        assert s.quantile(0.0) == 1.0
        assert s.quantile(0.5) == 1.0
        assert s.quantile(0.75) == 2.0
        assert s.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            s.quantile(1.5)

    def test_overflow_bucket_quantile_is_exact_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", bounds=(1.0,))
        h.observe(3.0)
        h.observe(9.0)
        s = reg.snapshot().histograms["h"]
        assert s.quantile(1.0) == 9.0

    def test_empty_snapshot_stats_are_nan(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        s = reg.snapshot().histograms["h"]
        assert math.isnan(s.mean) and math.isnan(s.quantile(0.5))

    def test_merge_requires_identical_bounds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", bounds=(1.0, 2.0))
        b.histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.snapshot().histograms["h"].merge(b.snapshot().histograms["h"])

    def test_merge_is_bucket_wise(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        ha = a.histogram("h", bounds=(1.0, 2.0))
        hb = b.histogram("h", bounds=(1.0, 2.0))
        ha.observe(0.5)
        hb.observe(1.5)
        hb.observe(9.0)
        merged = a.snapshot().histograms["h"].merge(b.snapshot().histograms["h"])
        assert merged.counts == (1, 1, 1)
        assert merged.count == 3
        assert merged.total == 11.0
        assert merged.vmin == 0.5 and merged.vmax == 9.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.histogram("a")

    def test_histogram_bounds_collision_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_one_shot_conveniences(self):
        reg = MetricsRegistry()
        reg.inc("c", 2.0)
        reg.set_gauge("g", 7.0)
        reg.observe("h", 0.01)
        snap = reg.snapshot()
        assert snap.counters["c"] == 2.0
        assert snap.gauges["g"] == 7.0
        assert snap.histograms["h"].count == 1

    def test_snapshot_is_immutable_copy(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        snap = reg.snapshot()
        c.inc(10)
        assert snap.counters["c"] == 1.0  # value frozen at snapshot time
        with pytest.raises(TypeError):
            snap.counters["c"] = 99.0

    def test_snapshot_merge_sums(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("shared", 1.0)
        b.inc("shared", 2.0)
        b.inc("only_b", 5.0)
        a.set_gauge("g", 3.0)
        b.set_gauge("g", 4.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters == {"shared": 3.0, "only_b": 5.0}
        assert merged.gauges == {"g": 7.0}

    def test_empty_is_merge_identity(self):
        reg = MetricsRegistry()
        reg.inc("c", 3.0)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        left = RegistrySnapshot.empty().merge(snap)
        right = snap.merge(RegistrySnapshot.empty())
        assert left.counters == snap.counters == right.counters
        assert left.histograms["h"].counts == snap.histograms["h"].counts

    def test_counter_getter_defaults_to_zero(self):
        assert RegistrySnapshot.empty().counter("missing") == 0.0


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_nesting_records_parent(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current == "outer"
            with tracer.span("inner"):
                assert tracer.current == "inner"
        with tracer.span("outer"):
            pass
        stats = {(s.name, s.parent): s for s in tracer.snapshot()}
        assert stats[("outer", None)].count == 2
        assert stats[("inner", "outer")].count == 1

    def test_span_times_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("s"):
                pass
        (s,) = tracer.snapshot()
        assert s.count == 3
        assert 0.0 <= s.max_wall_s <= s.wall_s

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.current is None
        (s,) = tracer.snapshot()
        assert s.count == 1  # the failed span is still recorded

    def test_snapshot_order_is_deterministic(self):
        tracer = Tracer()
        with tracer.span("b"):
            pass
        with tracer.span("a"):
            pass
        names = [s.name for s in tracer.snapshot()]
        assert names == sorted(names)


# -- facade --------------------------------------------------------------------


class TestTelemetry:
    def test_scoped_children_are_cached(self):
        t = Telemetry()
        a = t.scoped("PA/LIVE")
        assert t.scoped("PA/LIVE") is a
        assert a.registry is not t.registry
        assert a.tracer is t.tracer  # spans nest across the tree
        assert t.scope_names == ("PA/LIVE",)

    def test_snapshot_carries_scopes_and_merged(self):
        t = Telemetry()
        t.inc("service.ticks", 2.0)
        t.scoped("A").inc("session.samples", 10.0)
        t.scoped("B").inc("session.samples", 5.0)
        snap = t.snapshot(time=1.5)
        assert snap.time == 1.5
        assert set(snap.scopes) == {"A", "B"}
        assert snap.merged.counter("session.samples") == 15.0
        assert snap.merged.counter("service.ticks") == 2.0

    def test_publish_emits_bus_event(self):
        bus = EventBus()
        t = Telemetry(events=bus)
        got = []
        bus.subscribe("telemetry_snapshot", got.append)
        snap = t.publish(now=3.0)
        assert len(got) == 1 and got[0]["snapshot"] is snap

    def test_maybe_publish_respects_interval(self):
        bus = EventBus()
        t = Telemetry(events=bus, snapshot_interval=5.0)
        got = []
        bus.subscribe("telemetry_snapshot", got.append)
        assert t.maybe_publish(0.0) is not None  # first call: baseline
        assert t.maybe_publish(4.9) is None
        assert t.maybe_publish(5.0) is not None
        assert len(got) == 2

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            Telemetry(snapshot_interval=0.0)

    def test_default_telemetry_env_gate(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        assert default_telemetry() is None
        for off in ("", "0", "no", "off", "false"):
            monkeypatch.setenv(TELEMETRY_ENV_VAR, off)
            assert default_telemetry() is None
        for on in ("1", "true", "YES", " on "):
            monkeypatch.setenv(TELEMETRY_ENV_VAR, on)
            t = default_telemetry()
            assert isinstance(t, Telemetry)


# -- exposition ----------------------------------------------------------------


def _sample_snapshot():
    t = Telemetry()
    t.inc("matcher.queries", 3.0)
    t.set_gauge("service.live_sessions", 2.0)
    t.observe("matcher.find_s", 0.002)
    t.observe("service.tick_samples", 3.0, bounds=DEFAULT_COUNT_BUCKETS)
    t.registry.histogram("empty_s")
    t.scoped("PA/LIVE").inc("session.samples", 7.0)
    with t.span("service.tick"):
        with t.span("matcher.find"):
            pass
    return t.snapshot(time=12.0)


class TestExposition:
    def test_payload_is_json_serialisable(self):
        payload = snapshot_payload(_sample_snapshot())
        text = json.dumps(payload)  # must not raise (no inf/nan leaks)
        again = json.loads(text)
        assert again["format"] == "repro.telemetry/v1"
        assert again["registry"]["counters"]["matcher.queries"] == 3.0
        assert again["scopes"]["PA/LIVE"]["counters"]["session.samples"] == 7.0
        assert again["merged"]["counters"]["session.samples"] == 7.0
        h = again["registry"]["histograms"]["matcher.find_s"]
        assert h["count"] == 1 and h["mean"] == pytest.approx(0.002)
        empty = again["registry"]["histograms"]["empty_s"]
        assert empty["mean"] is None and empty["min"] is None

    def test_payload_span_tree(self):
        payload = snapshot_payload(_sample_snapshot())
        spans = {(s["name"], s["parent"]) for s in payload["spans"]}
        assert ("service.tick", None) in spans
        assert ("matcher.find", "service.tick") in spans

    def test_render_text_mentions_every_instrument(self):
        text = render_text(_sample_snapshot())
        for needle in (
            "matcher.queries",
            "service.live_sessions",
            "matcher.find_s",
            "(empty)",
            "[scope PA/LIVE]",
            "session.samples",
            "matcher.find < service.tick",
            "t=12.000s",
        ):
            assert needle in text, needle

    def test_render_text_units(self):
        text = render_text(_sample_snapshot())
        # Latency histograms (*_s) render with time units, size
        # histograms as plain numbers.
        find_line = next(l for l in text.splitlines() if "matcher.find_s" in l)
        assert "ms" in find_line or "us" in find_line
        tick_line = next(
            l for l in text.splitlines() if "service.tick_samples" in l
        )
        assert "mean=3" in tick_line and "3s" not in tick_line

    def test_render_text_ad_hoc_time(self):
        assert "ad-hoc" in render_text(Telemetry().snapshot())


# -- oracle-exact pipeline counters --------------------------------------------


def _census(db, query, query_stream_id):
    """Naive bookkeeping mirroring the reference matcher's walk.

    Returns (generated, admissible): same-signature windows in the
    database, and those surviving the own-stream overlap exclusion.
    """
    m = query.n_vertices
    signature = query.state_signature
    generated = admissible = 0
    for record in db.iter_streams():
        series = record.series
        for start in range(len(series) - m + 1):
            window = series.subsequence(start, start + m)
            if window.state_signature != signature:
                continue
            generated += 1
            if (
                record.stream_id == query_stream_id
                and start < query.stop
                and start + m > query.start
            ):
                continue
            admissible += 1
    return generated, admissible


@pytest.fixture
def census_db():
    db = MotionDatabase()
    db.add_patient("PA")
    db.add_patient("PB")
    db.add_stream("PA", "S0", series=make_series(cycles=4))
    db.add_stream("PA", "S1", series=make_series(cycles=3, amplitude=12.0))
    db.add_stream(
        "PB", "S0", series=make_series(cycles=4, amplitude=8.0, period=2.5)
    )
    return db


class TestOracleExactCounts:
    THRESHOLD = 2.0

    def _run(self, db, use_index=True, max_matches=None, threshold=None):
        telemetry = Telemetry()
        matcher = SubsequenceMatcher(
            db, use_index=use_index, telemetry=telemetry
        )
        series = db.stream("PA/S0").series
        query = series.subsequence(3, 7)
        matches = matcher.find_matches(
            query,
            "PA/S0",
            threshold=self.THRESHOLD if threshold is None else threshold,
            max_matches=max_matches,
        )
        return query, matches, telemetry.registry.snapshot()

    @pytest.mark.parametrize("use_index", [True, False])
    def test_counters_match_naive_bookkeeping(self, census_db, use_index):
        query, matches, snap = self._run(census_db, use_index=use_index)
        generated, admissible = _census(census_db, query, "PA/S0")
        ref = reference_matches(
            census_db, query, "PA/S0", threshold=self.THRESHOLD
        )
        assert ref, "vacuous census fixture"
        assert snap.counter("matcher.queries") == 1
        assert snap.counter("matcher.candidates_generated") == generated
        assert snap.counter("matcher.candidates_pruned") == (
            generated - admissible
        )
        assert snap.counter("matcher.candidates_ranked") == len(ref)
        assert snap.counter("matcher.matches_returned") == len(matches)
        assert len(matches) == len(ref)
        assert [(m.stream_id, m.start) for m in matches] == [
            (m.stream_id, m.start) for m in ref
        ]

    def test_truncation_counts_ranked_not_returned(self, census_db):
        query, matches, snap = self._run(
            census_db, max_matches=2, threshold=math.inf
        )
        ref = reference_matches(
            census_db, query, "PA/S0", threshold=math.inf
        )
        assert len(ref) > 2, "vacuous truncation fixture"
        assert len(matches) == 2
        assert snap.counter("matcher.candidates_ranked") == len(ref)
        assert snap.counter("matcher.matches_returned") == 2

    def test_find_span_and_latency_recorded(self, census_db):
        _, _, snap = self._run(census_db)
        assert snap.histograms["matcher.find_s"].count == 1


class TestIndexCounters:
    def test_lookup_catchup_and_hit_miss(self, census_db):
        telemetry = Telemetry()
        matcher = SubsequenceMatcher(census_db, telemetry=telemetry)
        series = census_db.stream("PA/S0").series
        query = series.subsequence(3, 7)

        matcher.find_matches(query, "PA/S0", threshold=math.inf)
        snap = telemetry.registry.snapshot()
        total_windows = sum(
            len(r.series) - query.n_vertices + 1
            for r in census_db.iter_streams()
        )
        assert snap.counter("index.lookups") == 1
        assert snap.counter("index.hits") == 1
        assert snap.counter("index.windows_indexed") == total_windows
        assert snap.histograms["index.catch_up_windows"].count >= 1
        assert snap.histograms["index.catch_up_s"].count >= 1
        assert snap.gauges["index.postings"] > 0

        # Second identical lookup: no new windows, one more hit.
        matcher.find_matches(query, "PA/S0", threshold=math.inf)
        snap = telemetry.registry.snapshot()
        assert snap.counter("index.lookups") == 2
        assert snap.counter("index.hits") == 2
        assert snap.counter("index.windows_indexed") == total_windows

    def test_unknown_signature_is_a_miss(self, census_db):
        from repro.core.model import PLRSeries, Vertex

        telemetry = Telemetry()
        matcher = SubsequenceMatcher(census_db, telemetry=telemetry)
        # An all-IRR signature never occurs in the census streams.
        odd = PLRSeries()
        for k in range(4):
            odd.append(Vertex(float(k), (0.0,), BreathingState.IRR))
        query = odd.subsequence(0, 4)
        assert matcher.find_matches(query, None, threshold=math.inf) == []
        snap = telemetry.registry.snapshot()
        assert snap.counter("index.misses") == 1
        assert snap.counter("index.hits") == 0


# -- segmenter counters --------------------------------------------------------


class TestSegmenterCounters:
    def test_counts_match_series_bookkeeping(self):
        t, x = clean_cycles(n_cycles=6)
        amends = []
        telemetry = Telemetry()
        seg = OnlineSegmenter(on_amend=amends.append, telemetry=telemetry)
        for ti, xi in zip(t, x):
            seg.add_point(float(ti), float(xi))
        seg.finish()
        snap = telemetry.registry.snapshot()
        assert snap.counter("segmenter.points") == len(t)
        assert snap.counter("segmenter.vertices") == len(seg.series)
        assert snap.counter("segmenter.amends") == len(amends)
        state_total = sum(
            snap.counter(f"segmenter.state.{s.name.lower()}")
            for s in BreathingState
        )
        assert state_total == snap.counter("segmenter.vertices")
        assert len(seg.series) > 0  # non-vacuous

    def test_disabled_segmenter_has_no_registry_footprint(self):
        t, x = clean_cycles(n_cycles=2)
        seg = OnlineSegmenter()  # telemetry=None
        for ti, xi in zip(t, x):
            seg.add_point(float(ti), float(xi))
        assert seg._t is None


# -- database write counters ---------------------------------------------------


class TestDatabaseCounters:
    def test_attempted_write_counters(self):
        telemetry = Telemetry()
        db = MotionDatabase(telemetry=telemetry)
        db.add_patient("PA")
        db.add_stream("PA", "LIVE")
        vertices = list(make_series(1))[:3]
        db.commit_vertices("PA/LIVE", iter(vertices))  # iterator input
        db.commit_vertices("PA/LIVE", vertices[:2])
        db.amend_vertex("PA/LIVE", vertices[0])
        snap = telemetry.registry.snapshot()
        assert snap.counter("backend.commit_batches") == 2
        assert snap.counter("backend.committed_vertices") == 5
        assert snap.counter("backend.amended_vertices") == 1

    def test_telemetry_settable_after_construction(self):
        db = MotionDatabase()
        assert db.telemetry is None
        telemetry = Telemetry()
        db.telemetry = telemetry
        db.add_patient("PA")
        db.add_stream("PA", "LIVE")
        db.commit_vertices("PA/LIVE", list(make_series(1))[:2])
        assert telemetry.registry.snapshot().counter(
            "backend.commit_batches"
        ) == 1


# -- enabled vs. disabled byte-identity ----------------------------------------


def _session_trace(db, raw, telemetry):
    session = OnlineAnalysisSession(
        db,
        raw.patient_id,
        "OBS",
        config=OnlineSessionConfig(),
        telemetry=telemetry,
    )
    predictions = []
    for t, position in raw.iter_points():
        session.observe(t, position)
        predictions.append(session.predict_ahead(LATENCY))
    matches = [(m.stream_id, m.start, m.distance) for m in session.matches]
    session.finish(keep_stream=False)
    return predictions, matches


class TestEnabledDisabledIdentity:
    @pytest.fixture(scope="class")
    def identity_traces(self, small_cohort):
        profile = small_cohort.profiles[0]
        from repro.signals.respiratory import RespiratorySimulator, SessionConfig

        raw = RespiratorySimulator(
            profile, SessionConfig(duration=20.0)
        ).generate_session(9, seed=41)
        telemetry = Telemetry()
        enabled = _session_trace(
            copy.deepcopy(small_cohort.db), raw, telemetry
        )
        # Force the disabled leg even when the suite runs under
        # REPRO_TELEMETRY=1 (the CI observability job).
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(TELEMETRY_ENV_VAR, raising=False)
            disabled = _session_trace(
                copy.deepcopy(small_cohort.db), raw, None
            )
        return raw, enabled, disabled, telemetry

    def test_predictions_byte_identical(self, identity_traces):
        raw, enabled, disabled, _ = identity_traces
        assert len(enabled[0]) == len(disabled[0])
        served = 0
        for a, b in zip(enabled[0], disabled[0]):
            if a is None or b is None:
                assert a is None and b is None
            else:
                np.testing.assert_array_equal(a, b)  # same bytes, not close
                served += 1
        assert served > 0  # non-vacuous

    def test_matches_byte_identical(self, identity_traces):
        _, enabled, disabled, _ = identity_traces
        assert enabled[1] == disabled[1]
        assert enabled[1], "session never matched"

    def test_enabled_run_actually_counted(self, identity_traces):
        raw, _, _, telemetry = identity_traces
        snap = telemetry.registry.snapshot()
        assert snap.counter("session.samples") == len(raw.times)
        assert snap.counter("session.predictions_served") > 0
        assert snap.histograms["session.observe_s"].count == len(raw.times)


# -- cross-process registry decode + fleet merge -------------------------------


class TestCrossProcessRegistries:
    """Shard workers report telemetry snapshots through the value codec;
    the coordinator decodes them with :func:`decode_value` and folds
    shards into one fleet view.  Counters and histogram buckets are
    exact (integer counts, sums of repr-round-tripped floats), so the
    merged fleet numbers must equal a single-process registry's."""

    def test_payload_decode_inverts_encoding(self):
        merged = _sample_snapshot().merged
        wire = json.loads(json.dumps(encode_value(_sample_snapshot())))
        decoded = decode_value(wire).merged
        assert decoded.counters == merged.counters
        assert decoded.gauges == merged.gauges
        assert set(decoded.histograms) == set(merged.histograms)
        for name, hist in merged.histograms.items():
            got = decoded.histograms[name]
            assert got.bounds == hist.bounds
            assert got.counts == hist.counts
            assert got.total == hist.total and got.count == hist.count
            # Empty histograms restore the +-inf merge identities.
            assert got.vmin == hist.vmin and got.vmax == hist.vmax

    def test_fleet_merge_over_wire_is_exact(self):
        # Three "workers" with known per-shard counts.
        workers = []
        for shard, n in enumerate((3, 5, 7)):
            telemetry = Telemetry()
            telemetry.inc("shard.rpcs", float(n))
            telemetry.inc(f"shard.only_{shard}", 1.0)
            for k in range(n):
                telemetry.observe("service.tick_s", 0.001 * (k + 1))
            workers.append(telemetry.snapshot())

        live = RegistrySnapshot.empty()
        over_wire = RegistrySnapshot.empty()
        for snap in workers:
            live = live.merge(snap.merged)
            payload = json.loads(json.dumps(encode_value(snap)))
            over_wire = over_wire.merge(decode_value(payload).merged)

        # Exact-count oracle: the fleet view equals the arithmetic sum.
        assert over_wire.counter("shard.rpcs") == 3 + 5 + 7
        for shard in range(3):
            assert over_wire.counter(f"shard.only_{shard}") == 1.0
        hist = over_wire.histograms["service.tick_s"]
        assert hist.count == 3 + 5 + 7
        # And the wire adds nothing: identical to merging live snapshots.
        assert over_wire.counters == live.counters
        assert over_wire.gauges == live.gauges
        for name, reference in live.histograms.items():
            got = over_wire.histograms[name]
            assert got.counts == reference.counts
            assert got.total == reference.total
            assert got.vmin == reference.vmin and got.vmax == reference.vmax
