"""Tests for the synchronous event bus."""

import copy
import gc

import pytest

from repro.events import Event, EventBus


class TestEvent:
    def test_getitem_and_get(self):
        event = Event("kind", {"a": 1})
        assert event["a"] == 1
        assert event.get("a") == 1
        assert event.get("b") is None
        assert event.get("b", 7) == 7

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            Event("kind", {})["a"]


class TestEventBus:
    def test_publish_without_subscribers_returns_none(self):
        bus = EventBus()
        assert bus.publish("quiet", x=1) is None

    def test_delivery_carries_payload(self):
        bus = EventBus()
        seen = []
        bus.subscribe("tick", seen.append)
        event = bus.publish("tick", n=3)
        assert event is not None and event["n"] == 3
        assert len(seen) == 1 and seen[0]["n"] == 3

    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("tick", lambda e: order.append("first"))
        bus.subscribe("tick", lambda e: order.append("second"))
        bus.publish("tick")
        assert order == ["first", "second"]

    def test_kinds_are_isolated(self):
        bus = EventBus()
        seen = []
        bus.subscribe("a", seen.append)
        bus.publish("b", x=1)
        assert seen == []

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        callback = bus.subscribe("tick", seen.append)
        bus.unsubscribe("tick", callback)
        bus.publish("tick")
        assert seen == []
        assert not bus.has_subscribers("tick")

    def test_has_subscribers(self):
        bus = EventBus()
        assert not bus.has_subscribers("tick")
        bus.subscribe("tick", lambda e: None)
        assert bus.has_subscribers("tick")

    def test_subscriber_exception_propagates(self):
        # Crash semantics: a raising subscriber (e.g. a chaos fault in a
        # vertex-log write) must surface through the publishing call.
        bus = EventBus()

        def boom(event):
            raise RuntimeError("torn write")

        bus.subscribe("commit", boom)
        with pytest.raises(RuntimeError):
            bus.publish("commit")

    def test_weak_subscription_dies_with_subscriber(self):
        bus = EventBus()

        class Listener:
            def __init__(self):
                self.seen = []

            def on_event(self, event):
                self.seen.append(event)

        listener = Listener()
        bus.subscribe("tick", listener.on_event, weak=True)
        bus.publish("tick")
        assert len(listener.seen) == 1
        del listener
        gc.collect()
        # The dead entry is pruned on the next publish.
        assert bus.publish("tick") is not None
        bus.publish("tick")

    def test_weak_unsubscribe(self):
        bus = EventBus()

        class Listener:
            def __init__(self):
                self.seen = []

            def on_event(self, event):
                self.seen.append(event)

        listener = Listener()
        bus.subscribe("tick", listener.on_event, weak=True)
        bus.unsubscribe("tick", listener.on_event)
        bus.publish("tick")
        assert listener.seen == []

    def test_deepcopy_yields_quiet_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe("tick", seen.append)
        clone = copy.deepcopy(bus)
        clone.publish("tick")
        assert seen == []
        assert not clone.has_subscribers("tick")


# -- envelope portability ------------------------------------------------------
#
# Every event kind the codebase publishes must survive the relay wire:
# encode_event -> JSON text -> decode_event, bit-exact.  The strategies
# below mirror each publisher's actual payload shape; a new published
# kind must be added to EVENT_PAYLOADS or the coverage test fails.

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Match, SourceRelation
from repro.core.model import BreathingState, Vertex
from repro.events import (
    UnknownTagError,
    decode_event,
    decode_value,
    encode_event,
    encode_value,
)
from repro.obs import Telemetry
from repro.obs.telemetry import TelemetrySnapshot

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_ids = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122),
    min_size=1,
    max_size=12,
)
_positions = st.one_of(
    st.tuples(_finite),
    st.tuples(_finite, _finite, _finite),
)
_vertices = st.builds(
    Vertex,
    time=_finite,
    position=_positions,
    state=st.sampled_from(list(BreathingState)),
)
_arrays = st.lists(_finite, min_size=1, max_size=5).map(
    lambda xs: np.asarray(xs, dtype=float)
)
_counts = st.integers(min_value=0, max_value=500)


@st.composite
def _telemetry_snapshots(draw):
    """A real snapshot cut from a telemetry tree driven at random."""
    telemetry = Telemetry()
    registry = telemetry.registry
    for name in draw(
        st.lists(st.sampled_from(["a.b", "c.d", "e.f"]), max_size=3)
    ):
        registry.counter(name).inc(draw(st.integers(1, 9)))
    for value in draw(st.lists(_finite, max_size=3)):
        registry.histogram("h.v").observe(value)
    registry.gauge("g.v").set(draw(_finite))
    return telemetry.snapshot()


EVENT_PAYLOADS = {
    "patient_added": st.fixed_dictionaries({"patient_id": _ids}),
    "stream_added": st.fixed_dictionaries(
        {"stream_id": _ids, "patient_id": _ids}
    ),
    "stream_removed": st.fixed_dictionaries(
        {"stream_id": _ids, "patient_id": _ids}
    ),
    "session_opened": st.fixed_dictionaries(
        {"stream_id": _ids, "patient_id": _ids}
    ),
    "session_closed": st.fixed_dictionaries({"stream_id": _ids}),
    "query_refreshed": st.fixed_dictionaries(
        {"stream_id": _ids, "n_vertices": _counts, "n_matches": _counts}
    ),
    "prediction_served": st.fixed_dictionaries(
        {
            "stream_id": _ids,
            "time": _finite,
            "horizon": _finite,
            "position": _arrays,
            "n_matches": _counts,
        }
    ),
    "alarm": st.fixed_dictionaries(
        {
            "stream_id": _ids,
            "time": _finite,
            "active": st.booleans(),
            "value": _finite,
        }
    ),
    "vertex_committed": st.fixed_dictionaries(
        {
            "stream_id": _ids,
            "vertices": st.lists(_vertices, min_size=1, max_size=4).map(
                tuple
            ),
        }
    ),
    "vertex_amended": st.fixed_dictionaries(
        {"stream_id": _ids, "vertex": _vertices}
    ),
    "backend_compacted": st.fixed_dictionaries(
        {
            "snapshot_id": _counts,
            "n_streams": _counts,
            "n_index_lengths": _counts,
            "segments_rotated": _counts,
            "segments_deleted": _counts,
        }
    ),
    "telemetry_snapshot": st.fixed_dictionaries(
        {"snapshot": _telemetry_snapshots()}
    ),
}

#: Kinds any src/repro module publishes (keep in sync with the grep
#: ``events.publish(`` call sites; the strategies above mirror each
#: publisher's payload shape).
PUBLISHED_KINDS = frozenset(EVENT_PAYLOADS)


def _values_equal(a, b) -> bool:
    """Deep bit-exact equality across the payload type vocabulary."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, TelemetrySnapshot) or isinstance(b, TelemetrySnapshot):
        # Composite snapshots compare through their canonical encoding.
        return type(a) is type(b) and encode_value(a) == encode_value(b)
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_values_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and set(a) == set(b)
            and all(_values_equal(v, b[k]) for k, v in a.items())
        )
    # bool/int/IntEnum confusion is a real wire hazard: require the
    # exact type back, not just ``==``.
    return type(a) is type(b) and a == b


class TestEventEnvelopePortability:
    def test_catalogue_matches_published_kinds(self):
        # Every publish() call site in src/repro is listed here; a new
        # kind must come with a payload strategy.
        assert PUBLISHED_KINDS == {
            "patient_added",
            "stream_added",
            "stream_removed",
            "session_opened",
            "session_closed",
            "query_refreshed",
            "prediction_served",
            "alarm",
            "vertex_committed",
            "vertex_amended",
            "backend_compacted",
            "telemetry_snapshot",
        }

    @pytest.mark.parametrize("kind", sorted(EVENT_PAYLOADS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact(self, kind, data):
        payload = data.draw(EVENT_PAYLOADS[kind])
        event = Event(kind, payload)
        envelope = encode_event(event)
        # The relay wire: envelope -> JSON text -> envelope.
        decoded = decode_event(json.loads(json.dumps(envelope)))
        assert decoded.kind == kind
        assert set(decoded.data) == set(event.data)
        for key, value in event.data.items():
            assert _values_equal(decoded.data[key], value), key

    @settings(max_examples=25, deadline=None)
    @given(
        matches=st.lists(
            st.builds(
                Match,
                stream_id=_ids,
                start=_counts,
                n_vertices=_counts,
                distance=_finite,
                relation=st.sampled_from(list(SourceRelation)),
            ),
            max_size=4,
        )
    )
    def test_match_lists_round_trip(self, matches):
        # Matches ride the scatter/gather wire, not the event bus, but
        # share the same value codec.
        wire = json.loads(json.dumps(encode_value(matches)))
        assert decode_value(wire) == matches

    def test_live_object_payloads_are_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_unknown_tag_raises_a_typed_value_error(self):
        envelope = {"kind": "alarm", "data": {"x": {"__repro__": "bogus"}}}
        with pytest.raises(UnknownTagError, match="bogus"):
            decode_event(envelope)
        assert issubclass(UnknownTagError, ValueError)
