"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np


def clean_cycles(n_cycles=8, period=4.0, amplitude=10.0, rate=30.0):
    """Noise-free raised-cosine breathing (IN 30%, EX 40%, EOE 30%)."""
    t = np.arange(int(n_cycles * period * rate)) / rate
    phase = (t % period) / period
    x = np.zeros_like(t)
    rise = phase < 0.3
    x[rise] = amplitude * 0.5 * (1 - np.cos(np.pi * phase[rise] / 0.3))
    fall = (phase >= 0.3) & (phase < 0.7)
    x[fall] = amplitude * 0.5 * (1 + np.cos(np.pi * (phase[fall] - 0.3) / 0.4))
    return t, x


def regroup_index_buffers(state, order):
    """One length's exported index buffers with the posting groups (keys
    and their row blocks) rearranged into ``order``: the creation-order
    layout older snapshot generations carry."""
    keys = np.asarray(state["group_keys"])
    offsets = np.asarray(state["group_offsets"])
    order = np.asarray(order, dtype=np.int64)
    rows = np.concatenate(
        [np.arange(offsets[g], offsets[g + 1]) for g in order]
        + [np.empty(0, dtype=np.int64)]
    )
    return {
        **state,
        "group_keys": keys[order],
        "group_offsets": np.concatenate(
            ([0], np.cumsum(np.diff(offsets)[order]))
        ).astype(np.int64),
        **{
            field: np.asarray(state[field])[rows]
            for field in ("stream_codes", "starts", "amplitudes", "durations")
        },
    }


# -- codec fuzzing -------------------------------------------------------------


def codec_samples() -> dict:
    """One real value per tag of the value codec (``repro.events``)."""
    from repro.core.matching import Match, QueryView
    from repro.core.model import BreathingState, PLRSeries
    from repro.core.similarity import SourceRelation
    from repro.events import Event
    from repro.obs import Telemetry

    series = PLRSeries.from_arrays(
        [0.0, 0.7, 1.6, 2.0, 2.9, 3.6, 4.4],
        [[0.0], [9.5], [10.0], [4.0], [0.5], [9.0], [10.5]],
        [2, 1, 0, 1, 2, 1, 0],
    )
    telemetry = Telemetry()
    telemetry.inc("a.b", 3.0)
    telemetry.observe("h.v", 0.002)
    with telemetry.tracer.span("s.t"):
        pass
    snapshot = telemetry.snapshot()
    return {
        "vertex": series[2],
        "match": Match("PA/S00", 3, 4, 0.25, SourceRelation.OTHER_PATIENT),
        "series": series,
        "query": QueryView.from_query(series.suffix(5)),
        "event": Event("alarm", {"stream_id": "PA/S00", "value": 0.5}),
        "nd": np.arange(6.0).reshape(2, 3),
        "hist": snapshot.registry.histograms["h.v"],
        "registry": snapshot.registry,
        "span": snapshot.spans[0],
        "telemetry": snapshot,
        "state": BreathingState.EOE,
        "relation": SourceRelation.SAME_PATIENT,
        "tuple": (1, "a", 2.5),
        "map": {1: "a", (2, 3): "b"},
    }


#: Per tag, one field replacement each that the decoder must refuse.
INVALID_FIELDS = {
    "vertex": [("t", float("nan")), ("s", 7), ("p", [])],
    "match": [("start", -1), ("n", 1.5), ("rel", "cousin"), ("d", "x")],
    "series": [
        ("times", [0.0, 0.7, 0.6, 2.0, 2.9, 3.6, 4.4]),
        ("times", [0.0, 0.7, float("nan"), 2.0, 2.9, 3.6, 4.4]),
        ("states", [2, 1, 0, 7, 2, 1, 0]),
        ("states", [2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]),
        ("positions", [[0.0]] * 6 + [[0.0, 1.0]]),
        ("positions", [[0.0]] * 6),
    ],
    "query": [
        ("states", [9, 1, 2, 1]),
        ("amplitudes", [1.0, 2.0]),
        ("durations", [1.0, float("inf"), 1.0, 1.0]),
        ("n_vertices", 1),
    ],
    "event": [("kind", 5), ("data", [1, 2])],
    "nd": [("dtype", "<U3"), ("shape", [7]), ("v", "abc")],
    "hist": [("counts", []), ("bounds", [float("nan")]), ("count", -2)],
    "registry": [("counters", {"a": "b"}), ("histograms", {"h": 1})],
    "span": [("count", -1), ("name", 3), ("wall_s", float("inf"))],
    "telemetry": [("registry", 1), ("spans", [{"__repro__": "state", "v": 1}])],
    "state": [("v", 4), ("v", True)],
    "relation": [("v", "cousin")],
    "tuple": [("v", {"a": 1})],
    "map": [("v", [[1]])],
}


def json_values():
    """Arbitrary JSON values, envelope tags and field names included."""
    from hypothesis import strategies as st

    keys = st.text(max_size=6) | st.sampled_from(
        ["__repro__", "v", "t", "p", "s", "times", "kind", "data"]
    )
    scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | st.text(max_size=6)
        | st.sampled_from(sorted(INVALID_FIELDS))
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=16,
    )


def mutated_encodings():
    """A real encoded value of every tag with one field dropped, retyped
    or made invalid: ``(tag, encoded, must_refuse)``."""
    from hypothesis import strategies as st

    from repro.events import encode_value

    encoded = {tag: encode_value(v) for tag, v in codec_samples().items()}

    @st.composite
    def build(draw):
        tag = draw(st.sampled_from(sorted(encoded)))
        value = dict(encoded[tag])
        how = draw(st.sampled_from(["drop", "retype", "invalid"]))
        if how == "invalid":
            key, bad = draw(st.sampled_from(INVALID_FIELDS[tag]))
            value[key] = bad
            return tag, value, True
        key = draw(st.sampled_from(sorted(k for k in value if k != "__repro__")))
        if how == "drop":
            del value[key]
            return tag, value, True
        value[key] = draw(json_values())
        return tag, value, False

    return build()
