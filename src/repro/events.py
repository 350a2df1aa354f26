"""A minimal synchronous event bus, and the one value codec.

Two layers of the system decouple through publish/subscribe instead of
hard wiring:

* the **storage backend** publishes mutation events (``patient_added``,
  ``stream_added``, ``stream_removed``), and
* the **service layer** publishes session-lifecycle events
  (``vertex_committed``, ``vertex_amended``, ``query_refreshed``,
  ``prediction_served``, ``alarm``, ``session_opened``,
  ``session_closed``) that vertex logs, monitors and gating controllers
  subscribe to.

Delivery is synchronous and in subscription order, so a subscriber that
raises (e.g. a chaos-test fault tearing a vertex-log write) propagates
its exception through the publishing call exactly like the previously
hard-wired call did — crash semantics are preserved by construction.

``copy.deepcopy`` of an object graph holding a bus yields a bus with
**no subscribers**: subscriptions are runtime wiring between live
components, not data, and cloning a database must not leave callbacks
pointing at the original's matchers or log writers.

**Codec.** Every value that crosses a process boundary — each frame of
the sharded tier's wire, and with it relayed events, series, query
views, match lists and telemetry snapshots — goes through
:func:`encode_value` / :func:`decode_value`.  Scalars, lists and
string-keyed dicts pass through as JSON; the closed set of value types
(vertices, matches, series, query views, events, numpy arrays, enums,
telemetry snapshots, tuples, other mappings) are encoded as
``{"__repro__": tag, ...}`` objects.  Floats ride on JSON's
shortest-round-trip ``repr`` so decoded values are bit-identical.
Unknown types raise :class:`TypeError` at encode time; an unknown tag,
or a known tag whose fields are missing, mistyped or invalid, raises
:class:`DecodeError` at decode time, and nothing else escapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "DecodeError",
    "Event",
    "EventBus",
    "decode_event",
    "decode_value",
    "encode_value",
]

_TAG = "__repro__"

#: Values that are their own JSON form (exact types: an IntEnum such as
#: BreathingState is an int subclass and must take its tagged path).
_SCALARS = frozenset((type(None), bool, int, float, str))
_REALS = frozenset((int, float))


class DecodeError(ValueError):
    """A value cannot be decoded: its tag is unknown, or a field of a
    known tag is missing, mistyped or invalid.  The payload is corrupt,
    or came from a program with a different codec."""


# Filled lazily by _codec_types(): events.py sits below core/ and obs/
# in the import graph (both import this module), so the payload
# dataclasses can only be imported once the package is fully loaded.
_ENCODERS: dict | None = None
_DECODERS: dict | None = None


def _real(value, finite: bool = True):
    """``value`` if it is an int or float (finite unless told otherwise)."""
    if type(value) not in _REALS or (finite and not math.isfinite(value)):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _count(value) -> int:
    """``value`` if it is a non-negative int."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a count, got {value!r}")
    return value


def _text(value) -> str:
    """``value`` if it is a str."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _typed(value, cls):
    """Decode ``value`` and require an instance of ``cls``."""
    decoded = decode_value(value)
    if type(decoded) is not cls:
        raise TypeError(f"expected a {cls.__name__}, got {decoded!r}")
    return decoded


def _codec_types() -> tuple[dict, dict]:
    """Build (and cache) the tag <-> type codec tables."""
    global _ENCODERS, _DECODERS
    if _ENCODERS is not None:
        return _ENCODERS, _DECODERS

    import numpy as np

    from .core.matching import Match, QueryView
    from .core.model import BreathingState, PLRSeries, Vertex
    from .core.similarity import SourceRelation
    from .obs.metrics import HistogramSnapshot, RegistrySnapshot
    from .obs.telemetry import TelemetrySnapshot
    from .obs.trace import SpanStats
    from types import MappingProxyType

    relations = {r.value: r for r in SourceRelation}
    relation_values = {r: r.value for r in SourceRelation}
    n_states = len(BreathingState)
    dtypes: dict[str, np.dtype] = {}  # the numeric dtypes seen so far

    def dec_state(value) -> BreathingState:
        return BreathingState(_count(value))

    def dec_array(obj: dict) -> np.ndarray:
        dtype = dtypes.get(obj["dtype"])
        if dtype is None:
            dtype = np.dtype(_text(obj["dtype"]))
            if dtype.kind not in "biuf":
                raise ValueError(f"not a numeric dtype: {dtype}")
            dtypes[obj["dtype"]] = dtype
        values, shape = obj["v"], obj["shape"]
        if type(values) is not list or type(shape) is not list:
            raise TypeError("array values and shape must be lists")
        array = np.array(values, dtype=dtype)
        return array if shape == [len(values)] else array.reshape(shape)

    def enc_vertex(v: Vertex) -> dict:
        return {
            _TAG: "vertex",
            "t": v.time,
            "p": list(v.position),
            "s": int(v.state),
        }

    def dec_vertex(obj: dict) -> Vertex:
        position = tuple(_real(p) for p in obj["p"])
        if not position:
            raise ValueError("a vertex position needs a dimension")
        return Vertex(_real(obj["t"]), position, dec_state(obj["s"]))

    def enc_match(m: Match) -> dict:
        return {
            _TAG: "match",
            "sid": m.stream_id,
            "start": m.start,
            "n": m.n_vertices,
            "d": m.distance,
            "rel": relation_values[m.relation],
        }

    def dec_match(obj: dict) -> Match:
        # Checked inline: matches are the wire's most frequent value.
        sid, start, n, d = obj["sid"], obj["start"], obj["n"], obj["d"]
        if not (
            type(sid) is str
            and type(start) is int
            and type(n) is int
            and start >= 0
            and n >= 0
            and type(d) in _REALS
            and math.isfinite(d)
        ):
            raise ValueError("malformed match fields")
        return Match(sid, start, n, d, relations[obj["rel"]])

    def enc_series(s: PLRSeries) -> dict:
        return {_TAG: "series", **s.to_payload()}

    def enc_query(q: QueryView) -> dict:
        return {
            _TAG: "query",
            "states": q.segment_states.tolist(),
            "amplitudes": q.amplitudes.tolist(),
            "durations": q.durations.tolist(),
            "n_vertices": q.n_vertices,
        }

    def dec_query(obj: dict) -> QueryView:
        states = obj["states"]
        amplitudes = np.array(obj["amplitudes"], dtype=float)
        durations = np.array(obj["durations"], dtype=float)
        n_segments = _count(obj["n_vertices"]) - 1
        if not (
            n_segments >= 1
            and type(states) is list
            and all(type(s) is int and 0 <= s < n_states for s in states)
            and (len(states),) == amplitudes.shape == durations.shape
            == (n_segments,)
            and np.isfinite(amplitudes).all()
            and np.isfinite(durations).all()
        ):
            raise ValueError("query view columns are malformed")
        return QueryView(
            np.array(states, dtype=np.int8), amplitudes, durations, n_segments + 1
        )

    def enc_event(e: Event) -> dict:
        return {_TAG: "event", "kind": e.kind, "data": encode_value(dict(e.data))}

    def dec_event(obj: dict) -> Event:
        data = decode_value(obj["data"])
        if type(data) is not dict or not all(type(k) is str for k in data):
            raise TypeError("event data must be a string-keyed mapping")
        return Event(_text(obj["kind"]), data)

    def enc_array(a: np.ndarray) -> dict:
        return {
            _TAG: "nd",
            "dtype": a.dtype.str,
            "shape": list(a.shape),
            "v": a.ravel().tolist(),
        }

    def enc_hist(h: HistogramSnapshot) -> dict:
        return {
            _TAG: "hist",
            "bounds": list(h.bounds),
            "counts": list(h.counts),
            "total": h.total,
            "count": h.count,
            "vmin": h.vmin,
            "vmax": h.vmax,
        }

    def dec_hist(obj: dict) -> HistogramSnapshot:
        bounds = tuple(_real(b) for b in obj["bounds"])
        counts = tuple(_count(c) for c in obj["counts"])
        if len(counts) != len(bounds) + 1:
            raise ValueError("a histogram has one more count than bounds")
        return HistogramSnapshot(
            bounds=bounds,
            counts=counts,
            total=_real(obj["total"], finite=False),
            count=_count(obj["count"]),
            vmin=_real(obj["vmin"], finite=False),
            vmax=_real(obj["vmax"], finite=False),
        )

    def enc_registry(r: RegistrySnapshot) -> dict:
        return {
            _TAG: "registry",
            "counters": {k: r.counters[k] for k in sorted(r.counters)},
            "gauges": {k: r.gauges[k] for k in sorted(r.gauges)},
            "histograms": {
                k: enc_hist(r.histograms[k]) for k in sorted(r.histograms)
            },
        }

    def dec_values(obj: dict) -> MappingProxyType:
        return MappingProxyType(
            {_text(k): _real(v, finite=False) for k, v in obj.items()}
        )

    def dec_registry(obj: dict) -> RegistrySnapshot:
        return RegistrySnapshot(
            counters=dec_values(obj["counters"]),
            gauges=dec_values(obj["gauges"]),
            histograms=MappingProxyType(
                {
                    _text(k): _typed(v, HistogramSnapshot)
                    for k, v in obj["histograms"].items()
                }
            ),
        )

    def enc_span(s: SpanStats) -> dict:
        return {
            _TAG: "span",
            "name": s.name,
            "parent": s.parent,
            "count": s.count,
            "wall_s": s.wall_s,
            "cpu_s": s.cpu_s,
            "max_wall_s": s.max_wall_s,
        }

    def dec_span(obj: dict) -> SpanStats:
        parent = obj["parent"]
        return SpanStats(
            name=_text(obj["name"]),
            parent=None if parent is None else _text(parent),
            count=_count(obj["count"]),
            wall_s=_real(obj["wall_s"]),
            cpu_s=_real(obj["cpu_s"]),
            max_wall_s=_real(obj["max_wall_s"]),
        )

    def enc_telemetry(t: TelemetrySnapshot) -> dict:
        return {
            _TAG: "telemetry",
            "time": t.time,
            "registry": enc_registry(t.registry),
            "scopes": {
                k: enc_registry(t.scopes[k]) for k in sorted(t.scopes)
            },
            "spans": [enc_span(s) for s in t.spans],
        }

    def dec_telemetry(obj: dict) -> TelemetrySnapshot:
        time = obj["time"]
        return TelemetrySnapshot(
            time=None if time is None else _real(time),
            registry=_typed(obj["registry"], RegistrySnapshot),
            scopes=MappingProxyType(
                {
                    _text(k): _typed(v, RegistrySnapshot)
                    for k, v in obj["scopes"].items()
                }
            ),
            spans=tuple(_typed(s, SpanStats) for s in obj["spans"]),
        )

    def dec_tuple(obj: dict) -> tuple:
        values = obj["v"]
        if type(values) is not list:
            raise TypeError("tuple values must be a list")
        return tuple(decode_value(v) for v in values)

    def dec_map(obj: dict) -> dict:
        pairs = obj["v"]
        if type(pairs) is not list or not all(
            type(p) is list and len(p) == 2 for p in pairs
        ):
            raise TypeError("map entries must be [key, value] pairs")
        return {decode_value(k): decode_value(v) for k, v in pairs}

    _ENCODERS = {
        Vertex: enc_vertex,
        Match: enc_match,
        PLRSeries: enc_series,
        QueryView: enc_query,
        Event: enc_event,
        np.ndarray: enc_array,
        HistogramSnapshot: enc_hist,
        RegistrySnapshot: enc_registry,
        SpanStats: enc_span,
        TelemetrySnapshot: enc_telemetry,
        BreathingState: lambda v: {_TAG: "state", "v": int(v)},
        SourceRelation: lambda v: {_TAG: "relation", "v": v.value},
    }
    _DECODERS = {
        "vertex": dec_vertex,
        "match": dec_match,
        "series": PLRSeries.from_payload,
        "query": dec_query,
        "event": dec_event,
        "nd": dec_array,
        "hist": dec_hist,
        "registry": dec_registry,
        "span": dec_span,
        "telemetry": dec_telemetry,
        "state": lambda obj: dec_state(obj["v"]),
        "relation": lambda obj: relations[obj["v"]],
        "tuple": dec_tuple,
        "map": dec_map,
    }
    return _ENCODERS, _DECODERS


def encode_value(value: Any) -> Any:
    """Encode one value into JSON-serialisable form.

    Raises :class:`TypeError` for any type outside the portable set —
    shipping a live object reference across a process boundary is a bug
    caught at the sender, not a silent corruption at the receiver.
    """
    kind = type(value)
    if kind is list:
        return [v if type(v) in _SCALARS else encode_value(v) for v in value]
    encoders = _ENCODERS or _codec_types()[0]
    encoder = encoders.get(kind)
    if encoder is not None:
        return encoder(value)
    if kind in _SCALARS:
        return value
    if (
        kind is dict
        and _TAG not in value
        and all(type(k) is str for k in value)
    ):
        return {
            k: v if type(v) in _SCALARS else encode_value(v)
            for k, v in value.items()
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {
            _TAG: "map",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    # numpy scalars (np.float64, np.int64, ...) reduce to python scalars.
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return encode_value(item())
    for base, encoder in encoders.items():
        if isinstance(value, base):
            return encoder(value)
    raise TypeError(
        f"value of type {type(value).__qualname__} is not portable across "
        f"process boundaries: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`.

    Raises :class:`DecodeError` for an unknown tag and for a known tag
    whose fields are missing, mistyped or invalid (say, a series whose
    times are not finite and increasing, or a state outside the
    alphabet); any other JSON value decodes.
    """
    kind = type(value)
    if kind is list:
        return [v if type(v) in _SCALARS else decode_value(v) for v in value]
    if kind is not dict:
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {
            k: v if type(v) in _SCALARS else decode_value(v)
            for k, v in value.items()
        }
    decoders = _DECODERS or _codec_types()[1]
    decoder = decoders.get(tag) if type(tag) is str else None
    if decoder is None:
        raise DecodeError(f"unknown tag: {tag!r}")
    try:
        return decoder(value)
    except DecodeError:
        raise
    except (
        LookupError, TypeError, ValueError, AttributeError, ArithmeticError
    ) as exc:
        raise DecodeError(f"malformed {tag!r} value: {exc}") from None


def decode_event(value: Any) -> "Event":
    """Decode one encoded :class:`Event` (``DecodeError`` if it is not)."""
    event = decode_value(value)
    if type(event) is not Event:
        raise DecodeError(f"not an encoded event: {value!r}")
    return event


@dataclass(frozen=True)
class Event:
    """One published event: a kind tag plus a payload mapping."""

    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Payload field access with a default."""
        return self.data.get(key, default)


class EventBus:
    """Synchronous publish/subscribe fan-out keyed by event kind."""

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callable[[Event], Any]]] = {}

    def subscribe(
        self, kind: str, callback: Callable[[Event], Any]
    ) -> Callable[[Event], Any]:
        """Register ``callback`` for events of ``kind``; returns it."""
        self._subscribers.setdefault(kind, []).append(callback)
        return callback

    def unsubscribe(self, kind: str, callback: Callable[[Event], Any]) -> None:
        """Remove a subscription (a bound method by equality: each
        attribute access builds a new bound-method object)."""
        self._subscribers[kind] = [
            entry
            for entry in self._subscribers.get(kind, [])
            if entry != callback
        ]

    def has_subscribers(self, kind: str) -> bool:
        """Whether any subscriber listens for ``kind`` (O(1)-ish)."""
        return bool(self._subscribers.get(kind))

    def publish(self, kind: str, **data: Any) -> Event | None:
        """Deliver an event to every subscriber, in subscription order.

        Returns the delivered :class:`Event`, or ``None`` when nobody
        listens (the event object is then never built — publishing on a
        quiet bus costs one dict lookup).  Subscriber exceptions
        propagate to the publisher.
        """
        entries = self._subscribers.get(kind)
        if not entries:
            return None
        event = Event(kind, data)
        for callback in tuple(entries):
            callback(event)
        return event

    def __deepcopy__(self, memo: dict) -> "EventBus":
        # Subscriptions are runtime wiring, not data: a deep-copied
        # object graph starts with a quiet bus.
        return EventBus()
