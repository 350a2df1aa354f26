"""A minimal synchronous event bus.

Two layers of the system decouple through publish/subscribe instead of
hard wiring:

* the **storage backend** publishes mutation events (``patient_added``,
  ``stream_added``, ``stream_removed``) that derived structures — in
  particular the state-signature index — subscribe to, and
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

**Envelopes.** The sharded serving tier relays bus traffic between
processes, so every published payload must survive a JSON round trip.
:func:`encode_event` / :func:`decode_event` wrap an :class:`Event` in a
tagged envelope: scalars pass through, and the closed set of payload
value types (vertices, matches, numpy arrays, enums, telemetry
snapshots, tuples, nested mappings) are encoded as ``{"__repro__":
tag, ...}`` objects.  Floats ride on JSON's shortest-round-trip
``repr`` so decoded values are bit-identical.  Unknown types raise
immediately at encode time — the portability audit is enforced by
construction, not by convention.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "Event",
    "EventBus",
    "UnknownTagError",
    "decode_event",
    "decode_value",
    "encode_event",
    "encode_value",
]

_TAG = "__repro__"


class UnknownTagError(ValueError):
    """An envelope names a tag the codec does not know: the payload is
    corrupt, or came from a program with a different codec."""

# Filled lazily by _codec_types(): events.py sits below core/ and obs/
# in the import graph (both import this module), so the payload
# dataclasses can only be imported once the package is fully loaded.
_ENCODERS: dict | None = None
_DECODERS: dict | None = None


def _codec_types() -> tuple[dict, dict]:
    """Build (and cache) the tag <-> type codec tables."""
    global _ENCODERS, _DECODERS
    if _ENCODERS is not None:
        return _ENCODERS, _DECODERS

    import numpy as np

    from .core.matching import Match
    from .core.model import BreathingState, Vertex
    from .core.similarity import SourceRelation
    from .obs.metrics import HistogramSnapshot, RegistrySnapshot
    from .obs.telemetry import TelemetrySnapshot
    from .obs.trace import SpanStats
    from types import MappingProxyType

    def enc_vertex(v: Vertex) -> dict:
        return {
            _TAG: "vertex",
            "t": v.time,
            "p": list(v.position),
            "s": int(v.state),
        }

    def dec_vertex(obj: dict) -> Vertex:
        return Vertex(
            time=obj["t"],
            position=tuple(obj["p"]),
            state=BreathingState(obj["s"]),
        )

    def enc_match(m: Match) -> dict:
        return {
            _TAG: "match",
            "sid": m.stream_id,
            "start": m.start,
            "n": m.n_vertices,
            "d": m.distance,
            "rel": m.relation.value,
        }

    def dec_match(obj: dict) -> Match:
        return Match(
            stream_id=obj["sid"],
            start=obj["start"],
            n_vertices=obj["n"],
            distance=obj["d"],
            relation=SourceRelation(obj["rel"]),
        )

    def enc_array(a: np.ndarray) -> dict:
        return {
            _TAG: "nd",
            "dtype": a.dtype.str,
            "shape": list(a.shape),
            "v": a.ravel().tolist(),
        }

    def dec_array(obj: dict) -> np.ndarray:
        arr = np.array(obj["v"], dtype=np.dtype(obj["dtype"]))
        return arr.reshape(tuple(obj["shape"]))

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
        return HistogramSnapshot(
            bounds=tuple(obj["bounds"]),
            counts=tuple(obj["counts"]),
            total=obj["total"],
            count=obj["count"],
            vmin=obj["vmin"],
            vmax=obj["vmax"],
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

    def dec_registry(obj: dict) -> RegistrySnapshot:
        return RegistrySnapshot(
            counters=MappingProxyType(dict(obj["counters"])),
            gauges=MappingProxyType(dict(obj["gauges"])),
            histograms=MappingProxyType(
                {k: dec_hist(v) for k, v in obj["histograms"].items()}
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
        return SpanStats(
            name=obj["name"],
            parent=obj["parent"],
            count=obj["count"],
            wall_s=obj["wall_s"],
            cpu_s=obj["cpu_s"],
            max_wall_s=obj["max_wall_s"],
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
        return TelemetrySnapshot(
            time=obj["time"],
            registry=dec_registry(obj["registry"]),
            scopes=MappingProxyType(
                {k: dec_registry(v) for k, v in obj["scopes"].items()}
            ),
            spans=tuple(dec_span(s) for s in obj["spans"]),
        )

    _ENCODERS = {
        Vertex: enc_vertex,
        Match: enc_match,
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
        "nd": dec_array,
        "hist": dec_hist,
        "registry": dec_registry,
        "span": dec_span,
        "telemetry": dec_telemetry,
        "state": lambda obj: BreathingState(obj["v"]),
        "relation": lambda obj: SourceRelation(obj["v"]),
    }
    return _ENCODERS, _DECODERS


def encode_value(value: Any) -> Any:
    """Encode one payload value into JSON-serialisable form.

    Raises :class:`TypeError` for any type outside the portable set —
    publishing a live object reference through a relayed bus is a bug
    caught at the sender, not a silent corruption at the receiver.
    """
    # Exact-type check: IntEnum payloads (BreathingState) are int
    # subclasses and must take the tagged path to survive decoding.
    if value is None or type(value) in (bool, int, float, str):
        return value
    encoders, _ = _codec_types()
    encoder = encoders.get(type(value))
    if encoder is not None:
        return encoder(value)
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
        f"event payload value of type {type(value).__qualname__} is not "
        f"portable across process boundaries: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(decode_value(v) for v in value["v"])
        if tag == "map":
            return {
                decode_value(k): decode_value(v) for k, v in value["v"]
            }
        _, decoders = _codec_types()
        decoder = decoders.get(tag)
        if decoder is None:
            raise UnknownTagError(f"unknown event envelope tag: {tag!r}")
        return decoder(value)
    return value


def encode_event(event: "Event") -> dict:
    """Wrap a published event in a JSON-serialisable envelope."""
    return {
        "kind": event.kind,
        "data": {key: encode_value(v) for key, v in event.data.items()},
    }


def decode_event(envelope: Mapping[str, Any]) -> "Event":
    """Rebuild an :class:`Event` from its envelope."""
    return Event(
        envelope["kind"],
        {key: decode_value(v) for key, v in envelope["data"].items()},
    )


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
        self._subscribers: dict[str, list] = {}

    def subscribe(
        self,
        kind: str,
        callback: Callable[[Event], Any],
        weak: bool = False,
    ) -> Callable[[Event], Any]:
        """Register ``callback`` for events of ``kind``; returns it.

        With ``weak=True`` a bound method is held through
        :class:`weakref.WeakMethod`, so a long-lived bus (a database's)
        does not keep short-lived subscribers (a per-replay index)
        alive; dead entries are pruned on publish.
        """
        entry = callback
        if weak and hasattr(callback, "__self__"):
            entry = weakref.WeakMethod(callback)
        self._subscribers.setdefault(kind, []).append(entry)
        return callback

    def unsubscribe(self, kind: str, callback: Callable[[Event], Any]) -> None:
        """Remove a subscription (both strong and weak entries)."""
        entries = self._subscribers.get(kind, [])
        self._subscribers[kind] = [
            entry
            for entry in entries
            if entry is not callback
            and not (
                isinstance(entry, weakref.WeakMethod)
                and entry() == callback
            )
        ]

    def has_subscribers(self, kind: str) -> bool:
        """Whether any live subscriber listens for ``kind`` (O(1)-ish)."""
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
        dead = []
        for entry in tuple(entries):
            callback = entry() if isinstance(entry, weakref.WeakMethod) else entry
            if callback is None:
                dead.append(entry)  # weak subscriber was collected
                continue
            callback(event)
        for entry in dead:
            try:
                entries.remove(entry)
            except ValueError:
                pass  # already pruned by a reentrant publish
        return event

    def __deepcopy__(self, memo: dict) -> "EventBus":
        # Subscriptions are runtime wiring, not data: a deep-copied
        # object graph starts with a quiet bus.
        return EventBus()
