"""Append-only vertex log (write-ahead persistence for live sessions).

A treatment session is a safety-critical stream: if the process dies
mid-session, the PLR committed so far must be recoverable.  The vertex
log appends one JSON line per committed vertex (cheap: a handful of
vertices per breathing cycle, not per raw sample) and can replay the
stream into a fresh :class:`~repro.core.model.PLRSeries`.

Format — one header line, then one line per event::

    {"format": "repro.vertexlog/v1", "stream_id": ..., "patient_id": ...}
    {"t": 1.23, "p": [4.5], "s": 2}
    {"t": 1.23, "p": [4.5], "s": 3, "a": 1}

A record carrying ``"a": 1`` is an **amendment**: the online segmenter
may re-label the state of the most recent vertex when a plausibility
gate fires while closing its segment
(:meth:`~repro.core.model.PLRSeries.replace_last`); the log records the
re-label so replay reproduces the live series exactly, not just its
geometry.

Durability contract: every record is flushed as written, so a crash
loses at most the in-flight line.  :func:`read_vertex_log` tolerates the
resulting torn tail — the recovered prefix is returned together with a
``truncated`` flag.

For the chaos suite the writer accepts an optional
:class:`~repro.testing.faults.FaultInjector`; production callers pass
nothing and pay one ``is None`` check per record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, NamedTuple

from ..core.model import BreathingState, PLRSeries, Vertex

__all__ = [
    "RecoveredLog",
    "VertexLogWriter",
    "read_vertex_log",
    "heal_torn_log",
]

_FORMAT = "repro.vertexlog/v1"


class RecoveredLog(NamedTuple):
    """Result of replaying a vertex log.

    Attributes
    ----------
    header:
        The log's identity metadata.
    series:
        The recovered PLR (the longest cleanly parseable prefix).
    truncated:
        True when the log ended in a torn record (crash mid-write); the
        recovered prefix is still safe to use.
    clean_bytes:
        Byte length of the cleanly parseable prefix (header included).
        :func:`heal_torn_log` truncates the file to exactly this length,
        which drops the torn record while preserving every clean line —
        amendment markers included — byte for byte.
    """

    header: dict
    series: PLRSeries
    truncated: bool
    clean_bytes: int = 0


class VertexLogWriter:
    """Appends committed vertices to a JSONL file as they arrive.

    Usable as a context manager; every record is flushed immediately so a
    crash loses at most the in-flight line.

    Parameters
    ----------
    path:
        Log file path (created/truncated, or appended to with
        ``append=True``).
    stream_id / patient_id:
        Identity written to the header for recovery bookkeeping.
    injector:
        Optional fault injector (chaos tests only).  Sites
        ``"log.append"`` and ``"log.amend"`` fire per record and may tear
        the write (``torn_write``), lose it entirely (``fsync_loss``) or
        crash after it is durable (``crash``).
    append:
        Reopen an existing log for further appends instead of starting a
        fresh one; the header must already be on disk (the
        :class:`~repro.database.backend.LoggedBackend` reopen path).
    """

    def __init__(
        self,
        path: str | Path,
        stream_id: str = "",
        patient_id: str = "",
        injector=None,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self.injector = injector
        self._handle: IO[str] | None = self.path.open("a" if append else "w")
        if not append:
            header = {
                "format": _FORMAT,
                "stream_id": stream_id,
                "patient_id": patient_id,
            }
            self._handle.write(json.dumps(header) + "\n")
            self._handle.flush()
        self.n_written = 0
        self.n_amended = 0

    def append(self, vertex: Vertex) -> None:
        """Write one vertex and flush."""
        self._write(self._record(vertex), "log.append")
        self.n_written += 1

    def amend(self, vertex: Vertex) -> None:
        """Record a re-label of the most recently appended vertex."""
        record = self._record(vertex)
        record["a"] = 1
        self._write(record, "log.amend")
        self.n_amended += 1

    def extend(self, vertices) -> None:
        """Write several vertices."""
        for vertex in vertices:
            self.append(vertex)

    @staticmethod
    def _record(vertex: Vertex) -> dict:
        return {
            "t": vertex.time,
            "p": list(vertex.position),
            "s": int(vertex.state),
        }

    def _write(self, record: dict, site: str) -> None:
        if self._handle is None:
            raise ValueError("log is closed")
        line = json.dumps(record) + "\n"
        if self.injector is not None:
            # A "crash" spec raises inside fire(), before any bytes are
            # written; torn_write persists a byte prefix of the line and
            # fsync_loss persists nothing (the flush never reached disk).
            spec = self.injector.fire(site)
            if spec is not None:
                from ..testing.faults import SimulatedCrash

                if spec.kind == "torn_write":
                    surviving = int(spec.payload)
                    if not 0 < surviving < len(line):
                        surviving = max(1, len(line) // 2)
                    self._handle.write(line[:surviving])
                    self._handle.flush()
                    self.close()
                    raise SimulatedCrash(spec)
                if spec.kind == "fsync_loss":
                    # The line sat in an unflushed buffer: nothing survives.
                    self.close()
                    raise SimulatedCrash(spec)
        self._handle.write(line)
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VertexLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_vertex_log(
    path: str | Path, into: PLRSeries | None = None
) -> RecoveredLog:
    """Replay a vertex log into a series.

    Returns the header metadata, the recovered PLR and a ``truncated``
    flag.  A torn final record (crash mid-write — truncated JSON, a
    missing field, or any other unparseable tail) is tolerated: replay
    stops there, the cleanly recovered prefix is returned and
    ``truncated`` is set.  Only an unreadable *header* raises, because
    then nothing about the log can be trusted.

    Parameters
    ----------
    path:
        The log file.
    into:
        Optional existing series to replay *into* — the journal-tail
        path: a snapshot-loaded series absorbs only the records written
        after the snapshot watermark.  An amendment as the first tail
        record re-labels the snapshot's final vertex, exactly as it
        would have live.  When omitted a fresh series is built.
    """
    path = Path(path)
    series = PLRSeries() if into is None else into
    header: dict | None = None
    truncated = False
    clean_bytes = 0
    with path.open() as handle:
        for line_no, raw_line in enumerate(handle):
            line = raw_line.strip()
            if not line:
                clean_bytes += len(raw_line.encode("utf-8"))
                continue
            if line_no == 0:
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    raise ValueError("vertex log header is unreadable") from None
                if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
                    raise ValueError("not a repro vertex log")
                header = payload
                clean_bytes += len(raw_line.encode("utf-8"))
                continue
            try:
                payload = json.loads(line)
                vertex = Vertex(
                    payload["t"],
                    tuple(payload["p"]),
                    BreathingState(payload["s"]),
                )
                if payload.get("a"):
                    series.replace_last(vertex)  # re-label amendment
                else:
                    series.append(vertex)
            except (
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
                IndexError,
                OverflowError,
            ):
                truncated = True
                break  # torn tail; everything before it is safe
            clean_bytes += len(raw_line.encode("utf-8"))
    if header is None:
        raise ValueError("vertex log is empty")
    return RecoveredLog(header, series, truncated, clean_bytes)


def heal_torn_log(path: str | Path, recovered: RecoveredLog) -> None:
    """Drop a torn final record by truncating the file to its clean prefix.

    O(1) in log length — the clean lines (amendments included) are left
    byte-identical on disk, only the torn suffix disappears.  A no-op
    when the log was not truncated.
    """
    if not recovered.truncated:
        return
    os.truncate(Path(path), recovered.clean_bytes)
