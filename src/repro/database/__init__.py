"""Hierarchical motion-stream database substrate.

Implements the paper's Section 3.2 data model: patients own session
streams, streams are PLR series.  Includes pluggable storage
backends (volatile in-memory and durable vertex-logged), streaming
ingestion and the state-signature index (the paper's future-work
indexing extension).
"""

from .backend import (
    BACKEND_NAMES,
    InMemoryBackend,
    LoggedBackend,
    StorageBackend,
    create_backend,
)
from .index import CandidateSet, StateSignatureIndex
from .ingest import StreamIngestor
from .log import VertexLogWriter, read_vertex_log
from .records import PatientRecord, StreamRecord
from .store import MotionDatabase

__all__ = [
    "MotionDatabase",
    "StorageBackend",
    "InMemoryBackend",
    "LoggedBackend",
    "BACKEND_NAMES",
    "create_backend",
    "PatientRecord",
    "StreamRecord",
    "StreamIngestor",
    "StateSignatureIndex",
    "CandidateSet",
    "VertexLogWriter",
    "read_vertex_log",
]
