"""Persistent query service (``repro serve``).

Owns one shard-store root and one worker pool for many
queries: :mod:`repro.service.core` implements single-flight query
execution with crash containment; :mod:`repro.service.server` exposes
it over local HTTP / unix socket with NDJSON streaming.
"""

from .core import Query, QueryService, ServiceConfig
from .server import ReproServer, run_server

__all__ = [
    "Query",
    "QueryService",
    "ServiceConfig",
    "ReproServer",
    "run_server",
]
