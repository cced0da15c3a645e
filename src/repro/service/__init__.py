"""Deployment subsystem: versioned selection artifacts + an online server.

The paper's end-game is a decision function consulted at every collective
call site.  This package operationalises it in two steps:

* :mod:`repro.service.artifact` — :func:`build_artifact` runs
  calibration → model fit → decision tables → code generation and
  freezes the result into a versioned, content-hashed JSON document;
  :func:`load_artifact` refuses anything corrupt or mismatched;
  :class:`ArtifactRegistry` manages a directory of them.
* :mod:`repro.service.server` — :class:`SelectionService` answers
  "(cluster, collective, P, m) → algorithm" queries through one
  decision function over flat tables, memoised in an LRU for single
  queries; :class:`HttpServer` exposes it over stdlib-asyncio HTTP
  (``repro serve``, one process) with Prometheus metrics
  (:class:`repro.service.metrics.ServiceMetrics`), graceful drain and
  hot reload.

See docs/SERVICE.md for the artifact schema, the endpoint reference, the
metrics glossary and how to run more than one server process.
"""

from repro.service.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactEntry,
    ArtifactRegistry,
    SelectionArtifact,
    build_artifact,
    default_proc_points,
    load_artifact,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import (
    HttpServer,
    LruCache,
    RequestError,
    SelectionService,
    ServiceThread,
    serve,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactEntry",
    "ArtifactRegistry",
    "HttpServer",
    "LruCache",
    "RequestError",
    "SelectionArtifact",
    "SelectionService",
    "ServiceMetrics",
    "ServiceThread",
    "build_artifact",
    "default_proc_points",
    "load_artifact",
    "serve",
]
