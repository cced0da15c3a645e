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
  (``repro serve``) with Prometheus metrics
  (:class:`repro.service.metrics.ServiceMetrics`), graceful drain and
  hot reload.

See docs/SERVICE.md for the artifact schema, the endpoint reference and
the metrics glossary.
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
from repro.service.metrics import ServiceMetrics, merge_metrics_texts
from repro.service.server import (
    HttpServer,
    LruCache,
    RequestError,
    SelectionService,
    ServiceThread,
    serve,
)
from repro.service.shard import (
    ShardSupervisor,
    WorkerHandle,
    reuseport_socket,
    serve_sharded,
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
    "ShardSupervisor",
    "WorkerHandle",
    "build_artifact",
    "default_proc_points",
    "load_artifact",
    "merge_metrics_texts",
    "reuseport_socket",
    "serve",
    "serve_sharded",
]
