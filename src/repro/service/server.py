"""The online algorithm-selection server.

Three pieces, separable for testing:

* :class:`SelectionService` — transport-independent query engine: input
  validation, one decision function over each artifact's
  :class:`~repro.selection.flat_table.FlatDecisionTable` with
  pre-rendered response fragments (:class:`_CompiledOp`), one accounting
  function for metrics and query sampling, an LRU memo of the decision
  for single queries, and hot reload of the artifact registry;
* :class:`HttpServer` — a stdlib-only asyncio HTTP/1.1 front end built
  on :class:`asyncio.Protocol` (no per-request task or coroutine: the
  hot path is pure CPU, so a request is parsed, routed and answered
  inside ``data_received`` by one handler), with keep-alive and
  pipelining, bounded bodies, typed JSON error responses, an
  idle-watchdog read timeout and graceful drain;
* :class:`ServiceThread` — runs an :class:`HttpServer` on a private
  event loop in a background thread, for tests and the load harness.

Endpoints (reference in docs/SERVICE.md):

========  ============  =================================================
method    path          behaviour
========  ============  =================================================
POST      /select       one query object, or ``{"queries": [...]}``
GET       /artifacts    registry listing (ids, grids, load errors)
GET       /healthz      liveness + artifact count
GET       /metrics      Prometheus text format
POST      /reload       rescan the artifact directory (also ``SIGHUP``)
========  ============  =================================================

The hot path is two bisects over flat parallel arrays plus pre-rendered
JSON fragments — no simulation, no model evaluation, no per-query dict
walks — so a query costs single-digit microseconds; the load harness
(``benchmarks/run_service_bench.py``) asserts p99 latency and that served
selections are bit-identical to offline ``DecisionTable.select``.
``repro serve`` is one asyncio process; a deployment that wants more
cores runs one per core behind its own balancer (docs/SERVICE.md §6).
"""

from __future__ import annotations

import asyncio
import errno
import json
import logging
import signal
import threading
import time
from collections import OrderedDict
from pathlib import Path

from repro import obs
from repro.errors import ArtifactError, PortInUseError, ServiceError
from repro.service.artifact import ArtifactRegistry, SelectionArtifact
from repro.service.metrics import ServiceMetrics

_logger = logging.getLogger("repro.service")

#: Most queries allowed in one batched ``POST /select``.
MAX_BATCH = 4096

#: Largest accepted request body, in bytes.
MAX_BODY = 4 << 20

#: Largest accepted request head (request line + headers), in bytes.
MAX_HEADER = 32 << 10

#: Seconds a connection may sit idle (or dribble a request) before the
#: server closes it; bounds the damage of slow-loris style clients.
DEFAULT_READ_TIMEOUT = 30.0

#: Requests slower than this are logged with their trace id (the
#: slow-query log).  Generous for a µs-scale hot path: anything over it
#: means a reload, a huge batch, or trouble worth a log line.
DEFAULT_SLOW_REQUEST_SECONDS = 0.25

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class RequestError(ServiceError):
    """A client error with an HTTP status and a stable machine code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code

    def body(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


class LruCache:
    """Bounded query cache with hit/miss accounting."""

    def __init__(self, maxsize: int = 4096):
        self.maxsize = max(1, int(maxsize))
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


def _require_int(query: dict, name: str, minimum: int, index: int | None) -> int:
    where = "" if index is None else f" (query #{index})"
    value = query.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(
            400, "validation",
            f"{name!r} must be an integer{where}, got {value!r}",
        )
    if value < minimum:
        raise RequestError(
            400, "validation", f"{name!r} must be >= {minimum}{where}, got {value}"
        )
    return value


#: The label key of an unlabelled counter sample, precomputed.
_NO_LABELS: tuple = ()


class _CompiledOp:
    """One (cluster, fabric, operation) compiled for the serving hot path.

    Everything that does not depend on ``(procs, nbytes)`` is rendered
    once per artifact load: a JSON *prefix* (cluster + operation), a
    per-grid-cell JSON *suffix* in plain and clamped variants (algorithm,
    segment size, artifact id, fabric, clamp marker), and the
    precomputed metric label keys.  The grid stays in the artifact's
    flat table (``flat``), whose :meth:`FlatDecisionTable.cell` is the
    one floor/clamp rule; answering a query is that cell, one
    ``%``-format for the two integers, and one bytes concatenation.
    """

    __slots__ = ("flat", "prefix", "suffixes", "sel_keys", "clamp_key")

    #: The two query integers are the only per-request variance in a
    #: result object; everything around them is pre-rendered.
    MID = b'"procs":%d,"nbytes":%d,'

    def __init__(
        self,
        cluster: str,
        operation: str,
        fabric: str,
        artifact: SelectionArtifact,
    ):
        flat = artifact.flat_tables()[operation]
        self.flat = flat
        self.prefix = (
            '{"cluster":%s,"operation":%s,'
            % (json.dumps(cluster), json.dumps(operation))
        ).encode("utf-8")
        artifact_json = json.dumps(artifact.artifact_id)
        fabric_tail = ',"fabric":%s' % json.dumps(fabric) if fabric else ""
        suffixes = []
        sel_keys = []
        for algorithm_id, segment in zip(flat.algorithm_ids, flat.segment_sizes):
            algorithm = flat.algorithms[algorithm_id]
            text = (
                '"algorithm":%s,"segment_size":%d,"artifact":%s%s'
                % (json.dumps(algorithm), segment, artifact_json, fabric_tail)
            )
            # Indexed by the clamped flag: [plain, clamped].
            suffixes.append(
                (text.encode("utf-8"),
                 (text + ',"clamped":true').encode("utf-8"))
            )
            # The exact key Counter.inc(operation=..., algorithm=...)
            # would build (label pairs sorted by name).
            sel_keys.append((("algorithm", algorithm), ("operation", operation)))
        self.suffixes = suffixes
        self.sel_keys = sel_keys
        self.clamp_key = (("operation", operation),)


class SelectionService:
    """Answers "(cluster, collective, P, m) → algorithm" queries.

    Every query, single or batched, is validated into a key, decided by
    :meth:`_decide` and counted by :meth:`_account`; the LRU memoises
    :meth:`_decide` for single queries only.
    """

    def __init__(
        self,
        registry: ArtifactRegistry,
        *,
        cache_size: int = 4096,
        metrics: ServiceMetrics | None = None,
    ):
        self.registry = registry
        self.metrics = metrics or ServiceMetrics()
        self.cache = LruCache(cache_size)
        self.metrics.artifacts_loaded.set(len(registry))
        #: Why the service is serving last-known-good data, or ``None``
        #: while healthy.  Set by :meth:`reload` (and by a failed
        #: self-tuning recalibration), surfaced by /healthz.
        self.degraded_reason: str | None = None
        #: Optional :class:`~repro.tuning.drift.QuerySampler`: when set
        #: (by :meth:`SelfTuner.attach`), every N-th answered query emits
        #: a forced ``select.query`` span that the sampler captures for
        #: drift replay.  ``None`` keeps the hot path span-free.
        self.sampler = None
        #: The attached :class:`~repro.tuning.tuner.SelfTuner`, if any;
        #: surfaced as the ``tuning`` block of /healthz.
        self.tuner = None
        self._compiled: dict[tuple[str, str, str], _CompiledOp] = {}
        self._generation = registry.generation
        self._refresh_degraded()

    def _refresh_degraded(self) -> None:
        if self.registry.degraded:
            names = ", ".join(sorted(self.registry.degraded))
            self.degraded_reason = f"serving last-known-good for: {names}"
        else:
            self.degraded_reason = None
        self.metrics.degraded.set(1.0 if self.degraded_reason else 0.0)

    def invalidate(self) -> None:
        """Drop every answer cache and resync with the registry.

        Clears both the LRU and the compiled flat-table entries — they
        cache registry *content*, so any artifact swap obsoletes them
        together.
        """
        self._generation = self.registry.generation
        self.cache.clear()
        self._compiled.clear()

    def check_generation(self) -> None:
        """Invalidate caches if the registry content changed underneath us.

        The registry bumps :attr:`ArtifactRegistry.generation` on every
        reindex — ``rescan()``, ``add()`` — so this catches *every*
        artifact-swap path, including ones that bypass :meth:`reload`
        (a ``SelfTuner.recalibrate`` hot reload calls ``reload``, but a
        direct ``registry.rescan()`` would not): stale pre-swap
        selections can never be served from the LRU.
        """
        if self.registry.generation != self._generation:
            self.invalidate()

    def reload(self) -> dict:
        """Rescan the artifact directory and drop the query cache.

        Never raises: a reload that fails outright (the directory became
        unreadable mid-scan, say) leaves the previous registry state — and
        the query cache — untouched, flips the service into degraded mode,
        and counts a ``reload_failures``.  A rescan that *succeeds* but
        finds corrupted previously-served files likewise keeps serving
        their last-known-good versions (see :class:`ArtifactRegistry`)
        and reports degraded.  Either way in-flight and subsequent
        ``/select`` queries keep getting answers.
        """
        try:
            self.registry.rescan()
        except Exception as error:  # noqa: BLE001 — SIGHUP must not kill us
            self.metrics.reload_failures.inc()
            self.degraded_reason = f"reload failed: {error}"
            self.metrics.degraded.set(1.0)
        else:
            self.invalidate()
            self.metrics.reloads.inc()
            self.metrics.artifacts_loaded.set(len(self.registry))
            self._refresh_degraded()
        result = {
            "artifacts": len(self.registry),
            "errors": dict(self.registry.errors),
        }
        if self.degraded_reason is not None:
            result["status"] = "degraded"
            result["reason"] = self.degraded_reason
            result["degraded"] = dict(self.registry.degraded)
        return result

    def _validate(self, query, index: int | None = None) -> tuple:
        where = "" if index is None else f" (query #{index})"
        if not isinstance(query, dict):
            raise RequestError(
                400, "validation", f"each query must be a JSON object{where}"
            )
        cluster = query.get("cluster")
        if not isinstance(cluster, str) or not cluster:
            raise RequestError(
                400, "validation", f"'cluster' must be a non-empty string{where}"
            )
        operation = query.get("operation", "bcast")
        if not isinstance(operation, str) or not operation:
            raise RequestError(
                400, "validation", f"'operation' must be a non-empty string{where}"
            )
        fabric = query.get("fabric", "")
        if not isinstance(fabric, str):
            raise RequestError(
                400, "validation", f"'fabric' must be a string{where}"
            )
        procs = _require_int(query, "procs", 1, index)
        nbytes = _require_int(query, "nbytes", 0, index)
        return cluster, operation, fabric, procs, nbytes

    def _compiled_for(self, cluster, operation, fabric) -> _CompiledOp:
        key = (cluster, fabric, operation)
        op = self._compiled.get(key)
        if op is None:
            try:
                artifact = self.registry.lookup(cluster, operation, fabric)
            except ArtifactError as error:
                raise RequestError(404, "unknown_artifact", str(error)) from None
            op = _CompiledOp(cluster, operation, fabric, artifact)
            self._compiled[key] = op
        return op

    def _decide(self, key: tuple) -> tuple:
        """The answer to one validated query key, counting nothing:
        ``(fragment, op, k, clamped)`` — the pre-rendered JSON fragment
        (everything but the trace id and the closing brace), the
        compiled table, the row-major grid cell and the below-grid flag.
        Raises the typed 404 for an unknown (cluster, fabric, operation).
        """
        cluster, operation, fabric, procs, nbytes = key
        op = self._compiled_for(cluster, operation, fabric)
        k, clamped = op.flat.cell(procs, nbytes)
        fragment = (
            op.prefix + _CompiledOp.MID % (procs, nbytes)
            + op.suffixes[k][clamped]
        )
        return fragment, op, k, clamped

    def _account(self, key: tuple, answer: tuple) -> None:
        """Count one answered query and offer it to the query sampler."""
        _fragment, op, k, clamped = answer
        metrics = self.metrics
        metrics.selections.inc_key(op.sel_keys[k])
        if clamped:
            metrics.clamped.inc_key(op.clamp_key)
        sampler = self.sampler
        if sampler is not None and sampler.should_sample():
            # Forced span: exists (and runs the recorder's finish hooks,
            # where the sampler listens) even while tracing is off.  The
            # span carries the full served decision so the self-tuning
            # loop can replay it against a measured oracle later, off the
            # request path.
            cluster, operation, fabric, procs, nbytes = key
            flat = op.flat
            with obs.span(
                "select.query",
                force=True,
                cluster=cluster,
                operation=operation,
                fabric=fabric,
                procs=procs,
                nbytes=nbytes,
                algorithm=flat.algorithms[flat.algorithm_ids[k]],
                segment_size=flat.segment_sizes[k],
            ):
                pass

    def select_body(self, payload, trace_id: str) -> bytes:
        """Render the complete ``POST /select`` 200 response body.

        One query object or ``{"queries": [...]}``: every query is
        validated and decided before any is accounted, so a refused
        request counts nothing; each fragment gets the per-request trace
        id (a batch joins them into ``{"results": [...]}``).  Single
        queries memoise the decision in the LRU; batched ones never touch
        it.  Raises :class:`RequestError` for client errors.
        """
        self.check_generation()
        tail = b'"trace_id":"' + trace_id.encode("ascii") + b'"}'
        metrics = self.metrics
        if isinstance(payload, dict) and "queries" in payload:
            queries = payload["queries"]
            if not isinstance(queries, list):
                raise RequestError(
                    400, "validation", "'queries' must be a JSON array"
                )
            if len(queries) > MAX_BATCH:
                raise RequestError(
                    400, "batch_too_large",
                    f"batch of {len(queries)} exceeds the limit of {MAX_BATCH}",
                )
            decided = []
            for index, query in enumerate(queries):
                key = self._validate(query, index)
                decided.append((key, self._decide(key)))
            fragments = []
            for key, answer in decided:
                self._account(key, answer)
                fragments.append(answer[0])
            metrics.queries.inc(float(len(fragments)))
            metrics.batch_queries.inc(float(len(fragments)))
            if not fragments:
                return b'{"results":[],' + tail
            return (
                b'{"results":[' + b"},".join(fragments) + b'}],' + tail
            )
        key = self._validate(payload)
        answer = self.cache.get(key)
        if answer is None:
            answer = self._decide(key)
            self.cache.put(key, answer)
            metrics.cache_misses.inc_key(_NO_LABELS)
        else:
            metrics.cache_hits.inc_key(_NO_LABELS)
        metrics.queries.inc_key(_NO_LABELS)
        self._account(key, answer)
        return answer[0] + b"," + tail


# -- HTTP front end ----------------------------------------------------------

#: ``(status, content_type, keep_alive, traced)`` → head template with a
#: ``%d`` Content-Length slot (and a ``%b`` X-Trace-Id slot when traced).
_HEAD_TEMPLATES: dict[tuple, bytes] = {}

#: ``(endpoint, status)`` → the sorted label key ``Counter.inc`` would
#: build for ``repro_requests_total``.  Bounded: a scanner probing many
#: distinct paths must not grow this without limit.
_REQUEST_KEYS: dict[tuple[str, int], tuple] = {}


def _request_key(endpoint: str, status: int) -> tuple:
    key = _REQUEST_KEYS.get((endpoint, status))
    if key is None:
        key = (("endpoint", endpoint), ("status", str(status)))
        if len(_REQUEST_KEYS) < 1024:
            _REQUEST_KEYS[(endpoint, status)] = key
    return key


def _head_template(
    status: int, content_type: str, keep_alive: bool, traced: bool
) -> bytes:
    key = (status, content_type, keep_alive, traced)
    template = _HEAD_TEMPLATES.get(key)
    if template is None:
        template = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Content-Length: %d\r\n"
            + ("X-Trace-Id: %b\r\n" if traced else "")
            + f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin1")
        _HEAD_TEMPLATES[key] = template
    return template


_JSON = "application/json"


def _field_values(headers: bytes, name: bytes) -> list[bytes]:
    """The stripped value of every ``name`` field in a lowercased head.

    ``name`` starts with CRLF (``b"\\r\\ncontent-length:"``) and
    ``headers`` with the CRLF that ends the request line, so a match is
    always a field name at a line start, never part of another field's
    name (``X-Content-Length``) or value.
    """
    values = []
    at = headers.find(name)
    while at >= 0:
        start = at + len(name)
        stop = headers.find(b"\r\n", start)
        if stop < 0:
            stop = len(headers)
        values.append(headers[start:stop].strip())
        at = headers.find(name, stop)
    return values


class _HttpProtocol(asyncio.Protocol):
    """One keep-alive connection, parsed and answered in-callback.

    Callback-based on purpose: request handling never awaits (the hot
    path is validation + bisect + bytes assembly), so going through the
    streams API would pay a task switch and coroutine frame per request
    for nothing — at pipeline depth that overhead dominates the actual
    work by an order of magnitude.  Slow-loris protection comes from a
    per-connection idle watchdog (`loop.call_later`, re-armed lazily)
    instead of a per-request ``wait_for`` task.
    """

    __slots__ = ("server", "transport", "buffer", "_paused", "_timer",
                 "_last_activity")

    def __init__(self, server: "HttpServer"):
        self.server = server
        self.transport = None
        self.buffer = bytearray()
        self._paused = False
        self._timer = None
        self._last_activity = 0.0

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport) -> None:
        server = self.server
        if server._draining:
            transport.close()
            return
        self.transport = transport
        server._connections.add(self)
        loop = server._loop
        self._last_activity = loop.time()
        if server.read_timeout:
            self._timer = loop.call_later(server.read_timeout, self._on_timer)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def eof_received(self) -> bool:
        return False  # close on client half-close

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self.buffer and self.transport is not None:
            self._process()

    def data_received(self, data: bytes) -> None:
        if self.transport is None:  # refused while draining
            return
        self.buffer += data
        self._last_activity = self.server._loop.time()
        self._process()

    # -- watchdog -----------------------------------------------------------

    def _on_timer(self) -> None:
        # Re-armed lazily: fires at most every read_timeout seconds and
        # closes once the connection has been idle at least that long
        # (worst-case close after < 2× read_timeout of idleness).
        server = self.server
        idle = server._loop.time() - self._last_activity
        if idle >= server.read_timeout:
            self._timer = None
            if self.transport is not None:
                self.transport.close()
        else:
            self._timer = server._loop.call_later(
                server.read_timeout - idle, self._on_timer
            )

    # -- request framing ----------------------------------------------------

    def _process(self) -> None:
        # All responses parsed out of one read land in ONE transport
        # write: at pipeline depth that turns ~N send syscalls into one,
        # which is a large share of the per-request budget.
        buf = self.buffer
        out: list[bytes] = []
        close = False
        while not self._paused:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                if len(buf) > MAX_HEADER:
                    out.append(self._read_error(RequestError(
                        400, "bad_request",
                        f"request head exceeds {MAX_HEADER} bytes",
                    )))
                    close = True
                break
            head = bytes(buf[:end])
            line_end = head.find(b"\r\n")
            if line_end < 0:
                line_end = len(head)
            parts = head[:line_end].split()
            if len(parts) != 3:
                out.append(self._read_error(RequestError(
                    400, "bad_request", "malformed request line"
                )))
                close = True
                break
            # Starts with the CRLF that ends the request line, so every
            # field name is searched for at a line start.
            headers_blob = head[line_end:].lower()
            length = 0
            error: RequestError | None = None
            lengths = _field_values(headers_blob, b"\r\ncontent-length:")
            if len(set(lengths)) > 1:
                # RFC 9112 §6.3: differing lengths make framing unknowable.
                error = RequestError(
                    400, "bad_request",
                    "conflicting Content-Length headers: "
                    + ", ".join(raw.decode("latin1") for raw in lengths),
                )
            elif lengths:
                raw = lengths[0]
                try:
                    # 1*DIGIT (RFC 9110 §8.6): int() alone would also take
                    # "+5" or "1_0".  It raises past its digit limit too.
                    if not raw.lstrip(b"-").isdigit():
                        raise ValueError(raw)
                    length = int(raw)
                except ValueError:
                    error = RequestError(
                        400, "bad_request",
                        "malformed Content-Length header: "
                        f"{raw.decode('latin1')!r}",
                    )
                else:
                    if length < 0:
                        error = RequestError(
                            400, "bad_request",
                            f"negative Content-Length: {length}",
                        )
            if error is None and length > MAX_BODY:
                error = RequestError(
                    413, "body_too_large",
                    f"request body of {length} bytes exceeds the limit of "
                    f"{MAX_BODY}",
                )
            if error is not None:
                # The body (if any) is unread, so the connection cannot
                # be reused — answer and close.
                out.append(self._read_error(error))
                close = True
                break
            total = end + 4 + length
            if len(buf) < total:
                break  # wait for the rest of the body
            body = bytes(buf[end + 4:total])
            del buf[:total]
            method = parts[0].decode("latin1")
            path = parts[1].decode("latin1").split("?", 1)[0]
            keep_alive = b"close" not in _field_values(
                headers_blob, b"\r\nconnection:"
            )
            out.append(self._handle(method, path, body, keep_alive))
            if not keep_alive:
                close = True
                break
        if out:
            self.transport.write(out[0] if len(out) == 1 else b"".join(out))
        if close:
            self.transport.close()

    def _read_error(self, error: RequestError) -> bytes:
        """Render a framing-level error response.  Counted against the
        synthetic ``(read)`` endpoint like the historical 413 path."""
        self.server.service.metrics.requests.inc(
            endpoint="(read)", status=str(error.status)
        )
        body = json.dumps(error.body()).encode("utf-8")
        head = _head_template(error.status, _JSON, False, False)
        return head % (len(body),) + body

    # -- routing + response -------------------------------------------------

    def _route(
        self, method: str, path: str, body: bytes, trace_id: str
    ) -> "tuple[int, bytes, str]":
        """Answer one parsed request: ``(status, body, content_type)``.

        Errors become typed JSON bodies; on ``/select`` they carry the
        request's trace id, like its answers.
        """
        service = self.server.service
        try:
            if path == "/select":
                if method != "POST":
                    raise RequestError(
                        405, "method_not_allowed",
                        f"{method} not allowed on {path}",
                    )
                try:
                    payload = json.loads(body.decode("utf-8") or "null")
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    raise RequestError(
                        400, "bad_json", f"request body is not JSON: {error}"
                    ) from None
                return 200, service.select_body(payload, trace_id), _JSON
            if path == "/metrics" and method == "GET":
                return (
                    200, service.metrics.render().encode("utf-8"),
                    "text/plain; version=0.0.4",
                )
            if path == "/healthz" and method == "GET":
                # The healthy shape is frozen ({"status": "ok", ...});
                # degraded adds a reason so probes can alert on it.
                result = {"status": "ok", "artifacts": len(service.registry)}
                if service.degraded_reason is not None:
                    result["status"] = "degraded"
                    result["reason"] = service.degraded_reason
                if service.tuner is not None:
                    # Present only when a SelfTuner is attached — the
                    # healthy shape without one stays frozen.
                    result["tuning"] = service.tuner.health()
            elif path == "/artifacts" and method == "GET":
                result = {
                    "artifacts": service.registry.summaries(),
                    "errors": dict(service.registry.errors),
                }
            elif path == "/reload" and method == "POST":
                # reload() never raises — a failed rescan flips the
                # service into degraded mode and keeps serving.
                result = service.reload()
            elif path in ("/reload", "/metrics", "/healthz", "/artifacts"):
                raise RequestError(
                    405, "method_not_allowed", f"{method} not allowed on {path}"
                )
            else:
                raise RequestError(
                    404, "not_found", f"no such endpoint: {path}"
                )
            return 200, json.dumps(result).encode("utf-8"), _JSON
        except RequestError as error:
            status, result = error.status, error.body()
        except Exception as error:  # never leak a traceback as a hung socket
            status = 500
            result = {"error": {"code": "internal", "message": str(error)}}
        if path == "/select":
            result["trace_id"] = trace_id
        return status, json.dumps(result).encode("utf-8"), _JSON

    def _handle(self, method: str, path: str, body: bytes,
                keep_alive: bool) -> bytes:
        server = self.server
        service = server.service
        recorder = obs.get_recorder()
        # The timer and trace-id source.  A forced ``http.request`` span
        # has observable effects only when someone is listening: the
        # recorder retains it, a finish hook runs on it, or the query
        # sampler nests ``select.query`` spans under it.  Otherwise the
        # span is pure per-request overhead, so time the request by hand
        # with the same clock and trace-id source instead.
        if recorder.enabled or recorder._hooks or service.sampler is not None:
            with obs.span(
                "http.request", force=True, method=method, endpoint=path
            ) as span:
                trace_id = span.trace_id
                status, response, content_type = self._route(
                    method, path, body, trace_id
                )
                span.set_attr("status", status)
            duration = span.duration
        else:
            start = time.perf_counter()
            trace_id = obs.new_trace_id()
            status, response, content_type = self._route(
                method, path, body, trace_id
            )
            duration = time.perf_counter() - start
        # observe_request_span, inlined: the label key is fetched from a
        # bounded cache instead of being sorted per request.
        metrics = service.metrics
        metrics.request_seconds.observe(duration)
        metrics.requests.inc_key(_request_key(path, status))
        if duration >= server.slow_request_seconds:
            _logger.warning(
                "slow request: %s %s -> %d in %.3fs (trace %s)",
                method, path, status, duration, trace_id,
            )
        head = _head_template(status, content_type, keep_alive, True)
        return head % (len(response), trace_id.encode("ascii")) + response


class HttpServer:
    """Asyncio HTTP front end with keep-alive, pipelining and drain."""

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        slow_request_seconds: float = DEFAULT_SLOW_REQUEST_SECONDS,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.slow_request_seconds = slow_request_seconds
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_HttpProtocol] = set()
        self._shutdown = asyncio.Event()
        self._draining = False

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when ephemeral.

        Raises :class:`~repro.errors.PortInUseError` when the port is
        already bound, so callers can tell "pick another port" apart from
        other socket failures.
        """
        self._loop = asyncio.get_running_loop()
        try:
            self._server = await self._loop.create_server(
                lambda: _HttpProtocol(self), self.host, self.port
            )
        except OSError as error:
            if error.errno == errno.EADDRINUSE:
                raise PortInUseError(
                    f"cannot listen on {self.host}:{self.port}: "
                    "address already in use"
                ) from error
            raise
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (signal handlers call this)."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown`, then drain and close.

        Draining stops accepting, finishes queued work and closes the
        connections.  Dispatch is synchronous inside ``data_received``,
        so no request is ever half-handled when control reaches here;
        one loop tick lets already-queued reads complete, then
        connections close.
        """
        await self._shutdown.wait()
        self._draining = True
        if self._server is not None:
            self._server.close()
        await asyncio.sleep(0)
        for connection in list(self._connections):
            if connection.transport is not None:
                connection.transport.close()
        if self._server is not None:
            await self._server.wait_closed()


async def _serve_async(service: SelectionService, host: str, port: int) -> int:
    server = HttpServer(service, host, port)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        loop.add_signal_handler(signal.SIGHUP, service.reload)
    except (NotImplementedError, RuntimeError, AttributeError):  # pragma: no cover
        pass
    print(
        f"repro selection service on http://{server.host}:{server.port} "
        f"({len(service.registry)} artifacts); SIGTERM drains, SIGHUP reloads"
    )
    await server.serve_until_shutdown()
    print("drained; bye")
    return 0


def serve(
    directory: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
) -> int:
    """Blocking entry point used by ``repro serve``."""
    registry = ArtifactRegistry(directory)
    service = SelectionService(registry)
    return asyncio.run(_serve_async(service, host, port))


class ServiceThread:
    """An :class:`HttpServer` on a private loop in a daemon thread.

    Context-manager: ``with ServiceThread(service) as handle:`` gives a
    running server at ``handle.port``; exit drains it.  Used by the test
    suite and the load harness — signal handlers are not installed
    (they only work on the main thread).
    """

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.server: HttpServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ServiceError("service thread did not start within 10 s")
        if self._error is not None:
            if isinstance(self._error, ServiceError):
                raise self._error  # typed: e.g. PortInUseError
            raise ServiceError(f"service thread failed: {self._error}")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = HttpServer(
            self.service, self.host, self.port,
            read_timeout=self.read_timeout,
        )
        try:
            await self.server.start()
        except (OSError, ServiceError) as error:
            self._error = error
            self._ready.set()
            return
        self.port = self.server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def stop(self) -> None:
        """Drain and join.  Idempotent: safe to call repeatedly, after a
        failed :meth:`start`, or on a thread that never started."""
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed by a previous stop()
        if self._thread.ident is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
