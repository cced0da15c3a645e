"""The ``serve`` workload: ``repro serve`` in a closed loop over HTTP.

One server process at a time serves the ``build_flat`` artifact (seed
0); this process is the load generator.  Each of :data:`SERVERS` fresh
servers is timed to its first answered ``/select`` and warmed up by one
cold pass; then, :data:`COLD_PASSES` times, it is given a cold pass after
``POST /reload`` (distinct single queries of the traffic, pipelined,
answered by a server with an empty LRU and uncompiled tables) followed
by alternating latency slices (one connection, one request in flight)
and saturation slices (two connections, a fixed pipelining depth) for a
share of the rest of the run.  Every response is checked byte for byte against the offline
``SelectionService.select_body`` rendering, which is itself checked
against ``DecisionTable.lookup``.

The gated serving costs are the server's CPU time up to its first
answer, per cold request and per query in the saturation slices.  The
wall-clock set-up, round trips and queries/s are reported beside them:
on a shared host the closed loop spends most of a round trip waiting
for the two processes to be scheduled, so those move with the host's
load more than with the program.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time

from common import (
    ROOT, Alternation, Checks, child_env, cpu_seconds, expected_hashes,
    median, peak_rss_mb, ready, run_child, summary, work_dir,
)
from layers import (
    NO_RUNNER, TUNING_LOOP_METRICS, attribute, layer_metrics, unexercised,
)
from traffic import request_bytes, serve_traffic

#: Requests in one traffic cycle; the load generator cycles through it.
TRAFFIC_REQUESTS = 16384
#: Requests of one cold pass: distinct single queries (a traffic cycle
#: holds about 8.9k).  A full garbage collection of the server's heap
#: (about 40 ms of CPU) lands in every third pass of 4096 or so, so the
#: passes are large and ``cold_s`` divides their summed CPU time by their
#: summed requests: a median of per-pass figures swung with how many
#: passes a collection happened to fall in.
COLD_REQUESTS = 8192
#: Fresh servers per run, one after the other, so every metric samples
#: the whole run: each is timed to its first answer, given cold passes,
#: then the alternating latency and saturation phases.
SERVERS = 2
#: Timed cold passes per server, each after a ``POST /reload``, which
#: empties the LRU and drops the compiled tables, so every pass starts
#: from the same state, and each followed by an equal share of the
#: server's latency and saturation slices, so the cold passes sample the
#: same stretches of the run as the slices do.  They follow one pass
#: right after launch, which is reported but not gated: its server has
#: compiled its first answer's table already and runs every code path
#: for the first time.
COLD_PASSES = 4
#: Seconds of latency and saturation slices per server at least,
#: whatever the run length; otherwise the slices after each cold pass
#: get an equal share of what is left of ``--seconds``.
MIN_PHASES_S = 2.0
CONNECTIONS = 2
#: Requests in one pipelined block; in the saturation phase and the cold
#: passes each connection has one or two blocks in flight.
DEPTH = 16
#: Length of one latency slice and of one saturation slice; they
#: alternate.  Only the saturation slices feed a gated metric, so they
#: get the larger share of the time.
LATENCY_SLICE_S = 0.25
SATURATION_SLICE_S = 0.5
#: The service's latency budget: a slower response is a failed one.
BUDGET_S = 0.050
#: Trace id the offline rendering is made with, replaced by the live one.
SENTINEL = b"perfbench-sentinel-trace-id"
ARTIFACT_FILE = "gros.json"


# -- worker side ---------------------------------------------------------------

def prepare(args: dict) -> dict:
    """Build (warm from a persistent cache after the first run) and save
    the ``build_flat`` artifact the server serves."""
    from build import make_spec, timed_build

    spec = make_spec("build_flat")
    ready()
    artifact, _seconds, _cpu_s, _stats = timed_build(
        spec, "build_flat", 0, args["cache"]
    )
    artifact.save(args["path"])
    return {"hash": artifact.content_hash()}


# -- HTTP client ---------------------------------------------------------------

class Connection:
    """A keep-alive client connection with response framing."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def response(self) -> tuple[int, bytes, bytes]:
        """``(status, trace_id, body)`` of the next response."""
        buf = self.buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                start = buf.find(b"Content-Length: ", 0, end) + 16
                length = int(buf[start:buf.find(b"\r\n", start)])
                total = end + 4 + length
                if len(buf) >= total:
                    head = bytes(buf[:end])
                    body = bytes(buf[end + 4:total])
                    del buf[:total]
                    marker = head.find(b"X-Trace-Id: ")
                    trace_id = (
                        head[marker + 12:head.find(b"\r\n", marker)]
                        if marker >= 0 else b""
                    )
                    return int(head[9:12]), trace_id, body
            chunk = self.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk

    def get(self, path: str) -> bytes:
        self.sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()
        )
        return self.response()[2]

    def post(self, path: bytes) -> bytes:
        self.sock.sendall(
            b"POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0"
            b"\r\n\r\n" % path
        )
        return self.response()[2]

    def close(self) -> None:
        self.sock.close()


class Server:
    """One ``repro serve`` process on an ephemeral port.

    ``setup_s`` runs from launch to the first answered ``/select``
    (import, artifact load and hash check, table compile); ``setup_cpu_s``
    is the server's CPU time up to then.  Until it stops, the server and
    this process (the load generator) move round the CPUs in step, each
    on a CPU of its own (see :class:`Alternation`).
    """

    def __init__(self, artifacts, first_request: bytes, trace_out=None):
        command = [sys.executable, "-m", "repro"]
        if trace_out is not None:
            command += ["trace", "--out", str(trace_out)]
        command += ["serve", "--artifacts", str(artifacts), "--port", "0"]
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self.log = open(work_dir("logs") / "server.err", "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.alternation = Alternation(self.proc.pid, os.getpid())
        try:
            match = re.search(
                r"http://[^:/]+:(\d+)", self.proc.stdout.readline()
            )
            if match is None:
                raise RuntimeError(
                    "server did not start:\n"
                    + (work_dir("logs") / "server.err").read_text()[-4000:]
                )
            self.port = int(match.group(1))
            conn = Connection(self.port)
            try:
                conn.sock.sendall(first_request)
                self.first = conn.response()
                self.setup_cpu_s = cpu_seconds(self.proc.pid)
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def metrics(self) -> str:
        conn = Connection(self.port)
        try:
            return conn.get("/metrics").decode()
        finally:
            conn.close()

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True on a clean exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.alternation.stop()
        self.log.close()
        return self.proc.returncode == 0 and "drained; bye" in out


def prometheus_total(text: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in a text exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


# -- expected responses ----------------------------------------------------------

class Expected:
    """The offline rendering of every request, split around the trace id.

    Built through a separate in-process ``SelectionService`` on the same
    artifact file; each rendering is checked against
    ``DecisionTable.lookup`` once, here, so a live response only has to
    match it byte for byte.
    """

    def __init__(self, artifacts, artifact, payloads, checks: Checks):
        from repro.service import ArtifactRegistry, SelectionService

        service = SelectionService(ArtifactRegistry(artifacts))
        self.parts = []
        for index, payload in enumerate(payloads):
            body = service.select_body(payload, SENTINEL.decode())
            prefix, suffix = body.split(SENTINEL)
            self.parts.append((prefix, suffix))
            checks.check(
                _agrees_with_table(artifact, payload, body),
                f"offline rendering of request {index} disagrees with "
                "DecisionTable.lookup",
            )

    def verify(self, checks: Checks, index: int, response, seconds=None):
        """Count one response: wrong if it differs from the offline
        rendering, failed if it took longer than the budget.  ``seconds``
        is None for set-up traffic (first answers, cold passes, warm-up),
        which pays one-time table compiles and has no latency budget."""
        status, trace_id, body = response
        prefix, suffix = self.parts[index]
        if status != 200 or body != prefix + trace_id + suffix:
            checks.check(False, f"request {index}: status {status}, body "
                                f"{body[:120]!r} differs from offline")
        else:
            checks.check(
                seconds is None or seconds <= BUDGET_S,
                f"request {index}: {seconds or 0.0:.4f} s over the budget",
                correctness=False,
            )


def _agrees_with_table(artifact, payload, body: bytes) -> bool:
    decoded = json.loads(body)
    queries = payload["queries"] if "queries" in payload else [payload]
    results = decoded["results"] if "queries" in payload else [decoded]
    if len(queries) != len(results):
        return False
    for query, result in zip(queries, results):
        table = artifact.entries[query["operation"]].table
        selection, clamped = table.lookup(query["procs"], query["nbytes"])
        if (
            result["algorithm"] != selection.algorithm
            or result["segment_size"] != selection.segment_size
            or result.get("clamped", False) != clamped
        ):
            return False
    return True


# -- load phases -------------------------------------------------------------------

def one_in_flight(conn, requests, expected, checks, indices,
                  budget: bool = True) -> list:
    """Send ``indices`` one at a time; round-trip seconds of each."""
    rtts = []
    for index in indices:
        started = time.perf_counter()
        conn.sock.sendall(requests[index])
        response = conn.response()
        rtt = time.perf_counter() - started
        rtts.append(rtt)
        expected.verify(checks, index, response, rtt if budget else None)
    return rtts


def _cycle(start: int, count: int):
    index = start
    while True:
        yield [(index + k) % TRAFFIC_REQUESTS for k in range(count)]
        index += count


def _pipelined(conns, requests, queries, expected, checks, blocks,
               deadline: float = math.inf, budget: bool = True) -> tuple:
    """Send ``blocks`` of request indices, :data:`DEPTH` long, until they
    run out or ``deadline``, then drain; ``(queries answered, of them in
    batches, wall seconds)``.

    Every connection keeps a second block queued at the server while
    this process reads and checks the responses to its first, so the
    server always has work: with one block per connection it went idle
    for each of those reads, and how many requests it then found per
    wake-up, hence its CPU per query, followed this process's own speed.
    """
    answered = batched = 0
    started = time.perf_counter()
    queued = [collections.deque() for _ in conns]

    def send(slot: int) -> None:
        block = next(blocks, None)
        if block is not None:
            queued[slot].append((block, time.perf_counter()))
            conns[slot].sock.sendall(
                b"".join(requests[index] for index in block)
            )

    for slot in range(len(conns)):
        send(slot)
    while any(queued):
        for slot, conn in enumerate(conns):
            if not queued[slot]:
                continue
            if time.perf_counter() < deadline:
                send(slot)
            block, at = queued[slot].popleft()
            for index in block:
                response = conn.response()
                seconds_taken = time.perf_counter() - at
                expected.verify(
                    checks, index, response, seconds_taken if budget else None
                )
                answered += queries[index]
                batched += queries[index] * (queries[index] > 1)
    return answered, batched, time.perf_counter() - started


def cold_pass(server, inputs, checks) -> float:
    """Server CPU seconds over one pass of the cold requests.

    Cold requests are single queries the server has not answered since
    it started or last reloaded, so every one misses the LRU (and the
    first of each collective compiles its table).  They are pipelined
    like the saturation slices, so the server works through them without
    sleeping in between: one request in flight would mostly measure its
    wake-ups, whose cost follows the host's load.  Not held to the
    latency budget, for those compiles.
    """
    cold = inputs["cold"]
    conns = [Connection(server.port) for _ in range(CONNECTIONS)]
    blocks = iter([cold[i:i + DEPTH] for i in range(0, len(cold), DEPTH)])
    cpu = cpu_seconds(server.proc.pid)
    _pipelined(conns, inputs["requests"], inputs["queries"],
               inputs["expected"], checks, blocks, budget=False)
    cpu = cpu_seconds(server.proc.pid) - cpu
    for conn in conns:
        conn.close()
    return cpu


def reload(server, checks: Checks) -> None:
    """``POST /reload``: the server rescans, empties its LRU and drops
    its compiled tables."""
    conn = Connection(server.port)
    try:
        reloaded = json.loads(conn.post(b"/reload"))
    finally:
        conn.close()
    checks.check(
        reloaded == {"artifacts": 1, "errors": {}},
        f"POST /reload did not rescan cleanly: {reloaded}",
    )


def steady_phases(server, inputs, checks, seconds: float,
                  budget: bool = True) -> dict:
    """Latency and saturation phases on a warm server (after a cold pass).

    The two phases alternate in slices until ``seconds`` have run, so
    both see the same machine conditions: latency slices
    send one request at a time on the server's first connection,
    saturation slices keep :data:`DEPTH` requests in flight on each of
    the :data:`CONNECTIONS` connections.  Returns the round trips (with
    the request index of each) and, per saturation slice, the queries
    answered, of them in batches, and its wall and server CPU seconds.
    ``budget=False`` exempts the responses from the latency budget (a
    traced server retains every span, and collecting that heap stalls
    it).
    """
    requests, expected = inputs["requests"], inputs["expected"]
    conns = [Connection(server.port) for _ in range(CONNECTIONS)]
    singles = _cycle(1, 64)
    bursts = _cycle(0, DEPTH)
    rtts, indices = [], []
    slices = {"queries": [], "batched": [], "wall": [], "cpu": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        slice_end = time.perf_counter() + LATENCY_SLICE_S
        while time.perf_counter() < slice_end:
            block = next(singles)
            rtts += one_in_flight(
                conns[0], requests, expected, checks, block, budget
            )
            indices += block
        cpu = cpu_seconds(server.proc.pid)
        answered, batched, wall = _pipelined(
            conns, requests, inputs["queries"], expected, checks, bursts,
            time.perf_counter() + SATURATION_SLICE_S, budget,
        )
        slices["cpu"].append(cpu_seconds(server.proc.pid) - cpu)
        slices["queries"].append(answered)
        slices["batched"].append(batched)
        slices["wall"].append(wall)
    for conn in conns:
        conn.close()
    return dict(slices, rtts=rtts, indices=indices)


# -- the workload ------------------------------------------------------------------

def _inputs(seed: int, checks: Checks) -> dict:
    from repro.service import load_artifact

    artifacts = work_dir("serve", "artifacts", fresh=True)
    path = artifacts / ARTIFACT_FILE
    run_child("serve.prepare", {
        "cache": str(work_dir("serve", "cache")), "path": str(path),
    })
    artifact = load_artifact(path)
    checks.check(
        artifact.content_hash() == expected_hashes()["build_flat"],
        f"served artifact {artifact.artifact_id} is not the recorded one",
    )
    grid = {
        operation: (entry.table.proc_points, entry.table.size_points)
        for operation, entry in artifact.entries.items()
    }
    payloads = serve_traffic(seed, artifact.cluster, grid, TRAFFIC_REQUESTS)
    seen = {json.dumps(payloads[0], sort_keys=True)}
    cold = []
    for index, payload in enumerate(payloads):
        key = json.dumps(payload, sort_keys=True)
        if "queries" not in payload and key not in seen:
            seen.add(key)
            cold.append(index)
    return {
        "cold": cold[:COLD_REQUESTS],
        "artifacts": artifacts,
        "artifact": artifact,
        "payloads": payloads,
        "requests": [request_bytes(payload) for payload in payloads],
        "queries": [len(p["queries"]) if "queries" in p else 1 for p in payloads],
        "expected": Expected(artifacts, artifact, payloads, checks),
    }


@contextlib.contextmanager
def serving(inputs, checks: Checks, trace_out=None):
    """A fresh server, its first answer checked; always stopped after."""
    server = Server(inputs["artifacts"], inputs["requests"][0], trace_out)
    try:
        inputs["expected"].verify(checks, 0, server.first)
        yield server
    finally:
        checks.check(server.stop(), "server did not drain and exit cleanly")


def run(seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()
    checks = Checks()
    inputs = _inputs(seed, checks)
    if traced:
        return _run_traced(inputs, checks, seconds)
    setups, setup_cpu, first_cpu, cold_cpu = [], [], [], []
    rtts, rss, expositions = [], [], []
    slices = {"queries": [], "batched": [], "wall": [], "cpu": []}
    for index in range(SERVERS):
        with serving(inputs, checks) as server:
            setups.append(server.setup_s)
            setup_cpu.append(server.setup_cpu_s)
            first_cpu.append(cold_pass(server, inputs, checks))
            for chunk in range(COLD_PASSES):
                reload(server, checks)
                cold_cpu.append(cold_pass(server, inputs, checks))
                left = started + seconds - time.perf_counter()
                chunks = (SERVERS - index) * COLD_PASSES - chunk
                phases = steady_phases(
                    server, inputs, checks,
                    max(MIN_PHASES_S / COLD_PASSES, left / chunks),
                )
                rtts += phases["rtts"]
                for key, values in slices.items():
                    values += phases[key]
            rss.append(peak_rss_mb(server.proc.pid))
            expositions.append(server.metrics())

    per_request = 1e6 / len(inputs["cold"])
    queries, cpu = sum(slices["queries"]), sum(slices["cpu"])
    metrics = {
        "setup_s": median(setup_cpu),
        "cold_s": sum(cold_cpu) / (len(cold_cpu) * len(inputs["cold"])),
        "ops_per_s": queries / cpu,
        "peak_rss_mb": median(rss),
    }
    return {
        "metrics": metrics,
        "samples": {
            "setup_s": len(setup_cpu),
            "cold_s": len(cold_cpu) * len(inputs["cold"]),
            "ops_per_s": queries, "peak_rss_mb": len(rss),
        },
        "checks": checks,
        "details": {
            "setup_s": summary(setup_cpu, "s"),
            "setup_wall_s": summary(setups, "s"),
            "cold_cpu_us": summary(
                [pass_cpu * per_request for pass_cpu in cold_cpu], "us"
            ),
            "first_pass_cpu_us": summary(
                [pass_cpu * per_request for pass_cpu in first_cpu], "us"
            ),
            "rtt_us": summary([rtt * 1e6 for rtt in rtts], "us"),
            "qps_cpu": summary([
                answered / busy
                for answered, busy in zip(slices["queries"], slices["cpu"])
            ], "1/s"),
            "qps": summary([
                answered / wall
                for answered, wall in zip(slices["queries"], slices["wall"])
            ], "1/s"),
            "server_busy": cpu / sum(slices["wall"]),
            "qps_batch_query_share": sum(slices["batched"]) / queries,
            "lru_hit_ratio": _lru_hit_ratio("\n".join(expositions)),
            "error_rate": checks.error_rate,
        },
    }


def _lru_hit_ratio(exposition: str) -> float:
    hits = prometheus_total(exposition, "repro_query_cache_hits_total")
    misses = prometheus_total(exposition, "repro_query_cache_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def _single_rtts(rtts, indices, payloads) -> list:
    return [
        rtt for rtt, index in zip(rtts, indices)
        if "queries" not in payloads[index]
    ]


def _run_traced(inputs, checks: Checks, seconds: float) -> dict:
    """Untraced and traced latency phases, server metrics, offline replay."""
    from repro import obs

    payloads = inputs["payloads"]
    phase = max(2 * SATURATION_SLICE_S, seconds / 4)
    with serving(inputs, checks) as server:
        cold_pass(server, inputs, checks)
        phases = steady_phases(server, inputs, checks, phase)
        exposition = server.metrics()
    rtts, indices = phases["rtts"], phases["indices"]

    trace_path = work_dir("serve", "traces", fresh=True) / "server.jsonl"
    with serving(inputs, checks, trace_out=trace_path) as server:
        cold_pass(server, inputs, checks)
        traced_rtts = steady_phases(
            server, inputs, checks, phase, budget=False
        )["rtts"]
    spans = len(obs.load_jsonl(trace_path))

    replay = offline_replay(inputs)
    rtt_single_us = median(_single_rtts(rtts, indices, payloads)) * 1e6
    in_service_us = replay["parse_us"] + replay["answer_us.single"]
    residual_us = rtt_single_us - in_service_us
    queries = prometheus_total(exposition, "repro_select_queries_total")
    batch = prometheus_total(exposition, "repro_select_batch_queries_total")
    # The server runs in a process of its own, so this process has no
    # span tree or runner of it: the span-derived metrics of the build
    # pipeline read 0 (serving does not run it), the tuning loop is not
    # exercised, and the serving layers are measured below.
    metrics = layer_metrics(attribute([]), NO_RUNNER)
    metrics.update(unexercised(TUNING_LOOP_METRICS))
    metrics.update({
        "artifact.load_s": replay["load_s"],
        "service.reload_s": replay["reload_s"],
        "selection.lookup_ns": replay["lookup_ns"],
        "selection.self_s": replay["lookup_ns"] * 1e-9,
        "service.parse_us": replay["parse_us"],
        "service.answer_us.single": replay["answer_us.single"],
        "service.answer_us.batch": replay["answer_us.batch"],
        "service.compile_s": replay["compile_s"],
        "service.http_residual_us": residual_us,
        "service.lru_hit_ratio": _lru_hit_ratio(exposition),
        "service.batch_query_share": batch / queries if queries else 0.0,
        "service.self_s": (in_service_us - replay["lookup_ns"] / 1e3) * 1e-6,
        "residual_s": residual_us * 1e-6,
        "obs.overhead": median(traced_rtts) / median(rtts) - 1.0,
        "obs.spans": spans,
    })
    return {
        "metrics": metrics,
        "checks": checks,
        "details": {
            "rtt_single_us": rtt_single_us,
            "replay": replay,
            "traced_rtt_us": summary([r * 1e6 for r in traced_rtts], "us"),
        },
    }


def _median_seconds(call) -> float:
    """Median wall time of five calls of ``call``."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return median(samples)


def offline_replay(inputs) -> dict:
    """The server's set-up steps and per-request work, in process.

    ``load_artifact`` of the served file and ``SelectionService.reload``
    (what ``POST /reload`` runs) are timed, medians of five.  Then the
    same request bodies go through ``json.loads`` and
    ``SelectionService.select_body`` on a fresh service (one untimed
    pass first, so the LRU holds what the server's does in its steady
    state); ``FlatDecisionTable.lookup`` is timed over the single
    queries.  Medians per request, in microseconds (lookup: ns).
    """
    from repro.service import (
        ArtifactRegistry, SelectionService, load_artifact,
    )

    payloads = inputs["payloads"]
    bodies = [request.split(b"\r\n\r\n", 1)[1] for request in inputs["requests"]]
    trace_id = SENTINEL.decode()
    load_s = _median_seconds(
        lambda: load_artifact(inputs["artifacts"] / ARTIFACT_FILE)
    )

    service = SelectionService(ArtifactRegistry(inputs["artifacts"]))
    reload_s = _median_seconds(service.reload)
    first = [
        {"cluster": inputs["artifact"].cluster, "operation": operation,
         "procs": 64, "nbytes": 65536}
        for operation in sorted(inputs["artifact"].entries)
    ]
    started = time.perf_counter()
    for query in first:
        service.select_body(query, trace_id)
    cold = time.perf_counter() - started
    started = time.perf_counter()
    for query in first:
        service.select_body(query, trace_id)
    compile_s = cold - (time.perf_counter() - started)

    for body in bodies:
        service.select_body(json.loads(body), trace_id)
    parse, answer = [], {"single": [], "batch": []}
    clock = time.perf_counter_ns
    for body, payload in zip(bodies, payloads):
        t0 = clock()
        decoded = json.loads(body)
        t1 = clock()
        service.select_body(decoded, trace_id)
        t2 = clock()
        kind = "batch" if "queries" in payload else "single"
        if kind == "single":
            parse.append(t1 - t0)
        answer[kind].append(t2 - t1)

    flat = inputs["artifact"].flat_tables()
    singles = [
        (flat[p["operation"]].lookup, p["procs"], p["nbytes"])
        for p in payloads if "queries" not in p
    ]
    t0 = clock()
    for lookup, procs, nbytes in singles:
        lookup(procs, nbytes)
    lookup_ns = (clock() - t0) / len(singles)
    return {
        "parse_us": median(parse) / 1e3,
        "answer_us.single": median(answer["single"]) / 1e3,
        "answer_us.batch": median(answer["batch"]) / 1e3,
        "lookup_ns": lookup_ns,
        "compile_s": compile_s,
        "load_s": load_s,
        "reload_s": reload_s,
    }
