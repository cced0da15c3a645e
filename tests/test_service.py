"""Tests for the deployment subsystem: artifacts + the selection server.

The round-trip invariant under test (ISSUE 2 satellite): build → save →
load → serve must agree with offline ``DecisionTable.select`` and with
the ``compile_python`` decision function on every grid cell and on
off-grid points.
"""

from __future__ import annotations

import json
import random
import threading
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.clusters import MINICLUSTER
from repro.errors import ArtifactError
from repro.selection.codegen import compile_python
from repro.service import (
    ARTIFACT_SCHEMA,
    ArtifactRegistry,
    LruCache,
    RequestError,
    SelectionService,
    ServiceThread,
    build_artifact,
    load_artifact,
)
from repro.service.metrics import Histogram, ServiceMetrics
from repro.units import KiB, MiB, log_spaced_sizes

GRID_PROCS = tuple(range(2, 17, 2))
GRID_SIZES = tuple(log_spaced_sizes(8 * KiB, 1 * MiB, 6))


@pytest.fixture(scope="module")
def artifact(mini_platform):
    """An artifact over the shared test calibration (no re-simulation)."""
    return build_artifact(
        MINICLUSTER,
        proc_points=GRID_PROCS,
        size_points=GRID_SIZES,
        platforms={"bcast": mini_platform},
    )


@pytest.fixture(scope="module")
def artifact_dir(artifact, tmp_path_factory):
    directory = tmp_path_factory.mktemp("artifacts")
    artifact.save(directory / "minicluster.json")
    return directory


def off_grid_points(count=20, seed=7):
    rng = random.Random(seed)
    return [
        (rng.randint(2, GRID_PROCS[-1] + 5), rng.randint(1, 2 * GRID_SIZES[-1]))
        for _ in range(count)
    ]


class TestArtifact:
    def test_identity_fields(self, artifact):
        assert artifact.cluster == "minicluster"
        assert artifact.cluster_fingerprint == MINICLUSTER.fingerprint()
        assert artifact.operations == ["bcast"]
        assert artifact.artifact_id.startswith("minicluster-")

    def test_verify_passes(self, artifact):
        artifact.verify()

    def test_content_hash_deterministic(self, artifact, mini_platform):
        rebuilt = build_artifact(
            MINICLUSTER,
            proc_points=GRID_PROCS,
            size_points=GRID_SIZES,
            platforms={"bcast": mini_platform},
        )
        assert rebuilt.content_hash() == artifact.content_hash()

    def test_save_load_round_trip(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "a.json")
        loaded = load_artifact(path)
        assert loaded.content_hash() == artifact.content_hash()
        assert loaded.entries["bcast"].table == artifact.entries["bcast"].table
        loaded.verify()

    def test_round_trip_agrees_on_grid_and_off_grid(self, artifact, tmp_path):
        """Grid cells + 20 off-grid points: table == compiled fn == loaded."""
        loaded = load_artifact(artifact.save(tmp_path / "b.json"))
        table = artifact.entries["bcast"].table
        fn = compile_python(table)
        stored_fn = loaded.entries["bcast"].compile()
        points = [
            (p, m) for p in table.proc_points for m in table.size_points
        ] + off_grid_points(20)
        for procs, nbytes in points:
            expected = table.select(procs, nbytes)
            assert loaded.select("bcast", procs, nbytes) == expected
            pair = (expected.algorithm, expected.segment_size)
            assert fn(procs, nbytes) == pair
            assert stored_fn(procs, nbytes) == pair

    def test_load_rejects_tampered_payload(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "c.json")
        data = json.loads(path.read_text())
        data["payload"]["cluster"] = "impostor"
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_artifact(path)

    def test_load_rejects_wrong_schema(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "d.json")
        data = json.loads(path.read_text())
        data["schema"] = ARTIFACT_SCHEMA + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactError, match="schema"):
            load_artifact(path)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("not an artifact")
        with pytest.raises(ArtifactError, match="not JSON"):
            load_artifact(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(tmp_path / "absent.json")

    def test_unknown_collective_needs_platform(self):
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            build_artifact(MINICLUSTER, collectives=("reduce_scatter",))


class TestRegistry:
    def test_scan_lookup_and_errors(self, artifact, tmp_path):
        artifact.save(tmp_path / "good.json")
        (tmp_path / "bad.json").write_text("{}")
        registry = ArtifactRegistry(tmp_path)
        assert len(registry) == 1
        assert "bad.json" in registry.errors
        found = registry.lookup("minicluster", "bcast")
        assert found.content_hash() == artifact.content_hash()
        with pytest.raises(ArtifactError, match="no artifact"):
            registry.lookup("minicluster", "reduce")
        summaries = registry.summaries()
        assert summaries[0]["cluster"] == "minicluster"
        assert summaries[0]["file"] == "good.json"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            ArtifactRegistry(tmp_path / "nowhere")


class TestLruCache:
    def test_hit_miss_accounting(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3


class TestMetrics:
    def test_histogram_buckets_cumulative(self):
        histogram = Histogram("h", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        lines = histogram.render()
        assert 'h_bucket{le="0.1"} 1' in lines
        assert 'h_bucket{le="1.0"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_count 3" in lines

    def test_render_is_prometheus_text(self):
        metrics = ServiceMetrics()
        metrics.requests.inc(endpoint="/select", status="200")
        text = metrics.render()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_requests_total{endpoint="/select",status="200"} 1' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_query_cache_hit_ratio" in text


class Client:
    """Tiny keep-alive JSON client for the test server."""

    def __init__(self, port):
        self.conn = HTTPConnection("127.0.0.1", port, timeout=10)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body)
        response = self.conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        data = json.loads(raw) if "json" in content_type else raw.decode()
        return response.status, data

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def server(artifact_dir):
    service = SelectionService(ArtifactRegistry(artifact_dir), cache_size=64)
    with ServiceThread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    client = Client(server.port)
    yield client
    client.close()


class TestServer:
    def test_healthz(self, client):
        status, data = client.request("GET", "/healthz")
        assert status == 200
        assert data == {"status": "ok", "artifacts": 1}

    def test_single_select_matches_offline_table(self, client, artifact):
        table = artifact.entries["bcast"].table
        status, data = client.request(
            "POST", "/select",
            {"cluster": "minicluster", "procs": 12, "nbytes": 200_000},
        )
        assert status == 200
        expected = table.select(12, 200_000)
        assert data["algorithm"] == expected.algorithm
        assert data["segment_size"] == expected.segment_size
        assert data["operation"] == "bcast"
        assert data["artifact"] == artifact.artifact_id

    def test_batched_select_bit_identical_everywhere(self, client, artifact):
        """Served batch == offline table on every grid cell + 20 off-grid."""
        table = artifact.entries["bcast"].table
        fn = compile_python(table)
        points = [
            (p, m) for p in table.proc_points for m in table.size_points
        ] + off_grid_points(20)
        queries = [
            {"cluster": "minicluster", "operation": "bcast",
             "procs": p, "nbytes": m}
            for p, m in points
        ]
        status, data = client.request("POST", "/select", {"queries": queries})
        assert status == 200
        assert len(data["results"]) == len(points)
        for (procs, nbytes), result in zip(points, data["results"]):
            expected = table.select(procs, nbytes)
            assert result["algorithm"] == expected.algorithm
            assert result["segment_size"] == expected.segment_size
            assert fn(procs, nbytes) == (
                result["algorithm"], result["segment_size"]
            )

    @pytest.mark.parametrize(
        "query,fragment",
        [
            ({"procs": 4, "nbytes": 100}, "cluster"),
            ({"cluster": "minicluster", "nbytes": 100}, "procs"),
            ({"cluster": "minicluster", "procs": 0, "nbytes": 1}, "procs"),
            ({"cluster": "minicluster", "procs": 4, "nbytes": -1}, "nbytes"),
            ({"cluster": "minicluster", "procs": True, "nbytes": 1}, "procs"),
            ({"cluster": "minicluster", "procs": 4}, "nbytes"),
        ],
    )
    def test_validation_errors_are_typed_400s(self, client, query, fragment):
        status, data = client.request("POST", "/select", query)
        assert status == 400
        assert data["error"]["code"] == "validation"
        assert fragment in data["error"]["message"]

    def test_batch_error_names_the_query_index(self, client):
        queries = [
            {"cluster": "minicluster", "procs": 4, "nbytes": 100},
            {"cluster": "minicluster", "procs": "four", "nbytes": 100},
        ]
        status, data = client.request("POST", "/select", {"queries": queries})
        assert status == 400
        assert "query #1" in data["error"]["message"]

    def test_unknown_cluster_is_404(self, client):
        status, data = client.request(
            "POST", "/select",
            {"cluster": "atlantis", "procs": 4, "nbytes": 100},
        )
        assert status == 404
        assert data["error"]["code"] == "unknown_artifact"

    def test_bad_json_body(self, server):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/select", "{not json")
        response = conn.getresponse()
        data = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert data["error"]["code"] == "bad_json"

    def test_unknown_endpoint_and_wrong_method(self, client):
        status, data = client.request("GET", "/nope")
        assert status == 404 and data["error"]["code"] == "not_found"
        status, data = client.request("GET", "/select")
        assert status == 405 and data["error"]["code"] == "method_not_allowed"

    def test_artifacts_listing(self, client, artifact):
        status, data = client.request("GET", "/artifacts")
        assert status == 200
        assert data["errors"] == {}
        [summary] = data["artifacts"]
        assert summary["id"] == artifact.artifact_id
        assert summary["content_hash"] == artifact.content_hash()
        assert summary["operations"]["bcast"]["proc_points"] == len(GRID_PROCS)

    def test_repeat_query_hits_lru_cache(self, client, server):
        query = {"cluster": "minicluster", "procs": 14, "nbytes": 123_456}
        before = server.service.metrics.cache_hits.total()
        client.request("POST", "/select", query)
        client.request("POST", "/select", query)
        assert server.service.metrics.cache_hits.total() > before

    def test_metrics_endpoint_exposes_counters(self, client):
        client.request(
            "POST", "/select",
            {"cluster": "minicluster", "procs": 4, "nbytes": 8192},
        )
        status, text = client.request("GET", "/metrics")
        assert status == 200
        assert 'repro_requests_total{endpoint="/select",status="200"}' in text
        assert "repro_request_seconds_bucket" in text
        assert 'repro_selections_total{algorithm="' in text
        assert "repro_query_cache_hit_ratio" in text
        assert "repro_artifacts_loaded 1" in text


class TestReload:
    def test_hot_reload_picks_up_new_artifact(self, artifact, mini_platform,
                                              tmp_path):
        artifact.save(tmp_path / "one.json")
        service = SelectionService(ArtifactRegistry(tmp_path))
        with ServiceThread(service) as handle:
            client = Client(handle.port)
            # A second artifact with a coarser grid appears on disk...
            coarse = build_artifact(
                MINICLUSTER,
                proc_points=(2, 16),
                size_points=GRID_SIZES,
                platforms={"bcast": mini_platform},
            )
            coarse.save(tmp_path / "two.json")
            status, data = client.request("GET", "/artifacts")
            assert len(data["artifacts"]) == 1
            status, data = client.request("POST", "/reload")
            assert status == 200 and data["artifacts"] == 2
            status, data = client.request("GET", "/artifacts")
            assert len(data["artifacts"]) == 2
            # ...and lexically-last file now answers the queries.
            status, data = client.request(
                "POST", "/select",
                {"cluster": "minicluster", "procs": 8, "nbytes": 8192},
            )
            assert data["artifact"] == coarse.artifact_id
            client.close()


class TestConcurrency:
    def test_parallel_clients_get_bit_identical_answers(self, server, artifact):
        table = artifact.entries["bcast"].table
        points = off_grid_points(40, seed=13)
        failures: list[str] = []

        def worker():
            client = Client(server.port)
            for procs, nbytes in points:
                _, data = client.request(
                    "POST", "/select",
                    {"cluster": "minicluster", "procs": procs,
                     "nbytes": nbytes},
                )
                expected = table.select(procs, nbytes)
                if (data["algorithm"], data["segment_size"]) != (
                    expected.algorithm, expected.segment_size
                ):
                    failures.append(f"{procs},{nbytes}: {data}")
            client.close()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


# -- robustness: degraded mode, lifecycle, limits (ISSUE 3) -----------------


@pytest.fixture()
def fragile_setup(artifact, tmp_path):
    """A service over its own directory, safe to corrupt per-test."""
    path = tmp_path / "minicluster.json"
    artifact.save(path)
    service = SelectionService(ArtifactRegistry(tmp_path), cache_size=64)
    return service, path


QUERY = {"cluster": "minicluster", "procs": 8, "nbytes": 64 * KiB}


class TestDegradedMode:
    def test_tampered_artifact_keeps_last_known_good(self, fragile_setup):
        service, path = fragile_setup
        with ServiceThread(service) as handle:
            client = Client(handle.port)
            status, before = client.request("POST", "/select", QUERY)
            assert status == 200

            good = path.read_text()
            path.write_text(good.replace('"bcast"', '"bcXst"', 1))
            status, data = client.request("POST", "/reload")
            assert status == 200
            assert data["status"] == "degraded"
            assert "minicluster.json" in data["degraded"]

            # Selections keep flowing, bit-identical to pre-corruption
            # (modulo the per-request trace id).
            status, after = client.request("POST", "/select", QUERY)
            after.pop("trace_id", None)
            before.pop("trace_id", None)
            assert status == 200 and after == before

            status, health = client.request("GET", "/healthz")
            assert health["status"] == "degraded"
            assert "minicluster.json" in health["reason"]
            _, text = client.request("GET", "/metrics")
            assert "repro_service_degraded 1" in text

            # Restoring the file heals the service on the next reload.
            path.write_text(good)
            status, data = client.request("POST", "/reload")
            assert status == 200 and "status" not in data
            status, health = client.request("GET", "/healthz")
            assert health == {"status": "ok", "artifacts": 1}
            _, text = client.request("GET", "/metrics")
            assert "repro_service_degraded 0" in text
            client.close()

    def test_failed_rescan_flips_degraded_and_keeps_serving(
        self, fragile_setup, monkeypatch
    ):
        service, _path = fragile_setup

        def explode():
            raise ArtifactError("directory walked off")

        with ServiceThread(service) as handle:
            client = Client(handle.port)
            monkeypatch.setattr(service.registry, "rescan", explode)
            status, data = client.request("POST", "/reload")
            assert status == 200 and data["status"] == "degraded"
            assert "directory walked off" in data["reason"]
            status, answer = client.request("POST", "/select", QUERY)
            assert status == 200 and "algorithm" in answer
            _, text = client.request("GET", "/metrics")
            assert "repro_artifact_reload_failures_total 1" in text
            assert "repro_service_degraded 1" in text
            client.close()

    def test_reload_over_corrupt_artifact_never_interrupts_selects(
        self, fragile_setup
    ):
        """Hammer /select from several threads while the artifact file is
        corrupted and reloaded mid-stream: every response is 200 and
        bit-identical."""
        service, path = fragile_setup
        with ServiceThread(service) as handle:
            probe = Client(handle.port)
            _, expected = probe.request("POST", "/select", QUERY)
            expected.pop("trace_id", None)
            failures: list[str] = []
            stop = threading.Event()

            def hammer():
                client = Client(handle.port)
                while not stop.is_set():
                    status, data = client.request("POST", "/select", QUERY)
                    data.pop("trace_id", None)
                    if status != 200 or data != expected:
                        failures.append(f"{status}: {data}")
                        break
                client.close()

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            good = path.read_text()
            for _ in range(5):
                path.write_text(good.replace('"bcast"', '"bcXst"', 1))
                probe.request("POST", "/reload")
                path.write_text(good)
                probe.request("POST", "/reload")
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not failures
            probe.close()


class TestServiceThreadLifecycle:
    def test_stop_is_idempotent(self, fragile_setup):
        service, _path = fragile_setup
        handle = ServiceThread(service).start()
        handle.stop()
        handle.stop()  # second stop: no-op, no exception

    def test_stop_before_start_is_noop(self, fragile_setup):
        service, _path = fragile_setup
        ServiceThread(service).stop()  # never started: nothing to join

    def test_port_in_use_raises_typed_error(self, fragile_setup):
        import socket

        from repro.errors import PortInUseError, ServiceError

        service, _path = fragile_setup
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(PortInUseError, match="already in use"):
                ServiceThread(service, port=port).start()
            assert issubclass(PortInUseError, ServiceError)
        finally:
            blocker.close()


class TestRequestLimits:
    def test_oversized_body_gets_413(self, fragile_setup):
        import socket

        from repro.service.server import MAX_BODY

        service, _path = fragile_setup
        with ServiceThread(service) as handle:
            raw = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
            try:
                raw.sendall(
                    b"POST /select HTTP/1.1\r\n"
                    b"Host: test\r\n"
                    + f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode()
                )
                response = raw.recv(65536).decode()
                assert response.startswith("HTTP/1.1 413 ")
                assert "body_too_large" in response
            finally:
                raw.close()

    def test_slow_client_times_out(self, fragile_setup):
        import socket
        import time as _time

        service, _path = fragile_setup
        with ServiceThread(service, read_timeout=0.3) as handle:
            raw = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
            try:
                raw.sendall(b"POST /select HTTP/1.1\r\n")  # never finishes
                raw.settimeout(5)
                started = _time.monotonic()
                assert raw.recv(1024) == b""  # server closed the socket
                assert _time.monotonic() - started < 4
            finally:
                raw.close()

    def test_normal_requests_unaffected_by_read_timeout(self, fragile_setup):
        service, _path = fragile_setup
        with ServiceThread(service, read_timeout=0.5) as handle:
            client = Client(handle.port)
            status, data = client.request("POST", "/select", QUERY)
            assert status == 200 and "algorithm" in data
            client.close()


class TestMalformedContentLength:
    """Bugfix: a malformed or negative ``Content-Length`` used to be
    swallowed by a broad ``ValueError`` handler and silently dropped the
    connection; it must be a typed 400 counted against ``(read)`` like
    the historical 413 path."""

    @pytest.mark.parametrize("value,fragment", [
        ("nope", "malformed Content-Length"),
        ("12x", "malformed Content-Length"),
        ("-5", "negative Content-Length"),
    ])
    def test_bad_content_length_is_typed_400(
        self, fragile_setup, value, fragment
    ):
        import socket

        service, _path = fragile_setup
        with ServiceThread(service) as handle:
            raw = socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10
            )
            try:
                raw.sendall(
                    b"POST /select HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {value}\r\n\r\n".encode()
                )
                response = raw.recv(65536).decode()
                assert response.startswith("HTTP/1.1 400 ")
                assert "bad_request" in response
                assert fragment in response
                raw.settimeout(5)
                assert raw.recv(1024) == b""  # read errors close the socket
            finally:
                raw.close()
            client = Client(handle.port)
            status, text = client.request("GET", "/metrics")
            client.close()
            assert status == 200
            assert (
                'repro_requests_total{endpoint="(read)",status="400"} 1'
                in text
            )


class TestRegistrySwapInvalidation:
    """Bugfix audit: any registry mutation must invalidate warm LRU
    entries even when nobody calls ``service.reload()`` — the registry
    generation counter covers direct ``rescan()`` callers."""

    def test_rescan_without_reload_serves_fresh_artifact(
        self, artifact, mini_platform, tmp_path
    ):
        old = tmp_path / "a.json"
        artifact.save(old)
        registry = ArtifactRegistry(tmp_path)
        service = SelectionService(registry, cache_size=64)
        query = dict(QUERY, operation="bcast")
        warm = json.loads(service.select_body(dict(query), "t"))
        assert warm["artifact"] == artifact.artifact_id
        # Swap the directory contents and rescan the registry directly,
        # bypassing service.reload() — the served answer must still
        # come from the new artifact, never the warm cache entry.
        coarse = build_artifact(
            MINICLUSTER,
            proc_points=(2, 8),
            size_points=(8 * KiB, 1 * MiB),
            platforms={"bcast": mini_platform},
        )
        assert coarse.artifact_id != artifact.artifact_id
        old.unlink()
        coarse.save(tmp_path / "b.json")
        registry.rescan()
        served = json.loads(service.select_body(dict(query), "t"))
        assert served["artifact"] == coarse.artifact_id
        batch = json.loads(service.select_body(
            {"queries": [dict(query)]}, "t"
        ))["results"][0]
        assert batch["artifact"] == coarse.artifact_id


class TestRefusedRequestsCountNothing:
    """Bugfix: a refused request answers no query, so it moves no
    ``repro_select*`` series and no LRU counter, and offers no sampled
    ``select.query`` span to the self-tuning loop."""

    #: Below the grid, so each answer would also count as clamped.
    BELOW_GRID = {"cluster": "minicluster", "procs": 1, "nbytes": 0}
    UNKNOWN = {"cluster": "nowhere", "procs": 4, "nbytes": 1024}

    @pytest.fixture
    def service(self, artifact):
        from repro.tuning import QuerySampler

        registry = ArtifactRegistry()
        registry.add(artifact, "mini")
        service = SelectionService(registry)
        service.sampler = QuerySampler(every=1).attach()
        yield service
        service.sampler.detach()

    def assert_refused(self, service, payload, status):
        before = service.metrics.render()
        with pytest.raises(RequestError) as refused:
            service.select_body(payload, "t")
        assert refused.value.status == status
        assert service.metrics.render() == before
        assert service.sampler.drain() == []

    def test_batch_refused_at_an_unknown_cluster(self, service):
        queries = [self.BELOW_GRID, self.BELOW_GRID, self.UNKNOWN]
        self.assert_refused(service, {"queries": queries}, 404)

    def test_batch_refused_at_an_invalid_query(self, service):
        bad = dict(self.BELOW_GRID, procs=0)
        queries = [self.BELOW_GRID, self.BELOW_GRID, bad]
        self.assert_refused(service, {"queries": queries}, 400)

    def test_refused_single_query(self, service):
        self.assert_refused(service, self.UNKNOWN, 404)


EIGHT_OPERATIONS = (
    "allgather", "allreduce", "alltoall", "barrier",
    "bcast", "gather", "reduce", "scatter",
)
LEAF_SPINE = "leaf_spine_2to1"


@pytest.fixture(scope="module")
def eight_collective_registry():
    """Flat and leaf-spine eight-collective artifacts of one cluster."""
    from repro.fabric import build_fabric

    knobs = dict(
        collectives=EIGHT_OPERATIONS,
        proc_points=(2, 4, 6, 8),
        size_points=(1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB),
        procs=6,
        gamma_max_procs=4,
        sizes=(8 * KiB, 64 * KiB),
        max_reps=3,
    )
    registry = ArtifactRegistry()
    registry.add(build_artifact(MINICLUSTER, **knobs), "flat")
    leaf_spine = MINICLUSTER.with_fabric(build_fabric(LEAF_SPINE, MINICLUSTER))
    registry.add(build_artifact(leaf_spine, **knobs), "leaf_spine")
    return registry


def random_queries(registry, seed: int, count: int = 400) -> list[dict]:
    """On-grid, off-grid, below-grid, P=1 and m=0 queries over every
    collective on both fabrics."""
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        fabric = rng.choice(("", LEAF_SPINE))
        operation = rng.choice(EIGHT_OPERATIONS)
        table = registry.lookup(
            "minicluster", operation, fabric
        ).entries[operation].table
        procs_points, size_points = table.proc_points, table.size_points
        roll = rng.random()
        if roll < 0.3:
            procs, nbytes = rng.choice(procs_points), rng.choice(size_points)
        elif roll < 0.6:
            procs = rng.randint(procs_points[0], 2 * procs_points[-1])
            nbytes = rng.randint(size_points[0], 2 * size_points[-1] + 1)
        elif roll < 0.8:
            procs = rng.randint(1, procs_points[0])
            nbytes = rng.randint(0, size_points[0])
        else:
            procs, nbytes = rng.choice((
                (1, 0), (1, rng.choice(size_points)),
                (rng.choice(procs_points), 0),
            ))
        query = {"cluster": "minicluster", "operation": operation,
                 "procs": procs, "nbytes": nbytes}
        if fabric or rng.random() < 0.3:
            query["fabric"] = fabric
        queries.append(query)
    return queries


class TestSingleAndBatchAgree:
    """Differential: a single query, answered on an LRU miss or hit, and
    the same query inside a batch give the same bytes, count the same
    selections and sample the same spans."""

    TAIL = b',"trace_id":"t"}'

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_answers_equal_the_batch(
        self, eight_collective_registry, seed
    ):
        service = SelectionService(eight_collective_registry)
        queries = random_queries(eight_collective_registry, seed)
        distinct = {
            json.dumps(dict({"fabric": ""}, **query), sort_keys=True)
            for query in queries
        }
        batch = service.select_body({"queries": queries}, "t")
        for lru_pass in (1, 2):  # first pass misses, second hits
            singles = [service.select_body(query, "t") for query in queries]
            assert all(body.endswith(self.TAIL) for body in singles)
            objects = [body[:-len(self.TAIL)] + b"}" for body in singles]
            assert batch == (
                b'{"results":[' + b",".join(objects) + b'],"trace_id":"t"}'
            )
            metrics = service.metrics
            assert metrics.cache_misses.total() == len(distinct)
            assert metrics.cache_hits.total() == (
                lru_pass * len(queries) - len(distinct)
            )
        assert any(b'"clamped":true' in body for body in objects)
        assert any(b'"fabric":"leaf_spine_2to1"' in body for body in objects)

    def test_metrics_and_sampled_spans_agree(self, eight_collective_registry):
        from repro.tuning import QuerySampler

        queries = random_queries(eight_collective_registry, seed=2)
        recorder = obs.get_recorder()
        observed = []
        for batched in (False, True):
            service = SelectionService(eight_collective_registry)
            service.sampler = QuerySampler(every=1)
            spans = []

            def capture(span, spans=spans):
                if span.name == "select.query":
                    spans.append(list(span.attributes.items()))

            recorder.add_finish_hook(capture)
            try:
                if batched:
                    service.select_body({"queries": queries}, "t")
                else:
                    for query in queries:
                        service.select_body(query, "t")
            finally:
                recorder.remove_finish_hook(capture)
            samples = [
                line for line in service.metrics.render().splitlines()
                if line.startswith(
                    ("repro_selections_total{", "repro_select_clamped_total{")
                )
            ]
            observed.append((samples, spans))
        assert observed[0] == observed[1]
        samples, spans = observed[0]
        assert len(spans) == len(queries)
        assert any(line.startswith("repro_select_clamped_total{")
                   for line in samples)
