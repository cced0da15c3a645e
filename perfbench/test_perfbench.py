"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import drift  # noqa: E402
from common import (  # noqa: E402
    ALTERNATE_S, COLLECTIVES, Alternation, Checks, cpu_seconds, summary,
    tail,
)
from layers import (  # noqa: E402
    NO_RUNNER, SERVING_METRICS, TUNING_LOOP_METRICS, attribute, layer_metrics,
    layer_of,
)
from traffic import (  # noqa: E402
    BATCH_EVERY, BATCH_SIZE, HOT_QUERIES, request_bytes,
    sampled_per_collective, serve_traffic,
)

GRID = {
    operation: ((2, 4, 8), (0,) if operation == "barrier" else (1024, 4096))
    for operation in COLLECTIVES
}


class TestTraffic:
    def test_serve_traffic_is_deterministic_per_seed(self):
        first = serve_traffic(7, "c", GRID, 500)
        assert first == serve_traffic(7, "c", GRID, 500)
        assert first != serve_traffic(8, "c", GRID, 500)

    def test_serve_traffic_covers_every_collective_and_shape(self):
        payloads = serve_traffic(3, "c", GRID, 2000)
        singles = [p for p in payloads if "queries" not in p]
        batches = [p for p in payloads if "queries" in p]
        queries = singles + [q for b in batches for q in b["queries"]]
        assert {q["operation"] for q in queries} == set(COLLECTIVES)
        assert batches and all(len(b["queries"]) == 16 for b in batches)
        assert any(q["procs"] < 2 for q in queries)  # below the grid
        assert any(q["procs"] % 2 for q in queries if q["procs"] > 2)

    def test_half_the_queries_come_in_batches(self):
        payloads = serve_traffic(4, "c", GRID, 17 * 100)
        assert all(
            ("queries" in p) == (i % BATCH_EVERY == BATCH_EVERY - 1)
            for i, p in enumerate(payloads)
        )
        batched = sum(len(p["queries"]) for p in payloads if "queries" in p)
        singles = sum("queries" not in p for p in payloads)
        assert batched == singles == 100 * BATCH_SIZE

    def test_hot_head_fits_the_lru_and_the_working_set_does_not(self):
        import inspect

        import serve
        from repro.service import SelectionService

        lru = inspect.signature(SelectionService).parameters["cache_size"]
        grid = {op: (tuple(range(2, 64)), tuple(8192 << k for k in range(10)))
                for op in COLLECTIVES}
        singles = [p for p in serve_traffic(9, "c", grid, serve.TRAFFIC_REQUESTS)
                   if "queries" not in p]
        keys = [json.dumps(q, sort_keys=True) for q in singles]
        on_grid = {key for key, q in zip(keys, singles)
                   if q["nbytes"] in grid[q["operation"]][1]}
        assert len(on_grid) <= HOT_QUERIES < lru.default < len(set(keys))

    def test_request_bytes_frame_the_body(self):
        raw = request_bytes({"cluster": "c", "procs": 4, "nbytes": 8})
        head, body = raw.split(b"\r\n\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body)["procs"] == 4

    def test_drift_stream_is_deterministic_and_complete(self):
        assert drift.stream(5) == drift.stream(5)
        assert {q["operation"] for q in drift.stream(5)} == set(COLLECTIVES)


class TestSamplerCoverage:
    """The drift stream must not alias the every-N-th query sampler."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_collective_is_sampled_enough(self, seed):
        from repro.tuning import DriftConfig, QuerySampler

        counts = sampled_per_collective(
            drift.stream(seed), QuerySampler().every
        )
        assert min(counts.values()) >= DriftConfig().min_samples

    def test_a_periodic_cycle_aliasing_the_sampler_is_caught(self):
        # Op-major cycle of period 16: an every-16th sampler keeps only
        # the first collective, so the others are starved.
        cycle = [{"operation": op} for op in COLLECTIVES for _ in range(2)]
        counts = sampled_per_collective(cycle * 100, 16)
        assert counts["bcast"] == 100
        assert min(counts.values()) == 0


class TestPercentiles:
    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 100 samples
        level, value = tail(values)
        assert level == pytest.approx(90.0)
        assert value == 90
        assert sum(v > value for v in values) == 10

    def test_tail_caps_at_p99(self):
        level, value = tail(list(range(1, 10001)))
        assert level == 99.0
        assert value == 9900

    def test_tail_of_twenty_samples_or_fewer_is_the_median(self):
        assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
        assert tail(list(range(20))) == (50.0, 9.5)
        assert tail(list(range(21)))[0] > 50.0

    def test_summary_carries_the_sample_count(self):
        stats = summary([1.0, 2.0, 3.0, 4.0], "s")
        assert stats["n"] == 4 and stats["median"] == 2.5


def test_cpu_seconds_counts_work_not_waiting():
    import time

    pid = os.getpid()
    before = cpu_seconds(pid)
    time.sleep(0.2)
    slept = cpu_seconds(pid) - before
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    busy = cpu_seconds(pid) - before - slept
    assert slept < 0.05 < busy


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs"
)
def test_alternation_moves_processes_apart_and_gives_cpus_back():
    import time

    cpus = os.sched_getaffinity(0)
    children = [
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(5)"])
        for _ in range(2)
    ]
    try:
        alternation = Alternation(*(child.pid for child in children))
        seen = set()
        for _ in range(4):
            time.sleep(ALTERNATE_S)
            placed = [os.sched_getaffinity(child.pid) for child in children]
            assert all(len(cpu) == 1 for cpu in placed)
            assert placed[0] != placed[1]
            seen |= placed[0]
        alternation.stop()
        assert len(seen) == 2
        assert all(os.sched_getaffinity(c.pid) == cpus for c in children)
    finally:
        for child in children:
            child.kill()
            child.wait()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A small one-collective artifact and its offline expectations."""
    import serve
    from repro.clusters import MINICLUSTER
    from repro.service import build_artifact

    artifact = build_artifact(
        MINICLUSTER, collectives=("bcast",), proc_points=(4, 8),
        size_points=drift.SIZES, procs=8, gamma_max_procs=3,
        sizes=drift.SIZES, max_reps=3,
    )
    directory = tmp_path_factory.mktemp("artifacts")
    artifact.save(directory / "minicluster.json")
    payloads = [
        {"cluster": "minicluster", "operation": "bcast", "procs": 8,
         "nbytes": 300 * 1024},
        {"queries": [
            {"cluster": "minicluster", "operation": "bcast", "procs": 2,
             "nbytes": 0},
            {"cluster": "minicluster", "operation": "bcast", "procs": 5,
             "nbytes": 900 * 1024},
        ]},
    ]
    checks = Checks()
    expected = serve.Expected(directory, artifact, payloads, checks)
    assert checks.attempted == 2 and not checks.failures
    return serve, artifact, payloads, expected


class TestResponseVerifier:
    def _live(self, expected, index, trace_id=b"abc123"):
        prefix, suffix = expected.parts[index]
        return 200, trace_id, prefix + trace_id + suffix

    def test_accepts_the_offline_rendering(self, served):
        _serve, _artifact, _payloads, expected = served
        checks = Checks()
        for index in (0, 1):
            expected.verify(checks, index, self._live(expected, index), 0.001)
        assert checks.attempted == 2 and not checks.failures

    def test_rejects_one_corrupted_byte(self, served):
        _serve, _artifact, _payloads, expected = served
        status, trace_id, body = self._live(expected, 0)
        corrupted = bytearray(body)
        corrupted[len(corrupted) // 2] ^= 0x01
        checks = Checks()
        expected.verify(checks, 0, (status, trace_id, bytes(corrupted)), 0.001)
        assert len(checks.failures) == 1 and checks.wrong == 1

    def test_rejects_the_wrong_algorithm(self, served):
        serve, artifact, payloads, expected = served
        status, trace_id, body = self._live(expected, 0)
        algorithm = json.loads(body)["algorithm"]
        other = "linear" if algorithm != "linear" else "binomial"
        wrong = body.replace(
            f'"algorithm":"{algorithm}"'.encode(),
            f'"algorithm":"{other}"'.encode(),
        )
        assert wrong != body
        checks = Checks()
        expected.verify(checks, 0, (status, trace_id, wrong), 0.001)
        assert checks.wrong == 1
        assert not serve._agrees_with_table(artifact, payloads[0], wrong)

    def test_a_slow_response_fails_without_being_wrong(self, served):
        serve, _artifact, _payloads, expected = served
        checks = Checks()
        expected.verify(
            checks, 1, self._live(expected, 1), serve.BUDGET_S * 2
        )
        assert len(checks.failures) == 1 and checks.wrong == 0


def _span(name, span_id, parent, start, end, **attributes):
    return {
        "name": name, "span_id": span_id, "parent_id": parent,
        "start": start, "duration": end - start, "attributes": attributes,
    }


class TestAttribution:
    def test_self_times_and_residual_on_a_synthetic_tree(self):
        records = [
            _span("bench.build", "r", None, 0.0, 10.0),
            _span("artifact.calibrate", "c", "r", 0.5, 6.0,
                  operation="bcast"),
            _span("sim.batch", "b", "c", 1.0, 5.0, columnar=3),
            _span("sim.event_loop", "e", "b", 2.0, 4.0),
            _span("exec.run", "x", "r", 6.0, 7.0),
        ]
        result = attribute(records)
        assert result["end_to_end_s"] == pytest.approx(10.0)
        assert result["layers"]["sim"] == pytest.approx(4.0)  # 2 + 2
        assert result["layers"]["estimation"] == pytest.approx(1.5)
        assert result["layers"]["exec"] == pytest.approx(1.0)
        assert result["residual_s"] == pytest.approx(3.5)
        assert (
            sum(result["layers"].values()) + result["residual_s"]
            == pytest.approx(result["end_to_end_s"])
        )
        by_name = {span["name"]: span for span in result["spans"]}
        assert by_name["sim.event_loop"]["operation"] == "bcast"

    def test_nested_oracle_calls_count_once(self):
        # MeasuredOracle.best sweeps through measure: both are wrapped as
        # selection.oracle, and the inner spans lie inside the outer one.
        records = [
            _span("bench.step", "r", None, 0.0, 10.0),
            _span("selection.oracle", "b", "r", 1.0, 5.0),
            _span("selection.oracle", "m1", "b", 1.5, 2.5),
            _span("selection.oracle", "m2", "b", 3.0, 4.5),
            _span("exec.run", "x", "m2", 3.5, 4.0),
            _span("selection.oracle", "m3", "r", 6.0, 7.0),
        ]
        result = attribute(records)
        metrics = layer_metrics(result, NO_RUNNER)
        assert metrics["selection.oracle_s"] == pytest.approx(5.0)  # 4 + 1
        assert result["layers"]["selection"] == pytest.approx(4.5)
        assert result["layers"]["exec"] == pytest.approx(0.5)
        assert result["residual_s"] == pytest.approx(5.0)

    def test_spans_outside_the_benchmark_roots_are_not_attributed(self):
        records = [
            _span("bench.step", "r1", None, 0.0, 2.0),
            _span("exec.run", "x", "r1", 0.5, 1.0),
            _span("selection.oracle", "p", None, 2.0, 3.0),  # scoring
            _span("bench.step", "r2", None, 3.0, 4.0),
        ]
        result = attribute(records)
        assert result["end_to_end_s"] == pytest.approx(3.0)
        assert result["layers"]["selection"] == 0.0
        assert result["residual_s"] == pytest.approx(2.5)

    def test_every_per_layer_metric_has_a_source(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        wanted = {metric["name"] for metric in spec["per_layer"]}
        produced = set(layer_metrics(attribute([]), NO_RUNNER))
        produced |= set(SERVING_METRICS) | set(TUNING_LOOP_METRICS)
        assert produced | {"obs.overhead"} == wanted

    def test_every_program_span_name_has_a_layer(self):
        for name in ("artifact.build", "artifact.rebuild", "calibrate.platform",
                     "estimate.gamma", "exec.execute", "exec.job",
                     "http.request", "select.query", "sim.batch"):
            assert layer_of(name) != "bench"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "serve", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
