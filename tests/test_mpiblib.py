"""Tests for the MPIBlib-style benchmarking front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import SimulationError
from repro.mpiblib import BenchmarkResult, CollectiveBenchmark, render_results
from repro.units import KiB


@pytest.fixture(scope="module")
def bench():
    return CollectiveBenchmark(MINICLUSTER, max_reps=4)


class TestRun:
    def test_bcast_benchmark(self, bench):
        result = bench.run("bcast", "binomial", procs=8, nbytes=64 * KiB)
        assert result.mean > 0
        assert result.stats.converged
        assert result.operation == "bcast"

    def test_barrier_benchmark_needs_no_payload(self, bench):
        result = bench.run("barrier", "recursive_doubling", procs=8)
        assert result.mean > 0

    def test_allreduce_benchmark(self, bench):
        result = bench.run("allreduce", "ring", procs=8, nbytes=256 * KiB)
        assert result.mean > 0

    def test_gather_and_scatter(self, bench):
        gather = bench.run("gather", "linear", procs=8, nbytes=4 * KiB)
        scatter = bench.run("scatter", "binomial", procs=8, nbytes=4 * KiB)
        assert gather.mean > 0 and scatter.mean > 0

    def test_reduce_benchmark_uses_segments(self, bench):
        fine = bench.run("reduce", "chain", procs=8, nbytes=512 * KiB,
                         segment_size=8 * KiB)
        coarse = bench.run("reduce", "chain", procs=8, nbytes=512 * KiB,
                           segment_size=0)
        assert fine.mean != coarse.mean

    def test_root_policy(self, bench):
        at_root = bench.run("bcast", "binomial", procs=8, nbytes=64 * KiB,
                            policy="root")
        overall = bench.run("bcast", "binomial", procs=8, nbytes=64 * KiB,
                            policy="global")
        assert at_root.mean <= overall.mean

    def test_describe_mentions_key_facts(self, bench):
        result = bench.run("bcast", "binary", procs=6, nbytes=8 * KiB)
        text = result.describe()
        assert "bcast/binary" in text
        assert "P=6" in text
        assert "8 KB" in text

    def test_unknown_operation_rejected(self, bench):
        from repro.errors import SelectionError

        with pytest.raises(SelectionError):
            bench.run("alltoallw", "ring", procs=4, nbytes=1024)

    def test_deterministic_cluster_converges_fast(self, bench):
        result = bench.run("bcast", "chain", procs=6, nbytes=32 * KiB)
        assert result.stats.n == 2  # zero-noise short-circuit


class TestSweep:
    def test_sweep_covers_grid(self, bench):
        results = bench.sweep(
            "bcast", ["binary", "chain"], procs=6, sizes=[8 * KiB, 64 * KiB]
        )
        assert len(results) == 4
        keys = {(r.algorithm, r.nbytes) for r in results}
        assert ("binary", 8 * KiB) in keys and ("chain", 64 * KiB) in keys

    def test_sweep_defaults_to_all_algorithms(self, bench):
        results = bench.sweep("barrier", procs=4, sizes=[0])
        assert {r.algorithm for r in results} == {
            "linear", "recursive_doubling", "double_ring", "bruck"
        }

    def test_render_results_table(self, bench):
        results = bench.sweep(
            "bcast", ["binary", "binomial"], procs=6, sizes=[8 * KiB, 64 * KiB]
        )
        table = render_results(results)
        assert "binary" in table and "binomial" in table
        assert "8 KB" in table and "64 KB" in table

    def test_render_empty(self):
        assert render_results([]) == "(no results)"


class TestReproducibility:
    def test_noisy_samples_agree_across_interpreters(self):
        """Repetition seeds must not depend on the per-process string-hash
        salt: two fresh interpreters measure the same noisy samples."""
        code = (
            "import json\n"
            "from repro.clusters import GRISOU\n"
            "from repro.mpiblib import CollectiveBenchmark\n"
            "bench = CollectiveBenchmark(GRISOU, max_reps=4)\n"
            "result = bench.run('bcast', 'binomial', procs=8, nbytes=65536)\n"
            "print(json.dumps(result.stats.samples))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        samples = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(src), env.get("PYTHONPATH")))
            )
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            samples.append(json.loads(result.stdout))
        assert samples[0] == samples[1]
        assert len(set(samples[0])) > 1  # the platform is noisy
