"""Tests for the alltoall algorithms."""

import collections

import pytest

from repro.clusters import MINICLUSTER
from repro.collectives.alltoall import ALLTOALL_ALGORITHMS
from repro.measure import Experiment, run_experiment
from repro.sim.trace import Tracer
from repro.units import KiB


def run_alltoall(name, procs, nbytes, tracer=None):
    tracer = tracer if tracer is not None else Tracer(enabled=False)
    algorithm = ALLTOALL_ALGORITHMS[name]

    def program(comm):
        yield from algorithm(comm, nbytes)

    return run_experiment(MINICLUSTER, Experiment(program, procs), tracer=tracer)


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(ALLTOALL_ALGORITHMS))
    @pytest.mark.parametrize("procs", [1, 2, 3, 4, 7, 8, 12])
    def test_completes(self, name, procs):
        assert run_alltoall(name, procs, 2 * KiB) >= 0.0

    @pytest.mark.parametrize("name", ["linear", "pairwise"])
    def test_every_rank_receives_p_minus_1_blocks(self, name):
        procs, nbytes = 8, 2 * KiB
        tracer = Tracer()
        run_alltoall(name, procs, nbytes, tracer=tracer)
        received = collections.Counter()
        for event in tracer.of_kind("recv_complete"):
            received[event.rank] += event.nbytes
        for rank in range(procs):
            assert received[rank] == (procs - 1) * nbytes, (name, rank)

    def test_bruck_total_volume_is_half_p_log_p(self):
        """Bruck trades volume for rounds: each rank ships ~(P/2)·log2(P)
        blocks instead of (P-1)."""
        procs, nbytes = 8, 2 * KiB
        tracer = Tracer()
        run_alltoall("bruck", procs, nbytes, tracer=tracer)
        sent = collections.Counter()
        for event in tracer.of_kind("send_post"):
            sent[event.rank] += event.nbytes
        per_rank = sent[0]
        assert per_rank == (procs // 2) * 3 * nbytes  # 4 blocks x 3 rounds

    def test_pairwise_rounds(self):
        procs = 6
        tracer = Tracer()
        run_alltoall("pairwise", procs, 1 * KiB, tracer=tracer)
        sends = collections.Counter(e.rank for e in tracer.of_kind("send_post"))
        assert all(count == procs - 1 for count in sends.values())

    def test_bruck_rounds_logarithmic(self):
        procs = 8
        tracer = Tracer()
        run_alltoall("bruck", procs, 1 * KiB, tracer=tracer)
        sends = collections.Counter(e.rank for e in tracer.of_kind("send_post"))
        assert all(count == 3 for count in sends.values())  # ceil(log2 8)


class TestRelativePerformance:
    def test_bruck_wins_for_tiny_blocks(self):
        """Small messages: log rounds beat P-1 rounds."""
        procs, nbytes = 12, 64
        bruck = run_alltoall("bruck", procs, nbytes)
        pairwise = run_alltoall("pairwise", procs, nbytes)
        assert bruck < pairwise

    def test_pairwise_wins_for_large_blocks(self):
        """Large messages: Bruck's extra volume dominates."""
        procs, nbytes = 12, 256 * KiB
        bruck = run_alltoall("bruck", procs, nbytes)
        pairwise = run_alltoall("pairwise", procs, nbytes)
        assert pairwise < bruck

    def test_registered_in_registry_and_mpiblib(self):
        from repro.collectives.registry import algorithm_names
        from repro.mpiblib import CollectiveBenchmark

        assert algorithm_names("alltoall") == ["bruck", "linear", "pairwise"]
        bench = CollectiveBenchmark(MINICLUSTER, max_reps=3)
        result = bench.run("alltoall", "pairwise", procs=6, nbytes=4 * KiB)
        assert result.mean > 0
