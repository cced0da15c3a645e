"""Benchmark: simulator throughput.

Not a paper artefact — a performance-regression guard for the substrate
itself.  A full Table 3 regeneration runs thousands of simulations; these
numbers keep that tractable.
"""

from repro.clusters import GROS, MINICLUSTER
from repro.exec.job import SimJob, execute_job
from repro.units import KiB, MiB


def test_small_bcast_simulation_throughput(benchmark):
    """One 16-rank, 8-segment broadcast: the estimation workload's unit."""

    def simulate():
        return execute_job(SimJob(
            MINICLUSTER.with_noise(0.0), "bcast", 16, "binomial",
            nbytes=64 * KiB, segment_size=8 * KiB,
        ))

    result = benchmark(simulate)
    assert result > 0


def test_paper_scale_bcast_simulation(benchmark):
    """P=100, 1 MiB chain: among the heaviest single runs in Table 3."""

    def simulate():
        return execute_job(SimJob(
            GROS.with_noise(0.0), "bcast", 100, "chain", nbytes=1 * MiB,
            segment_size=8 * KiB,
        ))

    result = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert result > 0
    # Regression guard: this must stay well under a second of wall time.
    assert benchmark.stats["mean"] < 5.0
