"""Final coverage sweep: corners the other suites leave open."""

import pytest

from repro.clusters import GRISOU, MINICLUSTER
from repro.units import KiB


class TestSubgroupRendezvous:
    def test_rendezvous_respects_subgroup_context(self):
        """A large (rendezvous) message on a subgroup communicator must not
        match a same-tag receive on the world communicator."""
        world = MINICLUSTER.make_world(3)
        sub = world.subgroup_comm([0, 2])
        big = MINICLUSTER.network.eager_limit * 2
        results = {}

        def sub_sender():
            yield from sub[0].send(1, big, tag=7)
            results["sub_sent"] = True

        def sub_receiver():
            status = yield from sub[1].recv(0, tag=7)
            results["sub_recv"] = status.nbytes

        def world_pair(comm):
            if comm.rank == 0:
                yield from comm.send(2, 128, tag=7)
            elif comm.rank == 2:
                status = yield from comm.recv(0, tag=7)
                results["world_recv"] = status.nbytes

        world.sim.process(sub_sender(), name="sub-0")
        world.sim.process(sub_receiver(), name="sub-1")
        world.spawn(world_pair)
        world.sim.run()
        assert results["sub_recv"] == big
        assert results["world_recv"] == 128


class TestOracleDeterminism:
    def test_two_oracles_same_seed_agree(self):
        from repro.selection.oracle import MeasuredOracle

        noisy = MINICLUSTER.with_noise(0.05)
        a = MeasuredOracle(noisy, max_reps=4, seed=9)
        b = MeasuredOracle(noisy, max_reps=4, seed=9)
        assert a.measure(8, 64 * KiB, "binomial") == b.measure(
            8, 64 * KiB, "binomial"
        )

    def test_different_seeds_differ_under_noise(self):
        from repro.selection.oracle import MeasuredOracle

        noisy = MINICLUSTER.with_noise(0.05)
        a = MeasuredOracle(noisy, max_reps=4, seed=1)
        b = MeasuredOracle(noisy, max_reps=4, seed=2)
        assert a.measure(8, 64 * KiB, "binomial") != b.measure(
            8, 64 * KiB, "binomial"
        )


class TestMpiblibUnderNoise:
    def test_benchmark_converges_with_noise(self):
        from repro.mpiblib import CollectiveBenchmark

        bench = CollectiveBenchmark(MINICLUSTER.with_noise(0.02), max_reps=30)
        result = bench.run("bcast", "binomial", procs=8, nbytes=64 * KiB)
        assert result.stats.converged
        assert result.stats.n >= 3
        assert result.stats.relative_precision <= 0.025


class TestGammaBlockMapping:
    def test_block_mapping_gamma_contaminated_by_shm(self):
        """On a multi-rank-per-node cluster, block placement makes the
        P=2 baseline a shared-memory pair and inflates γ — the reason the
        estimation defaults to spread placement."""
        from repro.estimation.gamma import estimate_gamma

        quiet = GRISOU.with_noise(0.0)
        spread = estimate_gamma(quiet, max_procs=4, mapping="spread")
        block = estimate_gamma(quiet, max_procs=4, mapping="block")
        assert block.table[4] > 2.0 * spread.table[4]


class TestWorldReuse:
    def test_sequential_collectives_in_one_world(self):
        """Back-to-back different collectives share tags safely."""
        from repro.collectives.barrier import BARRIER_ALGORITHMS
        from repro.collectives.bcast import BCAST_ALGORITHMS
        from repro.collectives.gather import GATHER_ALGORITHMS
        from repro.measure import Experiment, run_experiment

        def program(comm):
            yield from BCAST_ALGORITHMS["binomial"](comm, 0, 32 * KiB, 8 * KiB)
            yield from BARRIER_ALGORITHMS["recursive_doubling"](comm)
            yield from GATHER_ALGORITHMS["linear"](comm, 0, 2 * KiB)
            yield from BCAST_ALGORITHMS["split_binary"](comm, 0, 64 * KiB, 8 * KiB)

        elapsed = run_experiment(MINICLUSTER, Experiment(program, 9))
        assert elapsed > 0
