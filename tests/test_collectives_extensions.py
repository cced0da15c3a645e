"""Tests for the extension collectives: reduce, scatter, allgather, allreduce."""

import collections

import pytest

from repro.clusters import MINICLUSTER
from repro.collectives.allgather import ALLGATHER_ALGORITHMS
from repro.collectives.allreduce import ALLREDUCE_ALGORITHMS
from repro.collectives.reduce import REDUCE_ALGORITHMS
from repro.collectives.scatter import SCATTER_ALGORITHMS
from repro.measure import Experiment, run_experiment
from repro.sim.trace import Tracer
from repro.units import KiB


def run_collective(program_factory, procs, root=0, tracer=None):
    tracer = tracer if tracer is not None else Tracer(enabled=False)

    def program(comm):
        yield from program_factory(comm)

    return run_experiment(
        MINICLUSTER, Experiment(program, procs, root=root), tracer=tracer
    )


class TestReduce:
    @pytest.mark.parametrize("name", sorted(REDUCE_ALGORITHMS))
    @pytest.mark.parametrize("procs", [1, 2, 5, 8, 13])
    def test_completes(self, name, procs):
        algorithm = REDUCE_ALGORITHMS[name]
        elapsed = run_collective(
            lambda comm: algorithm(comm, 0, 64 * KiB, 8 * KiB), procs
        )
        assert elapsed >= 0.0

    @pytest.mark.parametrize("name", sorted(REDUCE_ALGORITHMS))
    def test_root_obtains_all_contributions(self, name):
        """Each rank's data must reach the root, directly or combined."""
        procs, nbytes = 8, 32 * KiB
        algorithm = REDUCE_ALGORITHMS[name]
        tracer = Tracer()
        run_collective(
            lambda comm: algorithm(comm, 0, nbytes, 8 * KiB), procs, tracer=tracer
        )
        # Every non-root rank sends exactly its buffer size in total.
        sent = collections.Counter()
        for event in tracer.of_kind("send_post"):
            sent[event.rank] += event.nbytes
        for rank in range(1, procs):
            assert sent[rank] == nbytes, f"{name}: rank {rank} sent {sent[rank]}"
        assert sent.get(0, 0) == 0

    def test_binomial_faster_than_linear_at_scale(self):
        procs, nbytes = 16, 512 * KiB
        linear = run_collective(
            lambda comm: REDUCE_ALGORITHMS["linear"](comm, 0, nbytes, 0), procs
        )
        binomial = run_collective(
            lambda comm: REDUCE_ALGORITHMS["binomial"](comm, 0, nbytes, 8 * KiB),
            procs,
        )
        assert binomial < linear

    def test_non_default_root(self):
        elapsed = run_collective(
            lambda comm: REDUCE_ALGORITHMS["binary"](comm, 3, 64 * KiB, 8 * KiB),
            8,
            root=3,
        )
        assert elapsed > 0


class TestScatter:
    @pytest.mark.parametrize("name", sorted(SCATTER_ALGORITHMS))
    @pytest.mark.parametrize("procs", [1, 2, 6, 8, 11])
    def test_every_rank_receives_its_block(self, name, procs):
        nbytes = 4 * KiB
        algorithm = SCATTER_ALGORITHMS[name]
        tracer = Tracer()
        run_collective(lambda comm: algorithm(comm, 0, nbytes), procs, tracer=tracer)
        received = collections.Counter()
        for event in tracer.of_kind("recv_complete"):
            received[event.rank] += event.nbytes
        for rank in range(1, procs):
            assert received[rank] >= nbytes

    def test_binomial_root_sends_subtree_blocks(self):
        procs, nbytes = 8, 4 * KiB
        tracer = Tracer()
        run_collective(
            lambda comm: SCATTER_ALGORITHMS["binomial"](comm, 0, nbytes),
            procs,
            tracer=tracer,
        )
        root_sends = sorted(
            e.nbytes for e in tracer.of_kind("send_post") if e.rank == 0
        )
        # Binomial subtrees of size 1, 2, 4 blocks.
        assert root_sends == [nbytes, 2 * nbytes, 4 * nbytes]

    def test_total_traffic_linear_vs_binomial(self):
        """Binomial scatter moves more total bytes (log routing) but the
        root itself injects the same amount."""
        procs, nbytes = 8, 4 * KiB
        totals = {}
        for name in SCATTER_ALGORITHMS:
            tracer = Tracer()
            run_collective(
                lambda comm, name=name: SCATTER_ALGORITHMS[name](comm, 0, nbytes),
                procs,
                tracer=tracer,
            )
            totals[name] = sum(
                e.nbytes for e in tracer.of_kind("send_post") if e.rank == 0
            )
        assert totals["linear"] == totals["binomial"] == 7 * nbytes


class TestAllgather:
    @pytest.mark.parametrize("name", sorted(ALLGATHER_ALGORITHMS))
    @pytest.mark.parametrize("procs", [1, 2, 4, 7, 8, 12])
    def test_every_rank_collects_everything(self, name, procs):
        """Total received per rank = (P-1) blocks, however routed."""
        nbytes = 2 * KiB
        algorithm = ALLGATHER_ALGORITHMS[name]
        tracer = Tracer()
        run_collective(lambda comm: algorithm(comm, nbytes), procs, tracer=tracer)
        received = collections.Counter()
        for event in tracer.of_kind("recv_complete"):
            received[event.rank] += event.nbytes
        for rank in range(procs):
            if procs > 1:
                assert received[rank] >= (procs - 1) * nbytes, (name, rank)

    def test_ring_step_count(self):
        procs = 6
        tracer = Tracer()
        run_collective(
            lambda comm: ALLGATHER_ALGORITHMS["ring"](comm, 1 * KiB),
            procs,
            tracer=tracer,
        )
        sends = collections.Counter(e.rank for e in tracer.of_kind("send_post"))
        assert all(count == procs - 1 for count in sends.values())

    def test_recursive_doubling_round_count_power_of_two(self):
        procs = 8
        tracer = Tracer()
        run_collective(
            lambda comm: ALLGATHER_ALGORITHMS["recursive_doubling"](comm, 1 * KiB),
            procs,
            tracer=tracer,
        )
        sends = collections.Counter(e.rank for e in tracer.of_kind("send_post"))
        assert all(count == 3 for count in sends.values())  # log2(8)

    def test_bruck_handles_non_power_of_two(self):
        elapsed = run_collective(
            lambda comm: ALLGATHER_ALGORITHMS["bruck"](comm, 2 * KiB), 7
        )
        assert elapsed > 0


class TestAllreduce:
    @pytest.mark.parametrize("name", sorted(ALLREDUCE_ALGORITHMS))
    @pytest.mark.parametrize("procs", [1, 2, 4, 6, 8, 13])
    def test_completes(self, name, procs):
        algorithm = ALLREDUCE_ALGORITHMS[name]
        elapsed = run_collective(lambda comm: algorithm(comm, 128 * KiB), procs)
        assert elapsed >= 0.0

    def test_ring_moves_less_data_than_recursive_doubling_at_scale(self):
        """Ring traffic per rank ~ 2m; recursive doubling ~ m log2 P."""
        procs, nbytes = 8, 256 * KiB
        totals = {}
        for name in ALLREDUCE_ALGORITHMS:
            tracer = Tracer()
            run_collective(
                lambda comm, name=name: ALLREDUCE_ALGORITHMS[name](comm, nbytes),
                procs,
                tracer=tracer,
            )
            totals[name] = tracer.total_bytes_sent()
        assert totals["ring"] < totals["recursive_doubling"]

    def test_ring_faster_for_large_vectors(self):
        procs, nbytes = 12, 2048 * KiB
        ring = run_collective(
            lambda comm: ALLREDUCE_ALGORITHMS["ring"](comm, nbytes), procs
        )
        doubling = run_collective(
            lambda comm: ALLREDUCE_ALGORITHMS["recursive_doubling"](comm, nbytes),
            procs,
        )
        assert ring < doubling
