"""Tests for the gather and barrier algorithms."""

import collections

import pytest

from repro.clusters import MINICLUSTER
from repro.collectives.barrier import BARRIER_ALGORITHMS
from repro.collectives.gather import GATHER_ALGORITHMS
from repro.exec.job import SimJob, execute_job
from repro.measure import Experiment, run_experiment
from repro.sim.trace import Tracer
from repro.units import KiB


class TestLinearGather:
    def test_root_receives_from_everyone(self):
        tracer = Tracer()

        def program(comm):
            yield from GATHER_ALGORITHMS["linear"](comm, 0, 4 * KiB)

        run_experiment(MINICLUSTER, Experiment(program, 8), tracer=tracer)
        sources = sorted(
            e.peer for e in tracer.of_kind("recv_complete") if e.rank == 0
        )
        assert sources == list(range(1, 8))

    def test_cost_scales_linearly_with_procs(self):
        """The (P-1) structure of paper Eq. 8."""
        m_g = 16 * KiB
        t4, t8, t16 = (
            execute_job(SimJob(
                MINICLUSTER, "gather", procs, "linear", nbytes=m_g,
                policy="root",
            ))
            for procs in (4, 8, 16)
        )
        # Increments should be roughly equal: T(P) ~ const + (P-1) * c.
        first_increment = (t8 - t4) / 4
        second_increment = (t16 - t8) / 8
        assert second_increment == pytest.approx(first_increment, rel=0.3)

    def test_single_process_noop(self):
        assert execute_job(SimJob(
            MINICLUSTER, "gather", 1, "linear", nbytes=4 * KiB, policy="root"
        )) == 0.0

    def test_non_root_sends_exactly_once(self):
        tracer = Tracer()

        def program(comm):
            yield from GATHER_ALGORITHMS["linear"](comm, 2, 4 * KiB)

        run_experiment(
            MINICLUSTER, Experiment(program, 6, root=2), tracer=tracer
        )
        sends = collections.Counter(e.rank for e in tracer.of_kind("send_post"))
        assert sends == {r: 1 for r in range(6) if r != 2}


class TestBinomialGather:
    def test_aggregates_subtree_contributions(self):
        tracer = Tracer()
        m = 4 * KiB

        def program(comm):
            yield from GATHER_ALGORITHMS["binomial"](comm, 0, m)

        run_experiment(MINICLUSTER, Experiment(program, 8), tracer=tracer)
        # Total bytes received at the root equal (P-1) contributions.
        root_bytes = sum(
            e.nbytes for e in tracer.of_kind("recv_complete") if e.rank == 0
        )
        assert root_bytes == 7 * m

    def test_fewer_root_messages_than_linear(self):
        counts = {}
        for name in ("linear", "binomial"):
            tracer = Tracer()

            def program(comm, name=name):
                yield from GATHER_ALGORITHMS[name](comm, 0, 4 * KiB)

            run_experiment(MINICLUSTER, Experiment(program, 16), tracer=tracer)
            counts[name] = len(
                [e for e in tracer.of_kind("recv_complete") if e.rank == 0]
            )
        assert counts["binomial"] < counts["linear"]


@pytest.mark.parametrize("name", sorted(BARRIER_ALGORITHMS))
class TestBarriers:
    def test_completes_for_various_sizes(self, name):
        for procs in (1, 2, 3, 4, 7, 8, 13, 16):
            def program(comm):
                yield from BARRIER_ALGORITHMS[name](comm)

            elapsed = run_experiment(MINICLUSTER, Experiment(program, procs))
            assert elapsed >= 0.0

    def test_no_rank_exits_before_last_rank_enters(self, name):
        """The barrier property: exit time >= every rank's entry time."""
        procs = 8
        entry_times = {}
        exit_times = {}
        stagger = 37e-6

        def program(comm):
            yield comm.sim.timeout(comm.rank * stagger)
            entry_times[comm.rank] = comm.now
            yield from BARRIER_ALGORITHMS[name](comm)
            exit_times[comm.rank] = comm.now

        run_experiment(MINICLUSTER, Experiment(program, procs))
        last_entry = max(entry_times.values())
        assert min(exit_times.values()) >= last_entry

    def test_two_barriers_back_to_back(self, name):
        def program(comm):
            yield from BARRIER_ALGORITHMS[name](comm)
            yield from BARRIER_ALGORITHMS[name](comm)

        elapsed = run_experiment(MINICLUSTER, Experiment(program, 6))
        assert elapsed > 0.0
