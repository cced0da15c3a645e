"""Tests for the timed-experiment layer (repro.measure)."""

import pytest

from repro.clusters import GRISOU, MINICLUSTER
from repro.errors import SimulationError
from repro.exec.job import SimJob, execute_job
from repro.measure import Experiment, run_experiment
from repro.units import KiB


class TestRunTimed:
    """Timing policies and run checks of ``run_experiment``."""

    def test_global_policy_returns_last_finisher(self):
        def program(comm):
            yield comm.sim.timeout(comm.rank * 1e-3)

        elapsed = run_experiment(
            MINICLUSTER, Experiment(program, 4, policy="global")
        )
        assert elapsed == pytest.approx(3e-3)

    def test_root_policy_returns_roots_clock(self):
        def program(comm):
            yield comm.sim.timeout(comm.rank * 1e-3)

        elapsed = run_experiment(
            MINICLUSTER, Experiment(program, 4, root=0, policy="root")
        )
        assert elapsed == pytest.approx(0.0)

    def test_unknown_policy_rejected(self):
        def program(comm):
            return
            yield

        with pytest.raises(SimulationError, match="policy"):
            run_experiment(MINICLUSTER, Experiment(program, 2, policy="median"))

    def test_leftover_messages_detected(self):
        """A program that sends without a matching receive is flagged."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.isend(1, 100, tag=1)

        with pytest.raises(SimulationError, match="unmatched"):
            run_experiment(MINICLUSTER, Experiment(program, 2))

    def test_spread_mapping_changes_timing_on_multislot_cluster(self):
        block = execute_job(SimJob(
            GRISOU.with_noise(0.0), "bcast", 2, "linear", nbytes=8 * KiB,
            mapping="block",
        ))
        spread = execute_job(SimJob(
            GRISOU.with_noise(0.0), "bcast", 2, "linear", nbytes=8 * KiB,
            mapping="spread",
        ))
        assert spread > block  # shm pair vs network pair


class TestBcastExperiments:
    def test_root_policy_faster_or_equal_to_global(self):
        spec = MINICLUSTER
        at_root = execute_job(SimJob(
            spec, "bcast", 8, "binomial", nbytes=64 * KiB,
            segment_size=8 * KiB, policy="root",
        ))
        overall = execute_job(SimJob(
            spec, "bcast", 8, "binomial", nbytes=64 * KiB,
            segment_size=8 * KiB, policy="global",
        ))
        assert at_root <= overall

    def test_bcast_then_gather_exceeds_both_parts(self):
        """Eq. 7: the composite experiment costs at least the bcast and at
        least the gather."""
        spec = MINICLUSTER
        procs, nbytes, m_g = 8, 128 * KiB, 2 * KiB
        composite = execute_job(SimJob(
            spec, "bcast_then_gather", procs, "binomial", nbytes=nbytes,
            segment_size=8 * KiB, gather_bytes=m_g,
        ))
        bcast_only = execute_job(SimJob(
            spec, "bcast", procs, "binomial", nbytes=nbytes,
            segment_size=8 * KiB,
        ))
        gather_only = execute_job(SimJob(
            spec, "gather", procs, "linear", nbytes=m_g, policy="root"
        ))
        assert composite > bcast_only
        assert composite > gather_only

    def test_composite_experiment_root_timed_includes_global_bcast(self):
        """The gather cannot finish before every rank got the broadcast, so
        the root clock captures the full broadcast even though the bcast
        call returns locally earlier — the reason the paper appends the
        gather."""
        spec = MINICLUSTER
        procs, nbytes = 8, 128 * KiB
        composite = execute_job(SimJob(
            spec, "bcast_then_gather", procs, "binomial", nbytes=nbytes,
            segment_size=8 * KiB, gather_bytes=1 * KiB,
        ))
        bcast_global = execute_job(SimJob(
            spec, "bcast", procs, "binomial", nbytes=nbytes,
            segment_size=8 * KiB, policy="global",
        ))
        assert composite >= bcast_global


class TestRepeatedExperiments:
    def test_t1_scales_with_call_count(self):
        spec = MINICLUSTER
        one = execute_job(SimJob(
            spec, "bcast_barrier_reps", 6, "binomial", nbytes=8 * KiB, calls=1
        ))
        four = execute_job(SimJob(
            spec, "bcast_barrier_reps", 6, "binomial", nbytes=8 * KiB, calls=4
        ))
        assert four == pytest.approx(4 * one, rel=0.25)

    def test_barrier_only_cheaper_than_bcast_plus_barrier(self):
        spec = MINICLUSTER
        with_bcast = execute_job(SimJob(
            spec, "bcast_barrier_reps", 6, "binomial", nbytes=8 * KiB, calls=3
        ))
        barriers = execute_job(SimJob(spec, "barrier_reps", 6, calls=3))
        assert barriers < with_bcast

    def test_zero_calls_rejected(self):
        with pytest.raises(SimulationError):
            execute_job(SimJob(
                MINICLUSTER, "bcast_barrier_reps", 4, "binomial",
                nbytes=8 * KiB, calls=0,
            ))
