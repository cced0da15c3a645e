"""Tests for the batched grid simulator (:mod:`repro.sim.batch`).

The load-bearing properties:

* the replay executor is **bit-for-bit identical** to the event-loop
  engine over the full calibration grid of every collective's pipeline,
  flat and multi-level fabric alike;
* noisy and faulted cells take the same executor, still returning
  identical results, and only seed-free cells share a simulation;
* the runner's batched prefetch is equivalent to the serial path and a
  warm persistent cache replays a batch with *zero* new simulations.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.clusters import GRISOU, MINICLUSTER, seed_free
from repro.estimation.alphabeta import (
    OPERATION_PROFILES,
    alphabeta_prefetch_jobs,
)
from repro.exec import ParallelRunner, ResultCache, SimJob, execute_job
from repro.fabric import build_fabric
from repro.faults.plan import FaultPlan, LinkFault, StragglerFault
from repro.sim.batch import BatchSimulator, dedupe_key
from repro.units import KiB, MiB

SIZES = (1 * KiB, 64 * KiB, 1 * MiB)

#: A quiet two-port SMP cluster: exercises shared memory, the two NICs per
#: node and the spread/block distinction that MINICLUSTER (1 ppn) cannot.
GRISOU_QUIET = GRISOU.with_noise(0.0)

#: The 2:1 oversubscribed leaf-spine: shared-uplink reservations.
MINICLUSTER_LEAF_SPINE = MINICLUSTER.with_fabric(
    build_fabric("leaf_spine_2to1", MINICLUSTER)
)

#: A straggler whose CPU slowdown (``compute_factor``) and injection
#: slowdown both reach the simulated rank programs.
STRAGGLER = FaultPlan(
    stragglers=(StragglerFault(node=2, inject_factor=2.0, compute_factor=3.0),)
)

#: A link degraded for the first half of every 20 us.
FLAPPING_LINK = FaultPlan(
    links=(LinkFault(src=0, dst=1, byte_factor=4.0, period=20e-6,
                     on_fraction=0.5),)
)


def calibration_grid(spec, procs):
    """Every job the calibration pipelines would prefetch, for every
    modelled algorithm of every collective."""
    jobs: list[SimJob] = []
    for profile in OPERATION_PROFILES.values():
        for algorithm in profile.models:
            jobs += alphabeta_prefetch_jobs(
                spec, algorithm, operation=profile.operation,
                procs=procs, sizes=SIZES, proc_counts=(4, procs),
            )
    return jobs


class TestColumnarParity:
    @pytest.mark.parametrize(
        "spec,procs",
        [(MINICLUSTER, 12), (GRISOU_QUIET, 24), (MINICLUSTER_LEAF_SPINE, 12)],
        ids=["minicluster", "grisou-quiet", "minicluster-leaf-spine"],
    )
    def test_full_calibration_grid_bit_identical(self, spec, procs):
        jobs = calibration_grid(spec, procs)
        sim = BatchSimulator()
        got = sim.run(jobs)
        want = [execute_job(job) for job in jobs]
        assert got == want  # bit-for-bit, not approx
        assert sim.stats.cells == len(jobs)
        assert sim.stats.columnar == sim.stats.unique_cells

    def test_split_binary_takes_the_executor_and_matches(self):
        jobs = [
            SimJob(spec=MINICLUSTER, kind="bcast", procs=12,
                   algorithm="split_binary", nbytes=64 * KiB,
                   segment_size=8 * KiB)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == 1

    def test_bcast_root_and_policy_variants(self):
        jobs = [
            SimJob(
                spec=MINICLUSTER,
                kind="bcast",
                procs=10,
                algorithm=algorithm,
                nbytes=32 * KiB,
                segment_size=8 * KiB,
                root=root,
                policy=policy,
                mapping=mapping,
            )
            for algorithm in ("linear", "chain", "binary", "binomial")
            for root in (0, 3)
            for policy in ("root", "global")
            for mapping in ("block", "spread")
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)

    def test_noise_free_cells_are_seed_deduped(self):
        # Every seed-free platform shape: plain, a straggler, a flapping
        # link, a disabled plan and slow nodes.
        for spec in (
            MINICLUSTER,
            MINICLUSTER.with_faults(STRAGGLER),
            MINICLUSTER.with_faults(FLAPPING_LINK),
            MINICLUSTER.with_faults(FaultPlan()),
            MINICLUSTER.with_slow_nodes({1: 3.0}),
        ):
            jobs = [
                SimJob(spec=spec, kind="bcast", procs=8,
                       algorithm="binomial", nbytes=8 * KiB, seed=seed)
                for seed in (0, 1, 2, 3)
            ]
            assert seed_free(spec), spec
            assert len({dedupe_key(job) for job in jobs}) == 1
            sim = BatchSimulator()
            results = sim.run(jobs)
            assert results == [execute_job(job) for job in jobs], spec
            assert sim.stats.deduped == 3
            assert sim.stats.unique_cells == 1


class TestNoisyAndFaultedCells:
    def test_noisy_spec_replays_and_matches(self):
        spec = MINICLUSTER.with_noise(0.2)
        jobs = [
            SimJob(spec=spec, kind="bcast", procs=8, algorithm="binomial",
                   nbytes=8 * KiB, seed=seed)
            for seed in (0, 1)
        ]
        assert not seed_free(spec)
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)
        assert sim.stats.deduped == 0  # noisy seeds are distinct results

    def test_fault_plan_replays_and_matches(self):
        spec = MINICLUSTER.with_faults(STRAGGLER)
        jobs = [
            SimJob(spec=spec, kind="reduce_then_scatter", procs=8,
                   algorithm="binomial", nbytes=16 * KiB,
                   segment_size=8 * KiB, gather_bytes=1 * KiB)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)

    def test_batch_span_contract(self):
        jobs = [
            SimJob(spec=spec, kind="bcast", procs=8, algorithm="binomial",
                   nbytes=8 * KiB)
            for spec in (
                MINICLUSTER.with_noise(0.2),
                MINICLUSTER.with_faults(STRAGGLER),
                MINICLUSTER,
            )
        ]
        recorder = obs.enable()
        recorder.clear()
        try:
            sim = BatchSimulator()
            assert sim.run(jobs) == [execute_job(job) for job in jobs]
            [span] = [s for s in recorder.finished() if s.name == "sim.batch"]
        finally:
            obs.disable()
            recorder.clear()
        assert span.attributes == {"cells": 3, "unique_cells": 3, "columnar": 3}


class TestRunnerIntegration:
    def test_batched_prefetch_matches_serial(self):
        jobs = calibration_grid(MINICLUSTER, 10)[:40]
        serial = ParallelRunner(jobs=1, batch=False)
        batched = ParallelRunner(jobs=1, batch=True)
        serial.prefetch(jobs)
        batched.prefetch(jobs)
        assert batched.run(jobs) == serial.run(jobs)
        assert batched.stats.batched_cells == len(jobs)
        assert batched.stats.deduped_cells > 0
        assert batched.stats.simulations < serial.stats.simulations

    def test_warm_cache_replays_batch_with_zero_simulations(self, tmp_path):
        jobs = calibration_grid(MINICLUSTER, 8)[:24]
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), batch=True)
        cold.prefetch(jobs)
        first = cold.run(jobs)
        assert cold.stats.simulations > 0

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), batch=True)
        warm.prefetch(jobs)
        assert warm.run(jobs) == first
        assert warm.stats.simulations == 0
