"""Differential tests of the replay executor against the event loop.

:mod:`repro.sim.batch` replays noise-free cells on
:class:`~repro.mpi.ScheduleRecorder` rank schedules instead of running
:func:`repro.exec.execute_job`'s generator event loop.  The two must agree
bit for bit on every job kind, every algorithm and every noise-free
platform shape, and must fail the same way on broken rank programs.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.clusters import GRISOU, MINICLUSTER
from repro.collectives.registry import algorithm_names
from repro.errors import DeadlockError, MpiError, SimulationError
from repro.exec import SimJob, execute_job
from repro.exec.job import JOB_KINDS
from repro.fabric import build_fabric
from repro.measure import Experiment, run_experiment
from repro.mpi import ScheduleRecorder
from repro.sim.batch import BatchSimulator, replay

GRISOU_QUIET = GRISOU.with_noise(0.0)

#: Every noise-free platform shape the executor must reproduce: flat,
#: two- and three-level fabrics, degraded nodes, tied isend times, two
#: ranks on two NIC ports per node, and two ranks sharing one port.
SPECS = {
    "flat": MINICLUSTER,
    "leaf-spine": MINICLUSTER.with_fabric(
        build_fabric("leaf_spine_2to1", MINICLUSTER)
    ),
    "fat-tree": MINICLUSTER.with_fabric(
        build_fabric("fat_tree_4to1", MINICLUSTER)
    ),
    "het-spine": MINICLUSTER.with_fabric(
        build_fabric("het_spine_2to1", MINICLUSTER)
    ),
    "slow-nodes": MINICLUSTER.with_slow_nodes({1: 3.0, 4: 1.5}),
    "zero-send-overhead": replace(
        MINICLUSTER, network=replace(MINICLUSTER.network, send_overhead=0.0)
    ),
    "grisou-2ppn": GRISOU_QUIET,
    "grisou-shared-port": replace(GRISOU_QUIET, nics_per_node=1),
}

#: The catalogue each job kind draws its algorithm from.
OPERATION_OF_KIND = {
    "bcast": "bcast",
    "bcast_then_gather": "bcast",
    "bcast_barrier_reps": "bcast",
    "gather": "gather",
    "reduce": "reduce",
    "reduce_then_scatter": "reduce",
    "barrier": "barrier",
    "scatter": "scatter",
    "allreduce": "allreduce",
    "allgather": "allgather",
    "alltoall": "alltoall",
}


def kind_algorithms():
    """Every (kind, algorithm) pair of :data:`JOB_KINDS`."""
    for kind in JOB_KINDS:
        operation = OPERATION_OF_KIND.get(kind)
        names = algorithm_names(operation) if operation else ("",)
        for name in names:
            yield kind, name


def random_job(rng: random.Random, spec, kind: str, algorithm: str) -> SimJob:
    """A random noise-free cell: P in 1..16, sizes on both sides of the
    eager limit and across segment boundaries, random root and policy."""
    eager = spec.network.eager_limit
    procs = rng.randint(1, 16)
    segment = rng.choice((0, eager // 2, 2 * eager))
    sizes = (0, 1, eager, eager + 1, 3 * max(segment, 1024) + 7)
    src, dst = rng.sample(range(16), 2)
    return SimJob(
        spec=spec,
        kind=kind,
        procs=procs,
        algorithm=algorithm,
        nbytes=rng.choice(sizes),
        segment_size=segment,
        gather_bytes=rng.choice(sizes),
        calls=rng.randint(1, 3),
        root=rng.randrange(procs),
        seed=rng.randrange(1000),
        policy=rng.choice(("global", "root")),
        mapping=rng.choice(("block", "spread")),
        ranks=(src, dst),
    )


class TestRandomCellParity:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_random_cells_bit_identical(self, name):
        spec = SPECS[name]
        rng = random.Random(f"replay-{name}")
        for kind, algorithm in kind_algorithms():
            for _ in range(6):
                job = random_job(rng, spec, kind, algorithm)
                sim = BatchSimulator()
                assert sim.run([job]) == [execute_job(job)], job
                assert sim.stats.event_loop == 0

    def test_every_kind_and_algorithm_covered(self):
        pairs = set(kind_algorithms())
        assert {kind for kind, _ in pairs} == set(JOB_KINDS)
        for algorithm in ("split_binary", "scatter_allgather", "hierarchical"):
            assert ("bcast", algorithm) in pairs
        assert ("reduce", "hierarchical") in pairs


# -- error parity ---------------------------------------------------------------


def _deadlock(comm):
    # Rank 0 waits for a message nobody sends.
    if comm.rank == 0:
        yield from comm.recv(1, tag=7)


def _unmatched(comm):
    # Rank 0's eager message is never received.
    if comm.rank == 0:
        request = yield from comm.isend(1, 64, tag=7)
        yield from comm.wait(request)


def _self_send(comm):
    # Rank 1 fails; nobody depends on it, so its error surfaces.
    if comm.rank == 1:
        yield from comm.send(1, 64)


def _bad_peer_blocks_others(comm):
    # Rank 0 fails on a bad peer while rank 1 waits on it: a deadlock.
    if comm.rank == 0:
        yield from comm.send(5, 64)
    else:
        yield from comm.recv(0)


class TestErrorParity:
    @pytest.mark.parametrize(
        "program,error",
        [
            (_deadlock, DeadlockError),
            (_unmatched, SimulationError),
            (_self_send, MpiError),
            (_bad_peer_blocks_others, DeadlockError),
        ],
        ids=["deadlock", "unmatched", "self-send", "bad-peer-deadlock"],
    )
    def test_executor_raises_like_the_event_loop(self, program, error):
        experiment = Experiment(program, procs=2)
        with pytest.raises(error) as event_loop:
            run_experiment(MINICLUSTER, experiment)
        with pytest.raises(error) as executor:
            replay(MINICLUSTER, experiment)
        assert type(executor.value) is type(event_loop.value)
        assert str(executor.value) == str(event_loop.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda comm: comm.isend(4, 8),
            lambda comm: comm.isend(-1, 8),
            lambda comm: comm.isend(0, 8),
            lambda comm: comm.isend(1, -8),
            lambda comm: comm.irecv(4),
            lambda comm: comm.send(0, 8),
            lambda comm: comm.sendrecv(1, -8, source=1),
        ],
        ids=["peer-too-big", "peer-negative", "self", "negative-size",
             "recv-peer", "blocking-self", "sendrecv-negative"],
    )
    def test_recorder_checks_like_the_communicator(self, call):
        world = MINICLUSTER.make_world(4)
        recorder = ScheduleRecorder(world, tuple(range(4)), 0)
        # Run each call up to its error; the recorder streams the
        # operations before it (sendrecv's irecv) where the communicator
        # posts them in place.
        with pytest.raises(MpiError) as communicator:
            for _ in call(world.comm_world(0)):
                pass
        with pytest.raises(MpiError) as recorded:
            for _ in call(recorder):
                pass
        assert str(recorded.value) == str(communicator.value)

    def test_replay_refuses_noisy_specs(self):
        experiment = Experiment(_deadlock, procs=2)
        with pytest.raises(SimulationError, match="noise-free"):
            replay(MINICLUSTER.with_noise(0.1), experiment)
