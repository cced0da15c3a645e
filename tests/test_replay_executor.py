"""Differential tests of the replay executor against the event loop.

:mod:`repro.sim.batch` replays every cell on
:class:`~repro.mpi.ScheduleRecorder` rank schedules instead of running
:func:`repro.exec.execute_job`'s generator event loop.  The two must agree
bit for bit on every job kind, every algorithm and every platform shape —
noisy and faulted ones included, whose noise, loss and link-window draws
the executor must make in the event loop's order — and must fail the same
way on broken rank programs.  :func:`repro.clusters.seed_free`, which lets
the batched engine share one simulation between seeds, must hold exactly
on the platforms whose results ignore the seed.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.clusters import GRISOU, MINICLUSTER, seed_free
from repro.collectives.registry import algorithm_names
from repro.errors import DeadlockError, MpiError, SimulationError
from repro.exec import SimJob, execute_job
from repro.exec.job import JOB_KINDS
from repro.fabric import build_fabric
from repro.faults import (
    FaultPlan,
    HeavyTailSpec,
    LinkFault,
    MessageLoss,
    StragglerFault,
)
from repro.measure import Experiment, run_experiment
from repro.mpi import ScheduleRecorder
from repro.sim.batch import BatchSimulator, replay
from repro.sim.network import Fabric, TransferTiming
from repro.units import KiB

GRISOU_QUIET = GRISOU.with_noise(0.0)

MINICLUSTER_LEAF_SPINE = MINICLUSTER.with_fabric(
    build_fabric("leaf_spine_2to1", MINICLUSTER)
)

#: Slow hosts: CPU slowdown (``compute_factor``) on the isend overhead
#: and compute of ranks on nodes 0, 1 and 6, slower injection on node 1.
STRAGGLERS = (
    StragglerFault(node=0, compute_factor=2.0),
    StragglerFault(node=1, inject_factor=2.0, compute_factor=3.0),
    StragglerFault(node=6, compute_factor=1.5),
)

#: A link flapping every 20 us and one degraded for a window, both on
#: MINICLUSTER's microsecond scale, so messages fall on both sides.
FLAPPING_LINKS = (
    LinkFault(src=0, dst=1, latency_factor=4.0, byte_factor=3.0,
              period=20e-6, on_fraction=0.5),
    LinkFault(src=3, dst=2, byte_factor=5.0, start=5e-6, end=200e-6),
)

#: Every platform shape the executor must reproduce: flat, two- and
#: three-level fabrics, degraded nodes, tied isend times, two ranks on two
#: NIC ports per node, two ranks sharing one port — and the noisy and
#: faulted platforms, alone and combined.
SPECS = {
    "flat": MINICLUSTER,
    "leaf-spine": MINICLUSTER_LEAF_SPINE,
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
    "noisy": MINICLUSTER.with_noise(0.05),
    "grisou-noisy": GRISOU,
    "stragglers": MINICLUSTER.with_faults(FaultPlan(stragglers=STRAGGLERS)),
    "flapping-links": MINICLUSTER.with_faults(
        FaultPlan(links=FLAPPING_LINKS)
    ),
    "loss": MINICLUSTER.with_faults(
        FaultPlan(loss=MessageLoss(rate=0.2, timeout=50e-6))
    ),
    "heavy-tail": MINICLUSTER.with_faults(FaultPlan(noise=HeavyTailSpec())),
    "leaf-spine-stragglers-noisy": MINICLUSTER_LEAF_SPINE.with_noise(
        0.05
    ).with_faults(FaultPlan(stragglers=STRAGGLERS)),
    "chaos": MINICLUSTER_LEAF_SPINE.with_noise(0.05).with_faults(
        FaultPlan(
            stragglers=STRAGGLERS,
            links=FLAPPING_LINKS,
            loss=MessageLoss(rate=0.2, timeout=50e-6),
            noise=HeavyTailSpec(kind="mixture", spike_probability=0.1),
        )
    ),
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
    """A random cell: P in 1..16, sizes on both sides of the eager limit
    and across segment boundaries, random root, policy and seed."""
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
                assert sim.stats.columnar == 1

    def test_every_kind_and_algorithm_covered(self):
        pairs = set(kind_algorithms())
        assert {kind for kind, _ in pairs} == set(JOB_KINDS)
        for algorithm in ("split_binary", "scatter_allgather", "hierarchical"):
            assert ("bcast", algorithm) in pairs
        assert ("reduce", "hierarchical") in pairs

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_seed_free_exactly_when_seeds_agree(self, name):
        # A multi-message inter-node cell: 8 segments down a 7-hop chain.
        spec = SPECS[name]
        results = {
            execute_job(
                SimJob(spec=spec, kind="bcast", procs=8, algorithm="chain",
                       nbytes=64 * KiB, segment_size=8 * KiB,
                       mapping="spread", seed=seed)
            )
            for seed in (0, 1, 2)
        }
        assert seed_free(spec) == (len(results) == 1), results


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


def _send_recv(nbytes):
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes)
        else:
            yield from comm.recv(0)

    return program


def _raises_alike(spec, experiment, error):
    """Both paths raise ``error`` with the same message."""
    with pytest.raises(error) as event_loop:
        run_experiment(spec, experiment)
    with pytest.raises(error) as executor:
        replay(spec, experiment)
    assert type(executor.value) is type(event_loop.value)
    assert str(executor.value) == str(event_loop.value)


class TestErrorParity:
    @pytest.mark.parametrize(
        "program,error,spec",
        [
            (_deadlock, DeadlockError, MINICLUSTER),
            (_unmatched, SimulationError, MINICLUSTER),
            (_self_send, MpiError, MINICLUSTER),
            (_bad_peer_blocks_others, DeadlockError, MINICLUSTER),
            (_deadlock, DeadlockError, SPECS["stragglers"]),
            (_unmatched, SimulationError, SPECS["stragglers"]),
        ],
        ids=["deadlock", "unmatched", "self-send", "bad-peer-deadlock",
             "deadlock-stragglers", "unmatched-stragglers"],
    )
    def test_executor_raises_like_the_event_loop(self, program, error, spec):
        _raises_alike(spec, Experiment(program, procs=2), error)

    @pytest.mark.parametrize(
        "method,early,nbytes",
        [
            ("transfer",
             lambda fabric, src, dst, nbytes, ready, *ports: TransferTiming(
                 ready - 1.0, ready - 1.0, ready - 1.0),
             64),
            ("control_transfer",
             lambda fabric, src, dst, ready: ready - 1.0,
             64 * KiB),
        ],
        ids=["eager", "rendezvous"],
    )
    def test_send_start_fails_inside_the_sending_rank(
        self, monkeypatch, method, early, nbytes
    ):
        # A fabric timing before now fails the send as it starts.  The
        # communicator starts a send inside the sending process, so the
        # sender stops there and the receiver waits for ever.
        monkeypatch.setattr(Fabric, method, early)
        _raises_alike(
            MINICLUSTER, Experiment(_send_recv(nbytes), procs=2), DeadlockError
        )

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
