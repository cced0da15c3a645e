"""Timed communication experiments on simulated clusters.

Every estimation procedure and benchmark boils down to: build a fresh
simulated world, run one MPI program on all ranks, and read off a time.
This module defines those programs and timing conventions:

* ``policy="global"`` — time until the last rank completes (MPIBlib's
  *global* measurement; used for algorithm comparison, Table 3 / Fig. 5);
* ``policy="root"`` — time measured on the root's clock (the paper's α/β
  experiments start and finish on the root precisely so its clock suffices).

A measurement is named by a :class:`~repro.exec.job.SimJob`, whose kind
table documents each experiment; :func:`job_experiment` turns it into an
:class:`Experiment` and :func:`run_experiment` times that on the event
loop.  A custom rank program, a catalogue entry instead of a name, or a
tracer goes through ``run_experiment(spec, Experiment(...))`` or
``run_experiment(spec, experiment(...), tracer=...)`` directly.

Repetition/statistics live in :mod:`repro.estimation.statistics`; functions
here run exactly one simulation per call and are deterministic given
``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.clusters.spec import ClusterSpec
from repro.collectives.barrier import BARRIER_ALGORITHMS, DEFAULT_BARRIER
from repro.collectives.allgather import ALLGATHER_ALGORITHMS
from repro.collectives.allreduce import ALLREDUCE_ALGORITHMS
from repro.collectives.alltoall import ALLTOALL_ALGORITHMS
from repro.collectives.bcast import BCAST_ALGORITHMS
from repro.collectives.gather import GATHER_ALGORITHMS
from repro.collectives.reduce import REDUCE_ALGORITHMS
from repro.collectives.scatter import SCATTER_ALGORITHMS
from repro.errors import SimulationError
from repro.mpi.communicator import Communicator, RankProgram
from repro.sim.engine import SimGen
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.job import SimJob

#: Timing conventions supported by :func:`run_experiment`.
POLICIES = ("global", "root")


def check_policy(policy: str) -> None:
    """Refuse a timing policy outside :data:`POLICIES`."""
    if policy not in POLICIES:
        raise SimulationError(f"unknown timing policy {policy!r}; use {POLICIES}")


def elapsed_time(world, finish_times, root: int, policy: str) -> float:
    """The measured time of a finished run under ``policy``.

    Refuses a run that left unmatched messages or receives behind.
    """
    if not world.quiescent():
        raise SimulationError("run left unmatched messages or receives behind")
    return finish_times[root] if policy == "root" else max(finish_times)


# -- the experiment table ------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One timed measurement: a rank program and how to time it."""

    program: RankProgram
    procs: int
    root: int = 0
    policy: str = "global"
    mapping: str = "block"
    #: Factor applied to the timed result (the ping-pong's halving; exact).
    scale: float = 1.0


def run_experiment(
    spec: ClusterSpec,
    experiment: Experiment,
    *,
    seed: int = 0,
    tracer: Tracer = NULL_TRACER,
) -> float:
    """Time ``experiment`` on ``spec`` with the event loop.

    All ranks start at simulated time zero (a perfectly synchronised start,
    the ideal the paper's barrier-separated repetitions approximate).
    """
    check_policy(experiment.policy)
    world = spec.make_world(
        experiment.procs, seed=seed, tracer=tracer, mapping=experiment.mapping
    )
    program = experiment.program

    def body(comm: Communicator) -> SimGen:
        yield from program(comm)
        return comm.now

    processes = world.run(body)
    elapsed = elapsed_time(
        world, [p.value for p in processes], experiment.root, experiment.policy
    )
    return elapsed * experiment.scale


def _steps(*steps, repeat: int = 1) -> RankProgram:
    """The program calling ``entry(comm, *args)`` per ``(entry, *args)``
    step, in order, ``repeat`` times."""

    def program(comm: Communicator) -> SimGen:
        for _ in range(repeat):
            for entry, *args in steps:
                yield from entry(comm, *args)

    return program


def _ping_pong(src: int, dst: int, nbytes: int) -> RankProgram:
    def program(comm: Communicator) -> SimGen:
        if comm.rank == src:
            yield from comm.send(dst, nbytes, tag=4_000)
            yield from comm.recv(dst, tag=4_001)
        elif comm.rank == dst:
            yield from comm.recv(src, tag=4_000)
            yield from comm.send(src, nbytes, tag=4_001)

    return program


def _entry(catalogue: dict, algorithm):
    return catalogue[algorithm] if isinstance(algorithm, str) else algorithm


#: Kinds timed on the root whatever policy is asked for: the composites
#: start and finish on the root, and so do the repeated-call experiments.
_ROOT_TIMED = frozenset((
    "bcast_then_gather", "bcast_barrier_reps", "barrier_reps",
    "reduce_then_scatter", "p2p_roundtrip",
))
#: Kinds that place ranks by the asked-for mapping; the others are
#: block-mapped.
_MAPPED = frozenset(("bcast", "bcast_barrier_reps", "p2p_roundtrip"))
#: The symmetric collectives: every rank starts and finishes.
_SYMMETRIC = {
    "allreduce": ALLREDUCE_ALGORITHMS,
    "allgather": ALLGATHER_ALGORITHMS,
    "alltoall": ALLTOALL_ALGORITHMS,
}


def experiment(
    kind: str,
    procs: int,
    algorithm=None,
    *,
    nbytes: int = 0,
    segment_size: int = 0,
    gather_bytes: int = 0,
    calls: int = 0,
    root: int = 0,
    policy: str = "global",
    mapping: str = "block",
    ranks: tuple[int, int] = (0, 1),
) -> Experiment:
    """The rank program of one measurement kind, and how to time it.

    The one kind→program table: :func:`job_experiment` builds every
    job's experiment here, and :mod:`repro.exec.job` documents the
    kinds.  The parameters are :class:`~repro.exec.job.SimJob`'s fields;
    ``algorithm`` is a catalogue name or entry.  ``policy`` reaches only
    the kinds not timed on the root, ``mapping`` only the plain and the
    repeated broadcast and the ping-pong; the others run block-mapped.
    """
    if kind == "p2p_roundtrip":
        src, dst = ranks
        if src == dst:
            raise SimulationError("round trip needs two distinct ranks")
        program = _ping_pong(src, dst, nbytes)
        procs, root = max(src, dst) + 1, src
    elif kind == "barrier_reps":
        program = _steps((DEFAULT_BARRIER,), repeat=calls)
    elif kind == "barrier":
        program = _steps((_entry(BARRIER_ALGORITHMS, algorithm),))
    elif kind in ("bcast", "bcast_then_gather", "bcast_barrier_reps"):
        if kind == "bcast_barrier_reps" and calls < 1:
            raise SimulationError(f"need at least one call, got {calls}")
        bcast = (_entry(BCAST_ALGORITHMS, algorithm), root, nbytes, segment_size)
        if kind == "bcast":
            program = _steps(bcast)
        elif kind == "bcast_then_gather":
            program = _steps(
                bcast, (GATHER_ALGORITHMS["linear"], root, gather_bytes)
            )
        else:
            program = _steps(bcast, (DEFAULT_BARRIER,), repeat=calls)
    elif kind in ("reduce", "reduce_then_scatter"):
        reduce = (_entry(REDUCE_ALGORITHMS, algorithm), root, nbytes, segment_size)
        if kind == "reduce":
            program = _steps(reduce)
        else:
            program = _steps(
                reduce, (SCATTER_ALGORITHMS["linear"], root, gather_bytes)
            )
    elif kind in ("gather", "scatter"):
        catalogue = GATHER_ALGORITHMS if kind == "gather" else SCATTER_ALGORITHMS
        program = _steps((_entry(catalogue, algorithm), root, nbytes))
    elif kind in _SYMMETRIC:
        program = _steps((_entry(_SYMMETRIC[kind], algorithm), nbytes))
    else:
        raise SimulationError(f"unknown experiment kind {kind!r}")
    return Experiment(
        program,
        procs,
        root=root,
        policy="root" if kind in _ROOT_TIMED else policy,
        mapping=mapping if kind in _MAPPED else "block",
        scale=0.5 if kind == "p2p_roundtrip" else 1.0,
    )


def job_experiment(job: "SimJob") -> Experiment:
    """The experiment a :class:`~repro.exec.job.SimJob` measures."""
    return experiment(
        job.kind, job.procs, job.algorithm, nbytes=job.nbytes,
        segment_size=job.segment_size, gather_bytes=job.gather_bytes,
        calls=job.calls, root=job.root, policy=job.policy,
        mapping=job.mapping, ranks=job.ranks,
    )

