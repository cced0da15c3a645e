"""Timed communication experiments on simulated clusters.

Every estimation procedure and benchmark boils down to: build a fresh
simulated world, run one MPI program on all ranks, and read off a time.
This module defines those programs and timing conventions:

* ``policy="global"`` — time until the last rank completes (MPIBlib's
  *global* measurement; used for algorithm comparison, Table 3 / Fig. 5);
* ``policy="root"`` — time measured on the root's clock (the paper's α/β
  experiments start and finish on the root precisely so its clock suffices).

Repetition/statistics live in :mod:`repro.estimation.statistics`; functions
here run exactly one simulation per call and are deterministic given
``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.clusters.spec import ClusterSpec
from repro.collectives.barrier import (
    BARRIER_ALGORITHMS,
    DEFAULT_BARRIER,
    BarrierAlgorithm,
)
from repro.collectives.allgather import ALLGATHER_ALGORITHMS
from repro.collectives.allreduce import ALLREDUCE_ALGORITHMS
from repro.collectives.alltoall import ALLTOALL_ALGORITHMS
from repro.collectives.bcast import BCAST_ALGORITHMS, BcastAlgorithm
from repro.collectives.gather import GATHER_ALGORITHMS, GatherAlgorithm
from repro.collectives.reduce import REDUCE_ALGORITHMS
from repro.collectives.scatter import SCATTER_ALGORITHMS
from repro.errors import SimulationError
from repro.mpi.communicator import Communicator, RankProgram
from repro.sim.engine import SimGen
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.job import SimJob

#: Timing conventions supported by :func:`run_timed`.
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


def run_timed(
    spec: ClusterSpec,
    program: RankProgram,
    procs: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
    tracer: Tracer = NULL_TRACER,
    mapping: str = "block",
) -> float:
    """Run ``program`` on ``procs`` ranks; return the elapsed simulated time.

    All ranks start at simulated time zero (a perfectly synchronised start,
    the ideal the paper's barrier-separated repetitions approximate).
    """
    check_policy(policy)
    world = spec.make_world(procs, seed=seed, tracer=tracer, mapping=mapping)

    def body(comm: Communicator) -> SimGen:
        yield from program(comm)
        return comm.now

    processes = world.run(body)
    return elapsed_time(world, [p.value for p in processes], root, policy)


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
    """Time ``experiment`` on ``spec`` with the event loop."""
    elapsed = run_timed(
        spec, experiment.program, experiment.procs, root=experiment.root,
        seed=seed, policy=experiment.policy, tracer=tracer,
        mapping=experiment.mapping,
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
    barrier: BarrierAlgorithm = DEFAULT_BARRIER,
) -> Experiment:
    """The rank program of one measurement kind, and how to time it.

    The one kind→program table: the ``time_*`` functions below and
    :func:`job_experiment` both build their experiments here.  The
    parameters are :class:`~repro.exec.job.SimJob`'s fields; ``algorithm``
    is a catalogue name or entry.  ``policy`` reaches only the kinds not
    timed on the root, ``mapping`` only the plain and the repeated
    broadcast and the ping-pong; the others run block-mapped.
    """
    if kind == "p2p_roundtrip":
        src, dst = ranks
        if src == dst:
            raise SimulationError("round trip needs two distinct ranks")
        program = _ping_pong(src, dst, nbytes)
        procs, root = max(src, dst) + 1, src
    elif kind == "barrier_reps":
        program = _steps((barrier,), repeat=calls)
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
            program = _steps(bcast, (barrier,), repeat=calls)
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


# -- broadcast ---------------------------------------------------------------


def time_bcast(
    spec: ClusterSpec,
    algorithm: BcastAlgorithm | str,
    procs: int,
    nbytes: int,
    segment_size: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
    tracer: Tracer = NULL_TRACER,
    mapping: str = "block",
) -> float:
    """Time one broadcast with the given algorithm."""
    return run_experiment(
        spec,
        experiment(
            "bcast", procs, algorithm, nbytes=nbytes,
            segment_size=segment_size, root=root, policy=policy,
            mapping=mapping,
        ),
        seed=seed,
        tracer=tracer,
    )


def time_bcast_then_gather(
    spec: ClusterSpec,
    algorithm: BcastAlgorithm | str,
    procs: int,
    nbytes: int,
    segment_size: int,
    gather_bytes: int,
    *,
    root: int = 0,
    seed: int = 0,
) -> float:
    """The paper's α/β communication experiment (§4.2), timed on the root.

    Broadcast of ``nbytes`` with the algorithm under test, followed by a
    linear-without-synchronisation gather of ``gather_bytes`` per rank onto
    the root; starts and finishes on the root so the root clock times it.
    """
    return run_experiment(
        spec,
        experiment(
            "bcast_then_gather", procs, algorithm, nbytes=nbytes,
            segment_size=segment_size, gather_bytes=gather_bytes, root=root,
        ),
        seed=seed,
    )


def time_repeated_bcast_with_barriers(
    spec: ClusterSpec,
    algorithm: BcastAlgorithm | str,
    procs: int,
    nbytes: int,
    segment_size: int,
    calls: int,
    *,
    root: int = 0,
    seed: int = 0,
    barrier: BarrierAlgorithm = DEFAULT_BARRIER,
    mapping: str = "block",
) -> float:
    """The paper's γ experiment kernel (§4.1): returns ``T1(P, N)``.

    ``calls`` successive broadcasts separated by barriers, timed on the
    root from the first call to the completion of the last barrier.
    """
    return run_experiment(
        spec,
        experiment(
            "bcast_barrier_reps", procs, algorithm, nbytes=nbytes,
            segment_size=segment_size, calls=calls, root=root,
            mapping=mapping, barrier=barrier,
        ),
        seed=seed,
    )


def time_repeated_barrier(
    spec: ClusterSpec,
    procs: int,
    calls: int,
    *,
    root: int = 0,
    seed: int = 0,
    barrier: BarrierAlgorithm = DEFAULT_BARRIER,
) -> float:
    """Root-clock time of ``calls`` back-to-back barriers.

    Used to compensate the barrier share out of the γ experiment.
    """
    return run_experiment(
        spec,
        experiment(
            "barrier_reps", procs, calls=calls, root=root, barrier=barrier
        ),
        seed=seed,
    )


# -- reduce and barrier -------------------------------------------------------


def time_reduce(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    segment_size: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "root",
) -> float:
    """Time one reduction; root-timed by default (it ends on the root)."""
    return run_experiment(
        spec,
        experiment(
            "reduce", procs, algorithm, nbytes=nbytes,
            segment_size=segment_size, root=root, policy=policy,
        ),
        seed=seed,
    )


def time_reduce_then_scatter(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    segment_size: int,
    scatter_bytes: int,
    *,
    root: int = 0,
    seed: int = 0,
) -> float:
    """The reduce α/β experiment: reduce under test + linear scatter.

    The dual of :func:`time_bcast_then_gather` — the composite starts and
    finishes on the root, and the linear scatter of ``scatter_bytes`` per
    rank contributes the same ``(P-1, (P-1)·m_g)`` coefficient row the
    gather does for broadcasts.
    """
    return run_experiment(
        spec,
        experiment(
            "reduce_then_scatter", procs, algorithm, nbytes=nbytes,
            segment_size=segment_size, gather_bytes=scatter_bytes, root=root,
        ),
        seed=seed,
    )


def time_barrier(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
) -> float:
    """Time one barrier (global completion by default)."""
    return run_experiment(
        spec,
        experiment("barrier", procs, algorithm, root=root, policy=policy),
        seed=seed,
    )


# -- gather and point-to-point ------------------------------------------------


def time_gather(
    spec: ClusterSpec,
    algorithm: GatherAlgorithm | str,
    procs: int,
    nbytes: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "root",
) -> float:
    """Time one gather of ``nbytes`` per rank onto the root."""
    return run_experiment(
        spec,
        experiment(
            "gather", procs, algorithm, nbytes=nbytes, root=root,
            policy=policy,
        ),
        seed=seed,
    )


def time_scatter(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
) -> float:
    """Time one scatter of ``nbytes`` per rank from the root.

    Global-timed by default: unlike gather, the operation *ends* on the
    leaves, so the root's clock would miss the last delivery.
    """
    return run_experiment(
        spec,
        experiment(
            "scatter", procs, algorithm, nbytes=nbytes, root=root,
            policy=policy,
        ),
        seed=seed,
    )


# -- symmetric collectives (every rank starts and finishes) -------------------


def time_allreduce(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
) -> float:
    """Time one allreduce of an ``nbytes`` full vector (global completion)."""
    return run_experiment(
        spec,
        experiment(
            "allreduce", procs, algorithm, nbytes=nbytes, root=root,
            policy=policy,
        ),
        seed=seed,
    )


def time_allgather(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
) -> float:
    """Time one allgather of ``nbytes`` per rank (global completion)."""
    return run_experiment(
        spec,
        experiment(
            "allgather", procs, algorithm, nbytes=nbytes, root=root,
            policy=policy,
        ),
        seed=seed,
    )


def time_alltoall(
    spec: ClusterSpec,
    algorithm: str,
    procs: int,
    nbytes: int,
    *,
    root: int = 0,
    seed: int = 0,
    policy: str = "global",
) -> float:
    """Time one alltoall of ``nbytes`` per pair (global completion)."""
    return run_experiment(
        spec,
        experiment(
            "alltoall", procs, algorithm, nbytes=nbytes, root=root,
            policy=policy,
        ),
        seed=seed,
    )


def time_p2p_roundtrip(
    spec: ClusterSpec,
    nbytes: int,
    *,
    seed: int = 0,
    ranks: tuple[int, int] = (0, 1),
    mapping: str = "spread",
) -> float:
    """Half of a ping-pong round trip between two ranks (Hockney's method).

    Defaults to spread mapping so the measured link is a network link even
    on clusters with several ranks per node.

    This is the classical point-to-point experiment of §2.2 that the paper
    argues is *insufficient* for modelling collectives; we implement it for
    the traditional models and the estimation ablation.
    """
    return run_experiment(
        spec,
        experiment(
            "p2p_roundtrip", 2, nbytes=nbytes, ranks=ranks, mapping=mapping
        ),
        seed=seed,
    )
