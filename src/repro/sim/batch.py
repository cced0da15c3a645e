"""Batched grid simulation: many independent cells, one engine pass.

Calibration sweeps and artifact builds execute thousands of *independent*
simulations — one per (P, m, algorithm, seed) grid cell — and each cell
pays the full generator-coroutine event-loop overhead (futures, request
and status objects, callback closures per simulated message).
:class:`BatchSimulator` runs a whole grid in one call and removes that
overhead:

* **Seed dedupe.**  A cell on a :func:`~repro.clusters.seed_free` spec
  (no noise, no message loss) gives the same result for every seed, so
  cells differing solely in ``seed`` collapse to one simulation.
  Calibration prefetches ship every measurement at least twice (the
  adaptive loop's zero-variance convergence needs two identical
  repetitions) — a structural 2x.

* **One replay executor, for every cell.**  A cell's rank programs run on
  :class:`~repro.mpi.recorder.ScheduleRecorder` communicators, which
  stream each rank's next operation (isend, irecv, wait, compute) whenever
  the rank can run.  :class:`_Replay` handles those operations in exactly
  the order :class:`~repro.sim.engine.Simulator` would — by time, then by
  the order in which the event loop schedules its events — with
  :class:`~repro.mpi.MpiWorld`'s FIFO matching, eager/rendezvous protocol
  and per-rank CPU slowdown, on the fabric :meth:`ClusterSpec.make_world`
  builds.  Every NIC, port, degraded-node and shared-uplink reservation,
  and every noise, message-loss and link-window draw of a noisy or
  faulted fabric, is therefore made in the event loop's order, so results
  are bit-identical by construction, for every algorithm, fabric and
  fault plan.  :func:`repro.exec.job.execute_job`, the generator event
  loop, stays the reference every parity test (``tests/test_sim_batch.py``,
  ``tests/test_replay_executor.py``) compares the executor against.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro import obs
from repro.clusters.spec import ClusterSpec, seed_free
from repro.errors import DeadlockError, SimulationError
from repro.measure import check_policy, elapsed_time, job_experiment
from repro.mpi.matching import Envelope, PostedRecv, RtsNotice
from repro.mpi.recorder import IRECV, ISEND, WAIT, ScheduleRecorder

__all__ = ["BatchSimulator", "BatchStats", "dedupe_key", "replay"]


def dedupe_key(job) -> str:
    """Collapsing key for grid cells that must produce the same float.

    A cell on a :func:`~repro.clusters.seed_free` spec gives the same result
    for every seed, so seed repetitions of one measurement share a key;
    anything else keys on the full job fingerprint.
    """
    if not seed_free(job.spec):
        return job.fingerprint()
    return "|".join(
        (
            "sf", job.spec.fingerprint(), job.kind, str(job.procs),
            job.algorithm, str(job.nbytes), str(job.segment_size),
            str(job.gather_bytes), str(job.calls), str(job.root),
            job.policy, job.mapping, repr(tuple(job.ranks)),
        )
    )


@dataclass
class BatchStats:
    """Counters of one :class:`BatchSimulator`'s activity."""

    #: Cells submitted / distinct cells after seed dedupe.
    cells: int = 0
    unique_cells: int = 0
    #: Cells resolved by the replay executor.
    columnar: int = 0
    #: Cells answered by another cell's result (seed dedupe).
    deduped: int = 0

    def as_dict(self) -> dict:
        return {
            "cells": self.cells,
            "unique_cells": self.unique_cells,
            "columnar": self.columnar,
            "deduped": self.deduped,
        }


# -- the replay executor ------------------------------------------------------


class _Rank:
    """One rank's replay state: its operation stream, its CPU costs and
    what it waits on."""

    __slots__ = (
        "index", "ops", "send_overhead", "compute_factor", "blocked",
        "isend", "finish", "error",
    )

    def __init__(self, index: int, ops, send_overhead: float,
                 compute_factor: float):
        self.index = index
        self.ops = ops
        #: Each isend's CPU cost and the factor on each compute, with the
        #: rank's CPU slowdown applied as :class:`~repro.mpi.Communicator`
        #: applies it (a factor of 1.0 leaves every cost exact).
        self.send_overhead = send_overhead
        self.compute_factor = compute_factor
        #: Requests of the pending wait still incomplete.
        self.blocked = 0
        #: The isend operation whose CPU overhead is being charged.
        self.isend: tuple | None = None
        self.finish: float | None = None
        self.error: Exception | None = None


class _Request:
    """A rank's pending isend or irecv."""

    __slots__ = ("replay", "rank", "done", "waited")

    def __init__(self, replay: "_Replay", rank: _Rank):
        self.replay = replay
        self.rank = rank
        self.done = False
        #: Whether the rank blocked on it (and resumes when it completes).
        self.waited = False


class _Send(_Request):
    """An isend; :meth:`grant` answers its rendezvous match."""

    __slots__ = ("dest", "nbytes")

    def __init__(self, replay: "_Replay", rank: _Rank, dest: int, nbytes: int):
        super().__init__(replay, rank)
        self.dest = dest
        self.nbytes = nbytes

    def grant(self, match_time: float, recv_done) -> None:
        """Clear-to-send; the payload starts when it reaches the sender."""
        replay = self.replay
        cts = replay.fabric.control_transfer(
            replay.node[self.dest], replay.node[self.rank.index], match_time
        )
        replay.schedule(cts, replay.payload, (self, recv_done))


class _Recv(_Request):
    """An irecv, posted to the matching engine as itself."""

    __slots__ = ("cid", "src", "tag")

    matches = PostedRecv.matches

    def __init__(self, replay: "_Replay", rank: _Rank, src: int, tag: int):
        super().__init__(replay, rank)
        self.cid = 0
        self.src = src
        self.tag = tag

    def complete(self, message, now: float) -> None:
        """Matched at ``now``: an eager payload is here, a rendezvous one
        is granted."""
        if message.__class__ is Envelope:
            self.delivered(now)
        else:
            message.grant(now, self.delivered)

    def delivered(self, deliver: float) -> None:
        replay = self.replay
        replay.schedule(deliver + replay.recv_overhead, replay.complete, self)


class _Replay:
    """One experiment's rank schedules, replayed in the event loop's order.

    The queue holds ``(time, seq, handler, arg)`` events; ``seq`` counts
    schedulings, so equal times fire in scheduling order, as in
    :class:`~repro.sim.engine.Simulator`.  Every event the event loop
    schedules for an :class:`~repro.mpi.MpiWorld` — a rank's start, an
    isend's CPU overhead, a compute timeout, a send or receive completion,
    an arrival, a clear-to-send — is scheduled here at the same point.
    A rank resumes inside the event that completes its last awaited
    request, as a process does inside the completing future's callback.
    """

    def __init__(self, world, program):
        self.fabric = world.fabric
        self.node = world.rank_to_node
        self.port = world.rank_to_port
        self.engines = world.engines
        params = self.fabric.params
        self.eager_limit = params.eager_limit
        self.recv_overhead = params.recv_overhead
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        group = tuple(range(world.size))
        factors = world.compute_factor or [1.0] * world.size
        self.ranks = [
            _Rank(
                rank, program(ScheduleRecorder(world, group, rank)),
                params.send_overhead * factors[rank], factors[rank],
            )
            for rank in group
        ]

    def schedule(self, when: float, handler, arg) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {when} < now={self.now}"
            )
        self.seq += 1
        heappush(self.heap, (when, self.seq, handler, arg))

    def run(self) -> list[float]:
        """Every rank's finish time; raises like ``run_timed`` would."""
        for rank in self.ranks:
            self.schedule(0.0, self.advance, rank)
        heap = self.heap
        while heap:
            when, _seq, handler, arg = heappop(heap)
            self.now = when
            handler(arg)
        blocked = [
            f"rank-{rank.index}" for rank in self.ranks
            if rank.finish is None and rank.error is None
        ]
        if blocked:
            raise DeadlockError(blocked)
        for rank in self.ranks:
            if rank.error is not None:
                raise rank.error
        return [rank.finish for rank in self.ranks]

    # -- ranks ----------------------------------------------------------------

    def advance(self, rank: _Rank, value=None) -> None:
        """Run ``rank`` from its last operation until it blocks or ends."""
        ops = rank.ops
        try:
            while True:
                op = ops.send(value)
                code = op[0]
                if code == IRECV:
                    value = _Recv(self, rank, op[1], op[2])
                    self.engines[rank.index].post(value, self.now)
                elif code == WAIT:
                    blocked = 0
                    for request in op[1]:
                        if not request.done and not request.waited:
                            request.waited = True
                            blocked += 1
                    if blocked:
                        rank.blocked = blocked
                        return
                    value = None
                elif code == ISEND:
                    rank.isend = op
                    self.schedule(
                        self.now + rank.send_overhead, self.start_send, rank
                    )
                    return
                else:  # COMPUTE
                    self.schedule(
                        self.now + op[1] * rank.compute_factor,
                        self.advance, rank,
                    )
                    return
        except StopIteration:
            rank.finish = self.now
        except Exception as exc:
            # A failing rank stops; the others run on, as processes do.
            rank.error = exc

    def complete(self, request) -> None:
        request.done = True
        if request.waited:
            rank = request.rank
            rank.blocked -= 1
            if not rank.blocked:
                self.advance(rank)

    # -- MpiWorld's point-to-point protocol -----------------------------------

    def start_send(self, rank: _Rank) -> None:
        _code, dest, nbytes, tag = rank.isend
        src = rank.index
        request = _Send(self, rank, dest, nbytes)
        fabric, node = self.fabric, self.node
        engine = self.engines[dest]
        if nbytes <= self.eager_limit:
            timing = fabric.transfer(
                node[src], node[dest], nbytes, self.now,
                self.port[src], self.port[dest],
            )
            self.schedule(timing.inject_end, self.complete, request)
            envelope = Envelope(0, src, tag, nbytes, timing.deliver)
            self.schedule(timing.deliver, self.arrive, (engine, envelope))
        else:
            notice = RtsNotice(0, src, tag, nbytes, request.grant)
            rts = fabric.control_transfer(node[src], node[dest], self.now)
            self.schedule(rts, self.arrive, (engine, notice))
        self.advance(rank, request)

    def arrive(self, arrival) -> None:
        engine, message = arrival
        engine.arrive(message, self.now)

    def payload(self, grant) -> None:
        """A rendezvous payload starts moving at its clear-to-send."""
        request, recv_done = grant
        src = request.rank.index
        dest = request.dest
        timing = self.fabric.transfer(
            self.node[src], self.node[dest], request.nbytes, self.now,
            self.port[src], self.port[dest],
        )
        self.schedule(timing.inject_end, self.complete, request)
        recv_done(timing.deliver)


def replay(spec: ClusterSpec, experiment, seed: int = 0) -> float:
    """Time a :class:`~repro.measure.Experiment` on ``spec`` with the
    replay executor; bit-identical to :func:`repro.measure.run_experiment`."""
    check_policy(experiment.policy)
    world = spec.make_world(
        experiment.procs, seed=seed, mapping=experiment.mapping
    )
    finish = _Replay(world, experiment.program).run()
    elapsed = elapsed_time(world, finish, experiment.root, experiment.policy)
    return elapsed * experiment.scale


# -- the batch front end ------------------------------------------------------


class BatchSimulator:
    """Runs a grid of :class:`~repro.exec.job.SimJob` cells in one pass.

    Bit-for-bit identical to per-cell :func:`~repro.exec.job.execute_job`
    on every input: every cell takes the replay executor, and the seed
    variants of a cell on a seed-free spec share a single simulation.
    """

    def __init__(self) -> None:
        self.stats = BatchStats()

    def run(self, jobs) -> list[float]:
        """Results of ``jobs``, in order — one grid, one pass."""
        jobs = list(jobs)
        stats = self.stats
        with obs.span("sim.batch", cells=len(jobs)) as span:
            groups: dict[str, list[int]] = {}
            for index, job in enumerate(jobs):
                groups.setdefault(dedupe_key(job), []).append(index)
            stats.cells += len(jobs)
            stats.unique_cells += len(groups)
            stats.deduped += len(jobs) - len(groups)
            results: list[float] = [0.0] * len(jobs)
            for indices in groups.values():
                job = jobs[indices[0]]
                stats.columnar += 1
                value = replay(job.spec, job_experiment(job), seed=job.seed)
                for index in indices:
                    results[index] = value
            span.set_attrs(
                unique_cells=stats.unique_cells, columnar=stats.columnar
            )
        return results
