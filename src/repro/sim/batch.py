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
  the rank can run.  :func:`_finish_times` handles those operations in
  exactly the order :class:`~repro.sim.engine.Simulator` would — by time,
  then by the order in which the event loop schedules its events — with
  :class:`~repro.mpi.MpiWorld`'s matching engines, eager/rendezvous
  protocol and per-rank CPU slowdown, on the fabric
  :meth:`ClusterSpec.make_world` builds.  Every NIC, port, degraded-node
  and shared-uplink reservation, and every noise, message-loss and
  link-window draw of a noisy or faulted fabric, is therefore made in the
  event loop's order, so results are bit-identical by construction, for
  every algorithm, fabric and fault plan.
  :func:`repro.exec.job.execute_job`, the generator event loop, stays the
  reference every parity test (``tests/test_sim_batch.py``,
  ``tests/test_replay_executor.py``) compares the executor against.

* **One dispatch loop.**  The executor schedules no callbacks: each event
  is a ``(time, seq, code, arg)`` tuple, and one loop pops it, acts on its
  code and resumes the rank it unblocks inline.  It allocates no futures,
  statuses, closures or envelopes — a send request travels as its own
  message — and a receive scans only its source's unexpected messages
  (:class:`~repro.mpi.matching.MatchingEngine`).  See
  ``docs/PERFORMANCE.md``, "Replay hot path", for what each event costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro import obs
from repro.clusters.spec import ClusterSpec, seed_free
from repro.errors import DeadlockError, SimulationError
from repro.measure import check_policy, elapsed_time, job_experiment
from repro.mpi.matching import PostedRecv
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

#: Event codes of the replay queue: resume a rank (its start, a compute's
#: end), start an isend once its CPU overhead is charged, complete a
#: request, deliver a message (eager payload or rendezvous notice) to its
#: destination's matching engine, and move a rendezvous payload at its
#: clear-to-send.
_RESUME, _START, _COMPLETE, _ARRIVE, _PAYLOAD = range(5)


def _past(when: float, now: float) -> SimulationError:
    """The error :class:`~repro.sim.engine.Simulator` raises for ``when``."""
    return SimulationError(f"cannot schedule into the past: {when} < now={now}")


class _Rank:
    """One rank's replay state: its operation stream, its CPU costs and
    what it waits on."""

    __slots__ = (
        "index", "ops", "engine", "send_overhead", "compute_factor",
        "blocked", "finish", "error",
    )

    def __init__(self, index: int, ops, engine, send_overhead: float,
                 compute_factor: float):
        self.index = index
        self.ops = ops
        #: The rank's matching engine, where its receives are posted.
        self.engine = engine
        #: Each isend's CPU cost and the factor on each compute, with the
        #: rank's CPU slowdown applied as :class:`~repro.mpi.Communicator`
        #: applies it (a factor of 1.0 leaves every cost exact).
        self.send_overhead = send_overhead
        self.compute_factor = compute_factor
        #: Requests of the pending wait still incomplete.
        self.blocked = 0
        self.finish: float | None = None
        self.error: Exception | None = None


# A request is ``done`` once complete and ``waited`` once its rank blocked
# on it (the rank then resumes when it completes).  Both kinds carry the
# ``cid``, ``src`` and ``tag`` a matching engine reads — every replayed
# program runs on the world communicator, context 0 — and a send queued as
# unexpected gets the engine's arrival number in ``order``.


class _Send:
    """An isend, which also travels as its own message."""

    __slots__ = (
        "rank", "done", "waited", "src", "tag", "dest", "nbytes", "order",
        "recv",
    )

    cid = 0

    def __init__(self, rank: _Rank, dest: int, nbytes: int, tag: int):
        self.rank = rank
        self.done = False
        self.waited = False
        self.src = rank.index
        self.tag = tag
        self.dest = dest
        self.nbytes = nbytes
        #: The receive a rendezvous payload is granted to.
        self.recv: _Recv | None = None


class _Recv:
    """An irecv, posted to the matching engine as itself."""

    __slots__ = ("rank", "done", "waited", "src", "tag")

    cid = 0
    matches = PostedRecv.matches

    def __init__(self, rank: _Rank, src: int, tag: int):
        self.rank = rank
        self.done = False
        self.waited = False
        self.src = src
        self.tag = tag


def _finish_times(world, program) -> list[float]:
    """Every rank's finish time of ``program`` on ``world``, replayed in
    the event loop's order; raises like ``run_experiment`` would.

    One dispatch loop over ``(time, seq, code, arg)`` events; ``seq``
    counts schedulings, so equal times fire in scheduling order, as in
    :class:`~repro.sim.engine.Simulator`.  Every event the event loop
    schedules for an :class:`~repro.mpi.MpiWorld` — a rank's start, an
    isend's CPU overhead, a compute timeout, a send or receive completion,
    an arrival, a clear-to-send — is pushed here at the same point, with
    the same past-time check, and every fabric call is made at the same
    point too.  A rank resumes inside the event that completes its last
    awaited request, as a process does inside the completing future's
    callback, and an isend starts inside its rank's error scope, as
    :class:`~repro.mpi.Communicator` starts it inside the process.
    """
    fabric = world.fabric
    transfer = fabric.transfer
    control_transfer = fabric.control_transfer
    node, port, engines = world.rank_to_node, world.rank_to_port, world.engines
    params = fabric.params
    eager_limit = params.eager_limit
    recv_overhead = params.recv_overhead
    group = tuple(range(world.size))
    factors = world.compute_factor or [1.0] * world.size
    ranks = [
        _Rank(
            rank, program(ScheduleRecorder(world, group, rank)),
            engines[rank], params.send_overhead * factors[rank],
            factors[rank],
        )
        for rank in group
    ]
    # Each push is written out with its past-time check: a helper call per
    # event would add about 3 % to a replay.
    push, pop = heappush, heappop
    heap = [(0.0, seq, _RESUME, rank) for seq, rank in enumerate(ranks, 1)]
    seq = len(heap)

    def matched(send: _Send, recv: _Recv, now: float) -> None:
        """An eager payload is here; a rendezvous one gets its
        clear-to-send."""
        nonlocal seq
        if send.nbytes <= eager_limit:
            when = now + recv_overhead
            if when < now:
                raise _past(when, now)
            seq += 1
            push(heap, (when, seq, _COMPLETE, recv))
        else:
            send.recv = recv
            when = control_transfer(node[send.dest], node[send.src], now)
            if when < now:
                raise _past(when, now)
            seq += 1
            push(heap, (when, seq, _PAYLOAD, send))

    while heap:
        now, _seq, code, arg = pop(heap)
        if code == _COMPLETE:
            arg.done = True
            if not arg.waited:
                continue
            rank = arg.rank
            rank.blocked -= 1
            if rank.blocked:
                continue
            value = None
        elif code == _ARRIVE:
            recv = engines[arg.dest].match_arrival(arg)
            if recv is not None:
                matched(arg, recv, now)
            continue
        elif code == _START:
            send = arg
            rank = send.rank
            src, dest, nbytes = send.src, send.dest, send.nbytes
            try:
                if nbytes <= eager_limit:
                    timing = transfer(
                        node[src], node[dest], nbytes, now,
                        port[src], port[dest],
                    )
                    when = timing.inject_end
                    if when < now:
                        raise _past(when, now)
                    seq += 1
                    push(heap, (when, seq, _COMPLETE, send))
                    when = timing.deliver
                    if when < now:
                        raise _past(when, now)
                    seq += 1
                    push(heap, (when, seq, _ARRIVE, send))
                else:
                    when = control_transfer(node[src], node[dest], now)
                    if when < now:
                        raise _past(when, now)
                    seq += 1
                    push(heap, (when, seq, _ARRIVE, send))
            except Exception as exc:
                rank.error = exc
                continue
            value = send
        elif code == _PAYLOAD:
            send = arg
            src, dest = send.src, send.dest
            timing = transfer(
                node[src], node[dest], send.nbytes, now, port[src], port[dest]
            )
            when = timing.inject_end
            if when < now:
                raise _past(when, now)
            seq += 1
            push(heap, (when, seq, _COMPLETE, send))
            when = timing.deliver + recv_overhead
            if when < now:
                raise _past(when, now)
            seq += 1
            push(heap, (when, seq, _COMPLETE, send.recv))
            continue
        else:  # _RESUME
            rank = arg
            value = None
        # Run the rank from its last operation until it blocks or ends.
        ops = rank.ops
        try:
            while True:
                op = ops.send(value)
                kind = op[0]
                if kind == WAIT:
                    blocked = 0
                    for request in op[1]:
                        if not request.done and not request.waited:
                            request.waited = True
                            blocked += 1
                    if blocked:
                        rank.blocked = blocked
                        break
                    value = None
                elif kind == IRECV:
                    value = recv = _Recv(rank, op[1], op[2])
                    send = rank.engine.match_post(recv)
                    if send is not None:
                        matched(send, recv, now)
                elif kind == ISEND:
                    when = now + rank.send_overhead
                    if when < now:
                        raise _past(when, now)
                    seq += 1
                    push(heap, (when, seq, _START,
                                _Send(rank, op[1], op[2], op[3])))
                    break
                else:  # COMPUTE
                    when = now + op[1] * rank.compute_factor
                    if when < now:
                        raise _past(when, now)
                    seq += 1
                    push(heap, (when, seq, _RESUME, rank))
                    break
        except StopIteration:
            rank.finish = now
        except Exception as exc:
            # A failing rank stops; the others run on, as processes do.
            rank.error = exc
    blocked = [
        f"rank-{rank.index}" for rank in ranks
        if rank.finish is None and rank.error is None
    ]
    if blocked:
        raise DeadlockError(blocked)
    for rank in ranks:
        if rank.error is not None:
            raise rank.error
    return [rank.finish for rank in ranks]


def replay(spec: ClusterSpec, experiment, seed: int = 0) -> float:
    """Time a :class:`~repro.measure.Experiment` on ``spec`` with the
    replay executor; bit-identical to :func:`repro.measure.run_experiment`."""
    check_policy(experiment.policy)
    world = spec.make_world(
        experiment.procs, seed=seed, mapping=experiment.mapping
    )
    finish = _finish_times(world, experiment.program)
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
