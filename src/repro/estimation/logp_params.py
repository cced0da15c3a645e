"""Measurement of LogP/LogGP/PLogP parameters (related work, §2.2).

Implements the classical point-to-point measurement procedures the paper's
survey cites — all of them built purely on ping-pong-style experiments,
which is exactly the limitation (no collective context) the paper's own
method removes:

* Culler et al.'s LogP method: the gap ``g`` from the saturation rate of a
  long back-to-back send burst; ``o_s``/``o_r`` from the cost of an
  isolated send/receive; ``L`` from the round trip minus the overheads.
* Kielmann et al.'s PLogP method: the same quantities as functions of the
  message size, measured per size.
"""

from __future__ import annotations

from typing import Sequence

from repro.clusters.spec import ClusterSpec
from repro.errors import EstimationError
from repro.exec.job import SimJob, execute_job
from repro.measure import Experiment, run_experiment
from repro.models.logp import LogGPParams, LogPParams, PLogPParams
from repro.units import KiB

#: Messages in the saturation burst used to estimate the gap.
DEFAULT_BURST = 64


def _saturation_gap(spec: ClusterSpec, nbytes: int, burst: int, seed: int) -> float:
    """Per-message interval of a long non-blocking send burst (Culler's g).

    The sender issues ``burst`` isends back to back and waits for local
    completion; the receiver pre-posts everything.  The slope of time over
    messages is the gap at this size.
    """

    def program(comm):
        if comm.rank == 0:
            requests = []
            for index in range(burst):
                request = yield from comm.isend(1, nbytes, tag=9_000 + index)
                requests.append(request)
            yield from comm.waitall(requests)
        else:
            requests = []
            for index in range(burst):
                request = yield from comm.irecv(0, tag=9_000 + index)
                requests.append(request)
            yield from comm.waitall(requests)

    total = run_experiment(
        spec, Experiment(program, 2, policy="root", mapping="spread"), seed=seed
    )
    return total / burst


def _send_overhead(spec: ClusterSpec, nbytes: int, seed: int) -> float:
    """CPU time an isolated isend charges the caller (Culler's o_s)."""

    def program(comm):
        if comm.rank == 0:
            request = yield from comm.isend(1, nbytes, tag=9_500)
            posted_at = comm.sim.now
            yield from comm.wait(request)
            return posted_at
        yield from comm.recv(0, tag=9_500)
        return None

    world = spec.make_world(2, seed=seed, mapping="spread")
    processes = world.run(lambda comm: program(comm))
    return processes[0].value


def measure_logp(
    spec: ClusterSpec,
    *,
    nbytes: int = 1,
    burst: int = DEFAULT_BURST,
    seed: int = 0,
) -> LogPParams:
    """Culler et al.'s LogP measurement at one (small) message size."""
    if burst < 2:
        raise EstimationError("saturation burst needs at least two messages")
    gap = _saturation_gap(spec, nbytes, burst, seed)
    send_overhead = _send_overhead(spec, nbytes, seed + 1)
    # Receive overhead is not separately observable from outside the
    # receiver; the classical method assumes symmetry.
    recv_overhead = send_overhead
    round_trip_half = execute_job(SimJob(
        spec, "p2p_roundtrip", 2, nbytes=nbytes, seed=seed + 2,
        mapping="spread",
    ))
    latency = max(round_trip_half - send_overhead - recv_overhead, 0.0)
    return LogPParams(
        latency=latency,
        send_overhead=send_overhead,
        recv_overhead=recv_overhead,
        gap=gap,
    )


def measure_loggp(
    spec: ClusterSpec,
    *,
    small: int = 1,
    large: int = 64 * KiB,
    burst: int = DEFAULT_BURST,
    seed: int = 0,
) -> LogGPParams:
    """LogGP: LogP plus the per-byte gap from two saturation sizes."""
    if large <= small:
        raise EstimationError("need large > small to estimate G")
    base = measure_logp(spec, nbytes=small, burst=burst, seed=seed)
    gap_large = _saturation_gap(spec, large, burst, seed + 3)
    gap_per_byte = max((gap_large - base.gap) / (large - small), 0.0)
    return LogGPParams(
        latency=base.latency,
        send_overhead=base.send_overhead,
        recv_overhead=base.recv_overhead,
        gap=base.gap,
        gap_per_byte=gap_per_byte,
    )


def measure_plogp(
    spec: ClusterSpec,
    *,
    sizes: Sequence[int] = (1, 1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB),
    burst: int = DEFAULT_BURST,
    seed: int = 0,
) -> PLogPParams:
    """Kielmann et al.'s PLogP: per-size tables with interpolation."""
    if len(sizes) < 2:
        raise EstimationError("PLogP needs at least two sizes")
    sizes = sorted(set(int(s) for s in sizes))
    gap_table = {
        m: _saturation_gap(spec, m, burst, seed + 11 * i)
        for i, m in enumerate(sizes)
    }
    overhead_table = {
        m: _send_overhead(spec, m, seed + 13 * i) for i, m in enumerate(sizes)
    }
    tiny = sizes[0]
    latency = max(
        execute_job(SimJob(
            spec, "p2p_roundtrip", 2, nbytes=tiny, seed=seed + 5,
            mapping="spread",
        ))
        - 2 * overhead_table[tiny],
        0.0,
    )

    def interpolate(table: dict[int, float]):
        points = sorted(table.items())

        def lookup(nbytes: int) -> float:
            if nbytes <= points[0][0]:
                return points[0][1]
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                if nbytes <= x1:
                    weight = (nbytes - x0) / (x1 - x0)
                    return y0 + weight * (y1 - y0)
            # Extrapolate from the last interval's slope.
            (x0, y0), (x1, y1) = points[-2], points[-1]
            slope = (y1 - y0) / (x1 - x0)
            return y1 + slope * (nbytes - x1)

        return lookup

    gap_fn = interpolate(gap_table)
    overhead_fn = interpolate(overhead_table)
    return PLogPParams(
        latency=latency, os_fn=overhead_fn, or_fn=overhead_fn, g_fn=gap_fn
    )
