"""The unit of work of the execution subsystem: one deterministic simulation.

Every paper artefact decomposes into independent timed experiments, each
one simulation of one rank program.  A :class:`SimJob` names such an
experiment and captures *everything* that determines its result — the
platform (via :meth:`ClusterSpec.fingerprint`), the program kind and its
parameters, the seed, the timing policy and the rank mapping — so that

* a job can be shipped to a worker process and executed there (jobs
  are frozen dataclasses, hence picklable), and
* a job can be *fingerprinted*: equal fingerprints guarantee bit-identical
  results, which is what makes the persistent result cache sound.

Job kinds map one-to-one onto the rank programs of :mod:`repro.measure`
(:func:`repro.measure.job_experiment` is the one job→program table).
Kinds marked *root* are timed on the root's clock whatever ``policy``
asks; the others follow ``policy`` (``"global"``, the default: until the
last rank finishes).  ``mapping`` reaches ``bcast``,
``bcast_barrier_reps`` and ``p2p_roundtrip``; the other kinds run
block-mapped.

========================  ======  ===========================================
kind                      timed   measurement
========================  ======  ===========================================
``bcast``                 policy  one broadcast of ``nbytes`` (Table 3,
                                  Fig. 5)
``bcast_then_gather``     root    the paper's α/β experiment (§4.2, Eq. 7):
                                  the broadcast under test, then a linear
                                  gather of ``gather_bytes`` per rank onto
                                  the root, so it starts and finishes there
``bcast_barrier_reps``    root    the γ experiment kernel (§4.1),
                                  ``T1(P, N)``: ``calls`` broadcasts, each
                                  followed by a barrier, from the first call
                                  to the completion of the last barrier
``barrier_reps``          root    ``calls`` back-to-back barriers; the
                                  barrier share compensated out of the γ
                                  experiment
``gather``                policy  one gather of ``nbytes`` per rank; it ends
                                  on the root, so ``policy="root"`` times it
``reduce``                policy  one reduction; it ends on the root, so
                                  ``policy="root"`` times it
``reduce_then_scatter``   root    the reduce α/β experiment, dual of
                                  ``bcast_then_gather``: the reduce under
                                  test, then a linear scatter of
                                  ``gather_bytes`` per rank, which adds the
                                  same ``(P-1, (P-1)·m_g)`` row the gather
                                  does
``barrier``               policy  one barrier
``scatter``               policy  one scatter of ``nbytes`` per rank; it
                                  ends on the leaves, so time it globally
``allreduce``             policy  one allreduce of an ``nbytes`` full vector
``allgather``             policy  one allgather of ``nbytes`` per rank
``alltoall``              policy  one alltoall of ``nbytes`` per pair
``p2p_roundtrip``         root    half a ping-pong round trip between
                                  ``ranks`` (Hockney's method, §2.2), the
                                  point-to-point experiment the paper argues
                                  is insufficient for collectives; map it
                                  ``spread`` so the measured link is a
                                  network link on multi-slot clusters
========================  ======  ===========================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.clusters.spec import ClusterSpec
from repro.errors import SimulationError

#: Job kinds understood by :func:`execute_job`.
JOB_KINDS = (
    "bcast",
    "bcast_then_gather",
    "bcast_barrier_reps",
    "barrier_reps",
    "gather",
    "reduce",
    "reduce_then_scatter",
    "barrier",
    "scatter",
    "allreduce",
    "allgather",
    "alltoall",
    "p2p_roundtrip",
)


@dataclass(frozen=True)
class SimJob:
    """One deterministic simulation, fully described.

    Fields that a given kind does not use keep their defaults and still
    participate in the fingerprint — a constant contribution, so equal jobs
    always fingerprint equal.
    """

    spec: ClusterSpec
    kind: str
    procs: int
    algorithm: str = ""
    nbytes: int = 0
    segment_size: int = 0
    #: Per-rank payload of the trailing collective: the gather of
    #: ``bcast_then_gather`` / ``gather``, the scatter of
    #: ``reduce_then_scatter``.
    gather_bytes: int = 0
    #: Repetition count inside the simulated program (``*_reps`` kinds).
    calls: int = 0
    root: int = 0
    seed: int = 0
    policy: str = "global"
    mapping: str = "block"
    #: Endpoint ranks of a ``p2p_roundtrip``.
    ranks: tuple[int, int] = (0, 1)
    _fingerprint: list = field(
        default_factory=list, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise SimulationError(
                f"unknown job kind {self.kind!r}; known: {', '.join(JOB_KINDS)}"
            )

    def fingerprint(self) -> str:
        """Content hash identifying this job's result (memoised).

        Includes the full platform fingerprint, so any change to the
        cluster's fidelity knobs yields a different key.
        """
        if self._fingerprint:
            return self._fingerprint[0]
        payload = {
            "spec": self.spec.fingerprint(),
            "kind": self.kind,
            "procs": self.procs,
            "algorithm": self.algorithm,
            "nbytes": self.nbytes,
            "segment_size": self.segment_size,
            "gather_bytes": self.gather_bytes,
            "calls": self.calls,
            "root": self.root,
            "seed": self.seed,
            "policy": self.policy,
            "mapping": self.mapping,
            "ranks": list(self.ranks),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self._fingerprint.append(digest)
        return digest

    def describe(self) -> str:
        """One-line human-readable summary (for logs and cache inspection)."""
        return (
            f"{self.kind}[{self.algorithm or '-'}] P={self.procs} "
            f"m={self.nbytes} seg={self.segment_size} seed={self.seed}"
        )


def execute_job(job: SimJob) -> float:
    """Run one job's simulation on the generator event loop and return the
    measured time in seconds.

    Pure: the result depends only on the job's fields.  This is the
    reference implementation: the parallel runner executes jobs through
    the replay executor of :mod:`repro.sim.batch`, and the parity tests
    compare it against this function.
    """
    # Imported here, not at module top: a process only pays for the
    # measurement stack when it actually executes a job.
    from repro import measure

    return measure.run_experiment(
        job.spec, measure.job_experiment(job), seed=job.seed
    )
