"""The unit of work of the execution subsystem: one deterministic simulation.

Every paper artefact decomposes into independent single-simulation calls
(:func:`repro.measure.run_timed` under one of the timed-experiment wrappers).
A :class:`SimJob` captures *everything* that determines such a call's result
— the platform (via :meth:`ClusterSpec.fingerprint`), the program kind and
its parameters, the seed, the timing policy and the rank mapping — so that

* a job can be shipped to a worker process and executed there
  (:func:`execute_job` is a module-level function, hence picklable), and
* a job can be *fingerprinted*: equal fingerprints guarantee bit-identical
  results, which is what makes the persistent result cache sound.

Job kinds map one-to-one onto the experiment programs of
:mod:`repro.measure` (:func:`repro.measure.job_experiment` is the one
job→program table):

========================  ==================================================
kind                      measurement
========================  ==================================================
``bcast``                 :func:`repro.measure.time_bcast`
``bcast_then_gather``     :func:`repro.measure.time_bcast_then_gather`
``bcast_barrier_reps``    :func:`repro.measure.time_repeated_bcast_with_barriers`
``barrier_reps``          :func:`repro.measure.time_repeated_barrier`
``gather``                :func:`repro.measure.time_gather`
``reduce``                :func:`repro.measure.time_reduce`
``reduce_then_scatter``   :func:`repro.measure.time_reduce_then_scatter`
``barrier``               :func:`repro.measure.time_barrier`
``scatter``               :func:`repro.measure.time_scatter`
``allreduce``             :func:`repro.measure.time_allreduce`
``allgather``             :func:`repro.measure.time_allgather`
``alltoall``              :func:`repro.measure.time_alltoall`
``p2p_roundtrip``         :func:`repro.measure.time_p2p_roundtrip`
========================  ==================================================
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
    """Run one job's simulation and return the measured time in seconds.

    Pure: the result depends only on the job's fields.  Runs in the calling
    process — the parallel runner ships jobs to workers that call this.
    """
    # Imported here, not at module top: worker processes only pay for the
    # measurement stack when they actually execute a job.
    from repro import measure

    return measure.run_experiment(
        job.spec, measure.job_experiment(job), seed=job.seed
    )


@dataclass(frozen=True)
class BatchJob:
    """A slab of independent :class:`SimJob` cells run as one engine pass.

    The parallel runner cuts a prefetched grid into slabs and ships each as
    one ``BatchJob`` — one IPC round trip and one shared-setup scope per
    slab instead of per cell.  A batch is *not* a new simulation semantics:
    :func:`execute_batch_job` returns exactly
    ``[execute_job(cell) for cell in cells]``, and per-cell results are
    cached under the individual cell fingerprints, never under the batch's.
    """

    cells: tuple[SimJob, ...]

    def fingerprint(self) -> str:
        """Content hash over the member cell fingerprints (order-sensitive)."""
        digest = hashlib.sha256()
        for cell in self.cells:
            digest.update(cell.fingerprint().encode("ascii"))
        return digest.hexdigest()

    def describe(self) -> str:
        """One-line human-readable summary (for logs and cache inspection)."""
        return f"batch[{len(self.cells)} cells]"


def execute_batch_job(batch: BatchJob) -> list[float]:
    """Run one slab through the batched engine; results in cell order.

    Module-level and picklable, like :func:`execute_job`, so pool workers
    can execute whole slabs.  Bit-for-bit identical to mapping
    :func:`execute_job` over the cells: the batched engine replays every
    cell in the event loop's order.
    """
    from repro.sim.batch import BatchSimulator

    return BatchSimulator().run(batch.cells)
