"""A simulated MPI runtime.

This package provides just enough of MPI's point-to-point machinery to host
faithful re-implementations of Open MPI's collective algorithms:

* non-blocking ``isend``/``irecv`` with ``wait``/``waitall``/``waitany``;
* tag matching with MPI's non-overtaking guarantee, wildcard source/tag,
  and an unexpected-message queue;
* eager and rendezvous protocols selected by message size;
* communicators over arbitrary subsets of ranks;
* :class:`ScheduleRecorder`, a communicator stand-in that streams a rank
  program's operations to a consumer instead of simulating them (the replay
  executor of :mod:`repro.sim.batch` consumes it).

Simulated ranks are coroutines (see :mod:`repro.sim.engine`); every blocking
MPI call is a sub-generator that the rank's body delegates to with
``yield from``::

    def body(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024, tag=7)
        else:
            status = yield from comm.recv(0, tag=7)
"""

from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator, MpiWorld
from repro.mpi.recorder import ScheduleRecorder
from repro.mpi.requests import Request, Status
from repro.mpi.segmentation import SegmentPlan, plan_segments

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "MpiWorld",
    "Request",
    "ScheduleRecorder",
    "SegmentPlan",
    "Status",
    "plan_segments",
]
