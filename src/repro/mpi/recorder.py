"""Schedule recording: a communicator that streams its rank's operations.

:class:`ScheduleRecorder` stands in for :class:`~repro.mpi.Communicator`
under the same rank programs — every collective of
:mod:`repro.collectives` runs on it unchanged — but simulates nothing.
Each point-to-point call yields one *operation* tuple to whoever iterates
the program, and the rank resumes with that consumer's answer:

================================  ==========================================
operation                         the consumer resumes the rank with
================================  ==========================================
``(ISEND, dest, nbytes, tag)``    a request handle, once the send started
``(IRECV, source, tag)``          a request handle, right away
``(WAIT, requests)``              nothing, once every request completed
``(COMPUTE, seconds)``            nothing, ``seconds`` later
================================  ==========================================

A rank's schedule thus streams out one operation at a time, whenever the
consumer lets the rank run; nothing is materialised.  The replay executor
of :mod:`repro.sim.batch` consumes recorders in the event loop's order; a
consumer that answers every operation at once reads a rank's whole
schedule without blocking on the others.

Arguments are checked by :class:`~repro.mpi.Communicator`'s own checks,
raising the same :class:`~repro.errors.MpiError` at the same point of the
program.  Costs are the consumer's: it charges each isend's CPU overhead
and any per-rank CPU slowdown.  Blocking calls return no
:class:`~repro.mpi.Status`: a program run on a recorder must not
branch on receive statuses (none in :mod:`repro.collectives` does).
Request handles belong to the consumer.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from repro.mpi.communicator import check_peer, check_send
from repro.mpi.matching import ANY_SOURCE, ANY_TAG

#: Operation codes, the first item of every yielded operation.
ISEND, IRECV, WAIT, COMPUTE = range(4)

#: What a recorder method is: a generator yielding operations.
OpGen = Generator[tuple, Any, Any]


class ScheduleRecorder:
    """A communicator handle bound to one rank that records, not runs.

    ``world`` supplies the placement that topology-aware algorithms read
    (``rank_to_node``, ``node_to_rack``); ``group`` lists the world ranks
    of the communicator, ``rank`` is the caller's index in it.
    """

    __slots__ = ("world", "group", "rank")

    def __init__(self, world, group: tuple[int, ...], rank: int):
        self.world = world
        self.group = group
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.group)

    # -- non-blocking point-to-point ---------------------------------------

    def isend(self, dest: int, nbytes: int, tag: int = 0) -> OpGen:
        """Start a non-blocking send; returns the consumer's request."""
        check_send(len(self.group), self.rank, dest, nbytes)
        request = yield (ISEND, dest, nbytes, tag)
        return request

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, nbytes: int | None = None
    ) -> OpGen:
        """Post a non-blocking receive; returns the consumer's request."""
        check_peer(len(self.group), source, wildcard_ok=True)
        request = yield (IRECV, source, tag)
        return request

    # -- completion ----------------------------------------------------------

    def wait(self, request) -> OpGen:
        """Block until ``request`` completes."""
        yield (WAIT, (request,))

    def waitall(self, requests: Sequence) -> OpGen:
        """Block until every request completes."""
        yield (WAIT, requests)

    # -- blocking convenience --------------------------------------------------
    #
    # These yield their operations themselves rather than through isend,
    # irecv and wait: a blocking call is a rank's most frequent operation,
    # and each nested generator adds a frame to every resumption.

    def send(self, dest: int, nbytes: int, tag: int = 0) -> OpGen:
        """Blocking send (``isend`` + ``wait``)."""
        check_send(len(self.group), self.rank, dest, nbytes)
        request = yield (ISEND, dest, nbytes, tag)
        yield (WAIT, (request,))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> OpGen:
        """Blocking receive (``irecv`` + ``wait``)."""
        check_peer(len(self.group), source, wildcard_ok=True)
        request = yield (IRECV, source, tag)
        yield (WAIT, (request,))

    def sendrecv(
        self,
        dest: int,
        nbytes: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> OpGen:
        """Simultaneous send and receive, in Communicator's call order."""
        check_peer(len(self.group), source, wildcard_ok=True)
        recv_request = yield (IRECV, source, recvtag)
        check_send(len(self.group), self.rank, dest, nbytes)
        send_request = yield (ISEND, dest, nbytes, sendtag)
        yield (WAIT, (send_request, recv_request))

    def compute(self, seconds: float) -> OpGen:
        """Occupy the rank for ``seconds`` of local computation."""
        if seconds > 0:
            yield (COMPUTE, seconds)
