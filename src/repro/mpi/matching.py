"""Tag matching: posted-receive and unexpected-message queues.

Implements MPI's matching semantics for the simulated runtime:

* a receive matches a message when communicator context, source and tag all
  match (``ANY_SOURCE``/``ANY_TAG`` wildcards supported);
* the **non-overtaking rule**: messages from the same source on the same
  communicator and tag are matched in the order they were sent.  The fabric
  delivers messages from one source in injection order, and every queue here
  is scanned FIFO, which together preserve the rule.

Unexpected messages queue per source, so a receive naming its source scans
only that source's messages; arrival numbers let an ``ANY_SOURCE`` receive
take the earliest-arrived message it accepts across sources.  Every receive
thus matches the message one arrival-ordered queue would give it.

Two kinds of arrival are handled: eager payloads (data already at the host)
and rendezvous ready-to-send notices (payload transfer starts only after the
match, via a clear-to-send callback).  The engine reads a message's
``cid``, ``src`` and ``tag`` (and numbers a queued one in its ``order``
slot), and a receive's ``cid``, ``src``, ``tag`` and
:meth:`PostedRecv.matches`; a consumer that drives matching itself
(:meth:`MatchingEngine.match_post`, :meth:`MatchingEngine.match_arrival`)
may pass its own message and receive objects.
"""

from __future__ import annotations

from typing import Callable

ANY_SOURCE = -1
ANY_TAG = -1


class Envelope:
    """An arrived eager message (payload already delivered)."""

    __slots__ = ("cid", "src", "tag", "nbytes", "arrival", "order")

    def __init__(self, cid: int, src: int, tag: int, nbytes: int, arrival: float):
        self.cid = cid
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.arrival = arrival


class RtsNotice:
    """An arrived rendezvous ready-to-send notice.

    ``grant`` is invoked exactly once, at match time, as
    ``grant(match_time, recv_done)``; it triggers the clear-to-send and the
    payload transfer, then calls ``recv_done(deliver_time)`` so the receive
    side can schedule its completion.
    """

    __slots__ = ("cid", "src", "tag", "nbytes", "grant", "order")

    def __init__(
        self,
        cid: int,
        src: int,
        tag: int,
        nbytes: int,
        grant: Callable[[float, Callable[[float], None]], None],
    ):
        self.cid = cid
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.grant = grant


class PostedRecv:
    """A posted receive waiting for a matching arrival.

    ``complete`` is invoked exactly once with the matched arrival (an
    :class:`Envelope` or :class:`RtsNotice`) and the match timestamp.
    """

    __slots__ = ("cid", "src", "tag", "complete")

    def __init__(
        self,
        cid: int,
        src: int,
        tag: int,
        complete: Callable[[Envelope | RtsNotice, float], None],
    ):
        self.cid = cid
        self.src = src
        self.tag = tag
        self.complete = complete

    def matches(self, cid: int, src: int, tag: int) -> bool:
        return (
            self.cid == cid
            and (self.src == ANY_SOURCE or self.src == src)
            and (self.tag == ANY_TAG or self.tag == tag)
        )


class MatchingEngine:
    """Per-rank matching state: one FIFO list of posted receives, and one
    FIFO list of unexpected messages per source rank, each message
    numbered in arrival order when it queues."""

    __slots__ = ("posted", "_unexpected", "_arrivals")

    def __init__(self) -> None:
        self.posted: list[PostedRecv] = []
        #: Source rank -> its unexpected messages, in arrival order.
        self._unexpected: dict[int, list] = {}
        #: The arrival number of the next message to queue.
        self._arrivals = 0

    # -- matching -----------------------------------------------------------

    def match_arrival(self, message):
        """The earliest posted receive ``message`` matches, dequeued; if
        none matches, ``message`` queues as unexpected and ``None`` is
        returned."""
        cid, src, tag = message.cid, message.src, message.tag
        posted = self.posted
        for i, recv in enumerate(posted):
            if recv.matches(cid, src, tag):
                del posted[i]
                return recv
        message.order = self._arrivals
        self._arrivals += 1
        queue = self._unexpected.get(src)
        if queue is None:
            self._unexpected[src] = [message]
        else:
            queue.append(message)
        return None

    def match_post(self, recv):
        """The earliest-arrived unexpected message ``recv`` matches,
        dequeued; if none matches, ``recv`` queues as posted and ``None``
        is returned."""
        cid, src, tag = recv.cid, recv.src, recv.tag
        unexpected = self._unexpected
        if src == ANY_SOURCE:
            queues = unexpected.values()
        else:
            queues = (unexpected[src],) if src in unexpected else ()
        # Each queue's first match; the earliest-arrived of them wins.
        first = first_queue = first_index = None
        for queue in queues:
            for i, message in enumerate(queue):
                if message.cid == cid and (tag == ANY_TAG or message.tag == tag):
                    if first is None or message.order < first.order:
                        first, first_queue, first_index = message, queue, i
                    break
        if first is None:
            self.posted.append(recv)
            return None
        del first_queue[first_index]
        return first

    # -- arrivals and receives, with completion callbacks --------------------

    def arrive(self, message: Envelope | RtsNotice, now: float) -> None:
        """Handle an arriving message: match a posted recv or queue it."""
        recv = self.match_arrival(message)
        if recv is not None:
            recv.complete(message, now)

    def post(self, recv: PostedRecv, now: float) -> None:
        """Post a receive: match an unexpected arrival or queue it."""
        message = self.match_post(recv)
        if message is not None:
            recv.complete(message, now)

    # -- diagnostics -------------------------------------------------------

    def pending(self) -> tuple[int, int]:
        """``(posted receives, unexpected messages)`` still unmatched."""
        return len(self.posted), sum(map(len, self._unexpected.values()))

    def idle(self) -> bool:
        """True when no receives or messages are outstanding."""
        return not self.posted and not any(self._unexpected.values())
