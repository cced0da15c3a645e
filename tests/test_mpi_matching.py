"""Tests for the tag-matching engine, and schedule-level tag discipline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters import MINICLUSTER, ClusterSpec
from repro.collectives.registry import algorithm_names, get_algorithm, operations
from repro.fabric.builders import leaf_spine
from repro.mpi import ScheduleRecorder
from repro.mpi.matching import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    MatchingEngine,
    PostedRecv,
    RtsNotice,
)
from repro.mpi.recorder import IRECV, ISEND


def make_recv(cid=0, src=ANY_SOURCE, tag=ANY_TAG, log=None):
    log = log if log is not None else []

    def complete(message, now):
        log.append((message, now))

    return PostedRecv(cid, src, tag, complete), log


def make_envelope(cid=0, src=0, tag=0, nbytes=10, arrival=1.0):
    return Envelope(cid, src, tag, nbytes, arrival)


class TestMatchRules:
    def test_exact_match(self):
        recv, _ = make_recv(cid=1, src=2, tag=3)
        assert recv.matches(1, 2, 3)

    def test_context_mismatch_never_matches(self):
        recv, _ = make_recv(cid=1, src=ANY_SOURCE, tag=ANY_TAG)
        assert not recv.matches(2, 0, 0)

    def test_wildcard_source(self):
        recv, _ = make_recv(src=ANY_SOURCE, tag=5)
        assert recv.matches(0, 7, 5)
        assert not recv.matches(0, 7, 6)

    def test_wildcard_tag(self):
        recv, _ = make_recv(src=3, tag=ANY_TAG)
        assert recv.matches(0, 3, 99)
        assert not recv.matches(0, 4, 99)


class TestEngineQueues:
    def test_arrival_matches_posted_recv(self):
        engine = MatchingEngine()
        recv, log = make_recv(src=1, tag=2)
        engine.post(recv, now=0.0)
        message = make_envelope(src=1, tag=2)
        engine.arrive(message, now=1.5)
        assert log == [(message, 1.5)]
        assert engine.idle()

    def test_unmatched_arrival_queues_as_unexpected(self):
        engine = MatchingEngine()
        engine.arrive(make_envelope(), now=1.0)
        assert not engine.idle()
        recv, log = make_recv()
        engine.post(recv, now=2.0)
        assert len(log) == 1
        assert engine.idle()

    def test_posted_recvs_matched_fifo(self):
        engine = MatchingEngine()
        first, first_log = make_recv(src=ANY_SOURCE, tag=ANY_TAG)
        second, second_log = make_recv(src=ANY_SOURCE, tag=ANY_TAG)
        engine.post(first, now=0.0)
        engine.post(second, now=0.0)
        engine.arrive(make_envelope(nbytes=1), now=1.0)
        assert len(first_log) == 1 and not second_log

    def test_unexpected_matched_in_arrival_order(self):
        """The non-overtaking rule at the queue level."""
        engine = MatchingEngine()
        early = make_envelope(nbytes=1, arrival=1.0)
        late = make_envelope(nbytes=2, arrival=2.0)
        engine.arrive(early, now=1.0)
        engine.arrive(late, now=2.0)
        recv, log = make_recv()
        engine.post(recv, now=3.0)
        assert log[0][0] is early

    def test_selective_recv_skips_non_matching_unexpected(self):
        engine = MatchingEngine()
        engine.arrive(make_envelope(tag=1, nbytes=111), now=1.0)
        engine.arrive(make_envelope(tag=2, nbytes=222), now=1.0)
        recv, log = make_recv(src=ANY_SOURCE, tag=2)
        engine.post(recv, now=2.0)
        assert log[0][0].nbytes == 222
        # The tag-1 message is still waiting.
        assert not engine.idle()

    def test_posted_recv_with_specific_source_not_stolen(self):
        engine = MatchingEngine()
        specific, specific_log = make_recv(src=5, tag=ANY_TAG)
        engine.post(specific, now=0.0)
        engine.arrive(make_envelope(src=4), now=1.0)
        assert not specific_log  # source 4 does not match recv for source 5
        assert engine.pending() == (1, 1)


# -- differential test against one arrival-ordered queue ---------------------


class ListScanEngine:
    """The reference: one posted list and one unexpected list, each
    scanned FIFO from the front."""

    def __init__(self):
        self.posted = []
        self.unexpected = []

    def arrive(self, message, now):
        for i, recv in enumerate(self.posted):
            if recv.matches(message.cid, message.src, message.tag):
                del self.posted[i]
                recv.complete(message, now)
                return
        self.unexpected.append(message)

    def post(self, recv, now):
        for i, message in enumerate(self.unexpected):
            if recv.matches(message.cid, message.src, message.tag):
                del self.unexpected[i]
                recv.complete(message, now)
                return
        self.posted.append(recv)

    def idle(self):
        return not self.posted and not self.unexpected


CIDS = st.integers(0, 1)
SOURCES = st.integers(0, 3)
TAGS = st.integers(0, 2)

#: One step: post a receive (wildcards included) or deliver an eager
#: envelope or a rendezvous notice.
STEPS = st.one_of(
    st.tuples(
        st.just("post"),
        CIDS,
        st.one_of(st.just(ANY_SOURCE), SOURCES),
        st.one_of(st.just(ANY_TAG), TAGS),
    ),
    st.tuples(st.sampled_from(("eager", "rendezvous")), CIDS, SOURCES, TAGS),
)


def _grant(match_time, recv_done):
    # The test's receives log their match; none grants a notice.
    raise AssertionError("the engine must not grant")


class TestPerSourceQueues:
    """:class:`MatchingEngine`'s per-source queues against one
    arrival-ordered list.  No collective posts ``ANY_SOURCE``, so the
    replay parity suites never match across sources; this test does."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(STEPS, max_size=60))
    def test_matches_like_one_arrival_ordered_queue(self, steps):
        engines = (MatchingEngine(), ListScanEngine())
        logs = ([], [])
        for index, (what, cid, src, tag) in enumerate(steps):
            for engine, log in zip(engines, logs):
                # Step ``index`` names the receive or message it creates.
                if what == "post":
                    def complete(message, now, log=log, index=index):
                        log.append((index, message.nbytes))

                    engine.post(PostedRecv(cid, src, tag, complete), index)
                elif what == "eager":
                    engine.arrive(Envelope(cid, src, tag, index, index), index)
                else:
                    engine.arrive(RtsNotice(cid, src, tag, index, _grant), index)
            new, reference = engines
            assert logs[0] == logs[1]
            assert new.idle() == reference.idle()
            assert new.pending() == (
                len(reference.posted), len(reference.unexpected)
            )


# -- schedule-level tag discipline -------------------------------------------


def _placements(size):
    """Worlds of ``size`` ranks: one rank per node, and two ranks per node
    with four nodes per rack (so hierarchical trees get real rack groups)."""
    network = MINICLUSTER.network
    one_per_node = ClusterSpec("tags-1ppn", size, 1, network)
    two_per_node = ClusterSpec("tags-2ppn", (size + 1) // 2, 2, network)
    two_per_node = two_per_node.with_fabric(
        leaf_spine(two_per_node, nodes_per_rack=4, oversubscription=2.0)
    )
    return (one_per_node.make_world(size), two_per_node.make_world(size))


def record_schedules(program, world):
    """Every rank's ``(sends, recvs)`` of ``(peer, tag)`` pairs for one
    collective call, read by answering each operation at once."""
    group = tuple(range(world.size))
    schedules = []
    for rank in group:
        sends, recvs = [], []
        ops = program(ScheduleRecorder(world, group, rank))
        for op in ops:
            if op[0] == ISEND:
                sends.append((op[1], op[3]))
            elif op[0] == IRECV:
                recvs.append((op[1], op[2]))
        schedules.append((sends, recvs))
    return schedules


def whole_suite_schedules(size, nbytes=4096, segment_size=1024):
    """(label, per-rank schedules) for every algorithm of all eight
    collectives, on both placements."""
    calls = {
        "bcast": lambda a: lambda c: a(c, 0, nbytes, segment_size),
        "reduce": lambda a: lambda c: a(c, 0, nbytes, segment_size),
        "gather": lambda a: lambda c: a(c, 0, nbytes),
        "scatter": lambda a: lambda c: a(c, 0, nbytes),
        "barrier": lambda a: a,
        "allreduce": lambda a: lambda c: a(c, nbytes),
        "allgather": lambda a: lambda c: a(c, nbytes),
        "alltoall": lambda a: lambda c: a(c, nbytes),
    }
    assert sorted(calls) == sorted(operations())
    for placement, world in zip(("1ppn", "2ppn-racks"), _placements(size)):
        for operation, call in calls.items():
            for name in algorithm_names(operation):
                program = call(get_algorithm(operation, name))
                yield (
                    f"{operation}.{name}@{placement}",
                    record_schedules(program, world),
                )


class TestScheduleTagDiscipline:
    """No (peer, tag) collision inside any collective's schedule.

    Two same-tag sends to one destination (or two same-tag receives from
    one source) posted by the same rank rely on FIFO non-overtaking to
    stay ordered — a latent matching hazard that composite algorithms
    (ring allreduce's two phases, Bruck vs pairwise alltoall rounds) hit
    once their round counts outgrow a fixed tag offset.  P = 129 and 256
    exceed every fixed offset in the tag layout (the +100/+200/+300
    allgather round bases and the ring's former +200 phase gap), so an
    aliasing regression fails here before it can corrupt a simulation.
    Every algorithm of the eight collectives runs on two placements: one
    rank per node, and two ranks per node in racks of four nodes, where
    the hierarchical algorithms build real rack-leader trees.
    """

    @pytest.mark.parametrize("size", (2, 3, 4, 5, 7, 8, 16, 129, 256))
    def test_no_peer_tag_collision_within_any_rank(self, size):
        for label, schedules in whole_suite_schedules(size):
            for rank, (sends, recvs) in enumerate(schedules):
                for direction, ops in (("send", sends), ("recv", recvs)):
                    seen = set()
                    for peer, tag in ops:
                        assert (peer, tag) not in seen, (
                            f"{label}: rank {rank} {direction}s "
                            f"(peer={peer}, tag={tag}) twice at P={size}"
                        )
                        seen.add((peer, tag))

    @pytest.mark.parametrize("size", (2, 3, 5, 8, 129))
    def test_every_send_has_exactly_one_matching_recv(self, size):
        for label, schedules in whole_suite_schedules(size):
            sends = sorted(
                (rank, dest, tag)
                for rank, (rank_sends, _) in enumerate(schedules)
                for dest, tag in rank_sends
            )
            recvs = sorted(
                (source, rank, tag)
                for rank, (_, rank_recvs) in enumerate(schedules)
                for source, tag in rank_recvs
            )
            assert sends == recvs, f"{label}: unmatched traffic at P={size}"
