"""Tests for the event tracer."""

import json

import pytest

from repro.sim.trace import NULL_TRACER, TraceEvent, Tracer


class TestTracer:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        tracer.record(2.0, "recv_complete", 1, 0, 7, 100)
        assert len(tracer) == 2
        assert [e.kind for e in tracer] == ["send_post", "recv_complete"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        assert len(tracer) == 0

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled

    def test_of_kind_filters(self):
        tracer = Tracer()
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        tracer.record(2.0, "send_post", 0, 2, 7, 100)
        tracer.record(3.0, "recv_complete", 1, 0, 7, 100)
        assert len(tracer.of_kind("send_post")) == 2
        assert len(tracer.of_kind("recv_post")) == 0

    def test_for_rank_filters(self):
        tracer = Tracer()
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        tracer.record(2.0, "send_post", 3, 1, 7, 100)
        assert [e.rank for e in tracer.for_rank(3)] == [3]

    def test_total_bytes_counts_only_send_posts(self):
        tracer = Tracer()
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        tracer.record(2.0, "recv_complete", 1, 0, 7, 100)
        tracer.record(3.0, "send_post", 1, 0, 7, 50)
        assert tracer.total_bytes_sent() == 150

    def test_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "send_post", 0, 1, 7, 100)
        tracer.clear()
        assert len(tracer) == 0

    def test_empty_tracer_is_truthy(self):
        """Guards against the ``tracer or default`` footgun."""
        assert bool(Tracer())
        assert bool(Tracer(enabled=False))

    def test_events_are_immutable_records(self):
        event = TraceEvent(1.0, "send_post", 0, 1, 2, 3)
        try:
            event.time = 5.0
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestChromeTraceExport:
    def make_tracer(self):
        tracer = Tracer()
        tracer.record(1e-6, "send_post", 0, 1, 7, 100)
        tracer.record(2e-6, "recv_post", 1, 0, 7, -1)
        tracer.record(4e-6, "send_complete", 0, 1, 7, 100)
        tracer.record(5e-6, "recv_complete", 1, 0, 7, 100)
        return tracer

    def durations(self, tracer):
        events = json.loads(tracer.to_chrome_json())["traceEvents"]
        return [e for e in events if e["ph"] == "X"]

    def test_post_complete_pairs_become_duration_events(self):
        spans = self.durations(self.make_tracer())
        assert len(spans) == 2
        send = next(e for e in spans if e["cat"] == "send")
        assert send["tid"] == 0
        assert send["ts"] == pytest.approx(1.0)  # microseconds
        assert send["dur"] == pytest.approx(3.0)
        recv = next(e for e in spans if e["cat"] == "recv")
        assert recv["tid"] == 1 and recv["dur"] == pytest.approx(3.0)

    def test_recv_size_taken_from_completion(self):
        recv = next(
            e for e in self.durations(self.make_tracer())
            if e["cat"] == "recv"
        )
        assert recv["args"]["nbytes"] == 100  # not the posted -1

    def test_thread_metadata_names_every_rank(self):
        events = json.loads(self.make_tracer().to_chrome_json())["traceEvents"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "rank 0", 1: "rank 1"}

    def test_unmatched_post_is_zero_duration(self):
        tracer = Tracer()
        tracer.record(3e-6, "send_post", 2, 5, 9, 64)
        [span] = self.durations(tracer)
        assert span["dur"] == 0.0 and span["tid"] == 2

    def test_unmatched_complete_is_instant_event(self):
        tracer = Tracer()
        tracer.record(3e-6, "recv_complete", 4, 0, 9, 64)
        events = json.loads(tracer.to_chrome_json())["traceEvents"]
        [instant] = [e for e in events if e["ph"] == "i"]
        assert instant["tid"] == 4

    def test_document_shape_and_save(self, tmp_path):
        tracer = self.make_tracer()
        document = json.loads(tracer.to_chrome_json())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        path = tmp_path / "trace.json"
        tracer.save_chrome_trace(path)
        assert json.loads(path.read_text()) == document

    def test_real_simulation_trace_is_consistent(self):
        """A real broadcast's trace exports with conserved byte counts."""
        from repro.clusters import MINICLUSTER
        from repro.measure import experiment, run_experiment
        from repro.units import KiB

        tracer = Tracer()
        run_experiment(
            MINICLUSTER,
            experiment(
                "bcast", 8, "binomial", nbytes=24 * KiB, segment_size=8 * KiB
            ),
            tracer=tracer,
        )
        spans = self.durations(tracer)
        assert all(e["dur"] >= 0 for e in spans)
        sends = [e for e in spans if e["cat"] == "send"]
        assert sum(e["args"]["nbytes"] for e in sends) == (
            tracer.total_bytes_sent()
        )
        # 7 receiving ranks, 3 segments each: every transfer has a bar.
        assert len(sends) == 7 * 3
