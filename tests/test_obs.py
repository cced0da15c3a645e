"""Tests for the observability layer (``repro.obs``).

Covers the span core (nesting, identity, thread-awareness, disabled-path
no-ops), the exporters (JSONL round trip, Chrome trace validity, tree
reconstruction), and the end-to-end wiring:
a traced calibration / artifact build emits the phase tree the CI smoke
job asserts on, and the exec runner annotates cache behaviour.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.clusters import MINICLUSTER
from repro.exec.runner import ParallelRunner
from repro.obs.spans import NULL_SPAN, SpanRecorder
from repro.service.artifact import build_artifact
from repro.units import KiB


@pytest.fixture()
def recorder():
    """A fresh, enabled, private recorder (the global one stays off)."""
    return SpanRecorder(enabled=True)


@pytest.fixture()
def global_tracing():
    """Enable the process-wide recorder for one test, guaranteed reset."""
    recorder = obs.enable()
    recorder.clear()
    yield recorder
    obs.disable()
    recorder.clear()


class TestSpanCore:
    def test_span_records_duration_and_attrs(self, recorder):
        with recorder.span("work", kind="test") as span:
            span.set_attr("extra", 7)
        [finished] = recorder.finished()
        assert finished.name == "work"
        assert finished.attributes == {"kind": "test", "extra": 7}
        assert finished.end is not None and finished.duration >= 0.0

    def test_nesting_links_parent_and_trace(self, recorder):
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        inner_span, outer_span = recorder.finished()
        assert inner_span.name == "inner"
        assert inner_span.parent_id == outer_span.span_id

    def test_sibling_spans_share_trace_not_parent(self, recorder):
        with recorder.span("root") as root:
            with recorder.span("a"):
                pass
            with recorder.span("b") as b:
                assert b.parent_id == root.span_id
        names = [s.name for s in recorder.finished()]
        assert names == ["a", "b", "root"]

    def test_distinct_roots_get_distinct_traces(self, recorder):
        with recorder.span("first") as a:
            pass
        with recorder.span("second") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_disabled_recorder_returns_null_span(self):
        recorder = SpanRecorder(enabled=False)
        span = recorder.span("anything")
        assert span is NULL_SPAN
        with span as s:
            s.set_attr("ignored", 1)  # must not raise
        assert recorder.finished() == []

    def test_forced_span_is_real_but_not_retained(self):
        recorder = SpanRecorder(enabled=False)
        with recorder.span("http.request", force=True) as span:
            pass
        assert span is not NULL_SPAN
        assert span.trace_id and span.duration >= 0.0
        assert recorder.finished() == []

    def test_error_annotated(self, recorder):
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("no")
        [span] = recorder.finished()
        assert span.attributes["error"] == "ValueError"

    def test_threads_do_not_share_the_span_stack(self, recorder):
        seen = {}

        def worker():
            with recorder.span("thread-side") as span:
                seen["parent"] = span.parent_id
                seen["thread_id"] = span.thread_id

        with recorder.span("main-side"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker's span started in a copied context snapshot; it must
        # carry its own thread id either way.
        assert seen["thread_id"] != threading.get_ident()

    def test_ids_embed_pid_and_are_unique(self, recorder):
        with recorder.span("a") as a:
            pass
        with recorder.span("b") as b:
            pass
        import os

        assert a.span_id.startswith(f"{os.getpid():x}-")
        assert a.span_id != b.span_id
        assert len({a.trace_id, b.trace_id}) == 2

    def test_finish_hooks_run_even_when_disabled(self):
        recorder = SpanRecorder(enabled=False)
        calls = []
        recorder.add_finish_hook(lambda span: calls.append(span.name))
        with recorder.span("forced", force=True):
            pass
        assert calls == ["forced"]

    def test_broken_hook_does_not_break_work(self, recorder):
        def bad_hook(span):
            raise RuntimeError("hook bug")

        recorder.add_finish_hook(bad_hook)
        with recorder.span("survives"):
            pass
        assert [s.name for s in recorder.finished()] == ["survives"]


class TestExporters:
    def _sample(self, recorder):
        with recorder.span("parent", phase="build"):
            with recorder.span("child"):
                pass
        return recorder.finished()

    def test_jsonl_round_trip(self, recorder, tmp_path):
        spans = self._sample(recorder)
        path = obs.save_jsonl(spans, tmp_path / "spans.jsonl")
        records = obs.load_jsonl(path)
        assert [r["name"] for r in records] == ["child", "parent"]
        assert records[1]["attributes"] == {"phase": "build"}

    def test_build_tree(self, recorder):
        spans = self._sample(recorder)
        roots = obs.build_tree([s.to_dict() for s in spans])
        assert len(roots) == 1
        assert roots[0]["name"] == "parent"
        assert [c["name"] for c in roots[0]["children"]] == ["child"]

    def test_build_tree_promotes_orphans(self):
        records = [
            {"name": "lost", "span_id": "x-1", "parent_id": "x-999"},
            {"name": "root", "span_id": "x-2", "parent_id": None},
        ]
        roots = obs.build_tree(records)
        assert {r["name"] for r in roots} == {"lost", "root"}

    def test_chrome_trace_is_valid_and_loadable(self, recorder, tmp_path):
        spans = self._sample(recorder)
        path = obs.save_chrome_trace(spans, tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        complete = [e for e in events if e.get("ph") == "X"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert len(complete) == 2 and meta
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        # Round trip through the chrome loader preserves the tree.
        records = obs.load_chrome_trace(path)
        roots = obs.build_tree(records)
        assert roots[0]["name"] == "parent"

    def test_save_dispatches_on_suffix(self, recorder, tmp_path):
        self._sample(recorder)
        jsonl = obs.save(recorder, tmp_path / "out.jsonl")
        chrome = obs.save(recorder, tmp_path / "out.json")
        assert len(obs.load_jsonl(jsonl)) == 2
        assert "traceEvents" in json.loads(chrome.read_text())


class TestWiring:
    def test_runner_annotates_cache_behaviour(self, global_tracing):
        from repro.exec.job import SimJob

        runner = ParallelRunner(jobs=1)
        job = SimJob(
            spec=MINICLUSTER, kind="bcast", procs=4, nbytes=8 * KiB,
            segment_size=8 * KiB, algorithm="binomial",
        )
        runner.run([job])
        runner.run([job])  # single-job memo hit: fast path, no span
        runner.run([job, job])  # multi-job batch: span with hit counts
        spans = global_tracing.finished()
        runs = [s for s in spans if s.name == "exec.run"]
        assert len(runs) == 2
        assert runs[0].attributes["executed"] == 1
        assert runs[1].attributes["memo_hits"] == 2
        assert runner.stats.memo_hits == 3
        job_spans = [s for s in spans if s.name == "exec.job"]
        # Only executed jobs get per-job spans; hits are counted on the
        # exec.run span instead (a span per dict lookup costs more than
        # the lookup).
        assert {s.attributes["source"] for s in job_spans} == {"sim"}
        assert len(job_spans) == 1
        runner.close()

    def test_traced_build_covers_all_phases(self, global_tracing, mini_platform):
        artifact = build_artifact(
            MINICLUSTER,
            proc_points=(2, 4, 8),
            size_points=(8 * KiB, 64 * KiB),
            platforms={"bcast": mini_platform},
        )
        assert artifact.operations == ["bcast"]
        names = {s.name for s in global_tracing.finished()}
        assert {"artifact.build", "artifact.calibrate", "artifact.tables",
                "artifact.codegen", "artifact.package"} <= names
        # The phases nest under the build root.
        roots = obs.build_tree([s.to_dict() for s in global_tracing.finished()])
        build_roots = [r for r in roots if r["name"] == "artifact.build"]
        assert len(build_roots) == 1
        child_names = {c["name"] for c in build_roots[0]["children"]}
        assert {"artifact.calibrate", "artifact.tables",
                "artifact.codegen", "artifact.package"} <= child_names

    def test_traced_calibration_phases(self, global_tracing):
        from repro.estimation.workflow import calibrate_platform
        from repro.units import log_spaced_sizes

        calibrate_platform(
            MINICLUSTER,
            procs=4,
            sizes=log_spaced_sizes(8 * KiB, 64 * KiB, 3),
            gamma_max_procs=3,
            max_reps=3,
            algorithms=["binomial"],
        )
        names = {s.name for s in global_tracing.finished()}
        assert {"calibrate.platform", "calibrate.prefetch",
                "estimate.gamma", "estimate.alphabeta"} <= names
        alphabeta = [
            s for s in global_tracing.finished()
            if s.name == "estimate.alphabeta"
        ]
        assert alphabeta[0].attributes["algorithm"] == "binomial"

    def test_every_operation_tags_its_calibration_spans(self, global_tracing):
        # Per-collective attribution of calibration time reads these three
        # span names, grouped by their ``operation`` attribute.
        operations = (
            "bcast", "reduce", "gather", "barrier",
            "allreduce", "allgather", "alltoall", "scatter",
        )
        runner = ParallelRunner(jobs=1)
        build_artifact(
            MINICLUSTER,
            collectives=operations,
            proc_points=(4, 8),
            size_points=(8 * KiB, 64 * KiB),
            procs=4,
            sizes=(8 * KiB, 32 * KiB, 128 * KiB),
            gamma_max_procs=3,
            max_reps=3,
            runner=runner,
        )
        runner.close()
        spans = global_tracing.finished()
        for name in ("calibrate.platform", "calibrate.prefetch",
                     "estimate.alphabeta"):
            tagged = [s.attributes.get("operation") for s in spans
                      if s.name == name]
            assert set(tagged) == set(operations), name
