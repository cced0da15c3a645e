"""Tests for the self-tuning loop (ISSUE 8).

Guideline verification, online drift detection, incremental
recalibration, artifact diffs, degraded-mode interplay, and the
end-to-end self-healing acceptance scenario: a live service on a clean
artifact converges — via sampled queries, a fired CUSUM and an
incremental rebuild — to an artifact that agrees with the drifted
platform's measured oracle, while no-drift runs stay bit-identical.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection

import pytest

from repro import obs
from repro.bench.chaos import drift_scenario
from repro.clusters import MINICLUSTER
from repro.errors import (
    ArtifactError,
    GuidelineViolationError,
    TuningError,
)
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.selection.codegen import generate_python
from repro.selection.decision_table import DecisionTable
from repro.selection.oracle import Selection
from repro.service import (
    ArtifactRegistry,
    SelectionService,
    ServiceThread,
    build_artifact,
    load_artifact,
)
from repro.service.artifact import ArtifactEntry, SelectionArtifact
from repro.tuning import (
    DriftConfig,
    DriftDetector,
    Guideline,
    QuerySampler,
    SampledQuery,
    SelfTuner,
    check_guidelines,
    diff_artifacts,
    format_diff,
    default_guidelines,
    rebuild_artifact,
    verify_guidelines,
)
from repro.units import KiB

#: Segmented-broadcast regime sizes: model-form error is small here, so
#: guideline checks and oracle agreement are clean (see bench/chaos.py).
SIZES = (256 * KiB, 512 * KiB, 1024 * KiB)

#: Calibration knobs shared by builds and rebuilds — passing the same
#: dict to both is what makes no-drift rebuilds replay bit-identically.
CAL = dict(
    procs=8, gamma_max_procs=3, sizes=SIZES, max_reps=3, seed=0,
)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tuning-cache")


def make_runner(cache_dir) -> ParallelRunner:
    return ParallelRunner(jobs=1, cache=ResultCache(cache_dir))


@pytest.fixture(scope="module")
def clean_artifact(cache_dir):
    """Clean three-collective artifact on the pristine test cluster."""
    return build_artifact(
        MINICLUSTER,
        collectives=("bcast", "gather", "barrier"),
        proc_points=(4, 8),
        size_points=SIZES,
        runner=make_runner(cache_dir),
        **CAL,
    )


def perturb_table(artifact: SelectionArtifact, operation: str = "bcast"):
    """A copy of ``artifact`` with one decision swapped to a wrong one.

    The generated source is regenerated from the perturbed table, so the
    artifact still passes the *syntactic* self-check (``verify()``) and
    re-hashes as a valid document — only the semantic guideline check can
    catch it.
    """
    entry = artifact.entries[operation]
    choices = [list(row) for row in entry.table.choices]
    current = choices[0][0]
    wrong = "linear" if current.algorithm != "linear" else "chain"
    choices[0][0] = Selection(wrong, current.segment_size, operation=operation)
    table = DecisionTable(
        proc_points=entry.table.proc_points,
        size_points=entry.table.size_points,
        choices=tuple(tuple(row) for row in choices),
    )
    entries = dict(artifact.entries)
    entries[operation] = ArtifactEntry(
        operation=operation,
        platform=entry.platform,
        table=table,
        function_name=entry.function_name,
        source=generate_python(table, function_name=entry.function_name),
    )
    return SelectionArtifact(
        cluster=artifact.cluster,
        cluster_fingerprint=artifact.cluster_fingerprint,
        entries=entries,
        fabric=artifact.fabric,
    )


def stub_artifact():
    """A one-cell-row bcast artifact whose predicted time *decreases*
    with size: monotony is violated, split-robustness holds
    (t(2m) < 2 t(m))."""

    class StubPlatform:
        def predict(self, algorithm, procs, nbytes, segment_size=0):
            return 1.0 / nbytes

    table = DecisionTable(
        proc_points=(4,),
        size_points=(1024, 2048),
        choices=((Selection("linear", 0), Selection("linear", 0)),),
    )
    entry = ArtifactEntry(
        operation="bcast", platform=StubPlatform(), table=table,
        function_name="f", source="",
    )

    class StubArtifact:
        entries = {"bcast": entry}
        operations = ["bcast"]
        artifact_id = "stub"

    return StubArtifact()


class TestGuidelines:
    def test_clean_artifact_passes(self, clean_artifact):
        report = verify_guidelines(clean_artifact)
        assert report.ok()
        assert report.violations == ()
        assert set(report.checked) == {
            "selection_optimal", "monotone_in_size", "split_robustness",
        }
        assert report.cells > 0

    def test_mockups_skipped_not_dropped(self, clean_artifact):
        report = verify_guidelines(clean_artifact)
        assert "bcast_le_scatter_plus_allgather" in report.skipped
        assert "allgather" in report.skipped["bcast_le_scatter_plus_allgather"]
        # gather is present, allgather is not: the reason names only the
        # genuinely missing operand.
        assert "gather_le_allgather" in report.skipped

    def test_report_stamped_outside_hash(self, clean_artifact, tmp_path):
        assert clean_artifact.guidelines["ok"] is True
        bare = SelectionArtifact(
            cluster=clean_artifact.cluster,
            cluster_fingerprint=clean_artifact.cluster_fingerprint,
            entries=clean_artifact.entries,
        )
        assert bare.content_hash() == clean_artifact.content_hash()
        path = clean_artifact.save(tmp_path / "stamped.json")
        loaded = load_artifact(path)
        assert loaded.guidelines == clean_artifact.guidelines
        assert loaded.content_hash() == clean_artifact.content_hash()

    def test_perturbed_table_violates_selection_optimality(
        self, clean_artifact
    ):
        bad = perturb_table(clean_artifact)
        bad.verify()  # syntactically sound: codegen agrees with the table
        report = verify_guidelines(bad)
        assert not report.ok()
        assert any(
            v.guideline == "selection_optimal" and v.operation == "bcast"
            for v in report.violations
        )
        assert report.worst_margin > 0

    def test_strict_gate_refuses_perturbed(self, clean_artifact):
        bad = perturb_table(clean_artifact)
        with pytest.raises(GuidelineViolationError) as excinfo:
            check_guidelines(bad)
        assert "selection_optimal" in str(excinfo.value)
        assert excinfo.value.report is not None
        assert not excinfo.value.report.ok()

    def test_custom_guideline_lifecycle(self, clean_artifact):
        guideline = Guideline(
            name="_test_needs_allgather",
            description="skipped until allgather exists",
            requires=frozenset({"allgather"}),
            check=lambda artifact, slack: [],
        )
        report = verify_guidelines(
            clean_artifact, guidelines=[*default_guidelines(), guideline]
        )
        assert "_test_needs_allgather" in report.skipped
        # Passing it in leaves the built-in catalogue as it was.
        assert guideline not in default_guidelines()

    def test_monotone_and_split_on_stub(self):
        """Unit-check the inequality math on a hand-built entry."""
        by_name = {g.name: g for g in default_guidelines()}
        monotone = verify_guidelines(
            stub_artifact(), guidelines=[by_name["monotone_in_size"]]
        )
        assert len(monotone.violations) == 1
        assert monotone.violations[0].guideline == "monotone_in_size"
        split = verify_guidelines(
            stub_artifact(), guidelines=[by_name["split_robustness"]]
        )
        assert split.ok()

    def test_custom_guideline_is_checked_and_counted(self):
        """A guideline outside the built-in catalogue is evaluated and
        its cells counted, not looked up by name."""
        custom = Guideline(
            name="custom_rule",
            description="never violated",
            requires=frozenset(),
            check=lambda artifact, slack: [],
        )
        report = verify_guidelines(stub_artifact(), guidelines=[custom])
        assert report.checked == ("custom_rule",)
        assert report.cells == 2
        assert report.ok()


class TestDriftDetector:
    def test_fires_on_sustained_drift(self):
        detector = DriftDetector(DriftConfig(
            allowance=0.05, threshold=0.5, min_samples=2,
        ))
        assert not detector.update(0.3)  # min_samples gate
        assert detector.update(0.35)     # cusum = 0.55 > 0.5
        assert detector.fired
        assert detector.triggers == 1

    def test_allowance_absorbs_tolerable_error(self):
        detector = DriftDetector(DriftConfig(allowance=0.05, threshold=0.5))
        for _ in range(100):
            detector.update(0.04)
        assert not detector.fired
        assert detector.cusum == 0.0

    def test_isolated_blip_decays(self):
        detector = DriftDetector(DriftConfig(allowance=0.05, threshold=0.5))
        detector.update(0.4)
        for _ in range(10):
            detector.update(0.0)
        assert detector.cusum == 0.0
        assert not detector.fired

    def test_reset_rearms(self):
        detector = DriftDetector(DriftConfig(
            allowance=0.0, threshold=0.1, min_samples=1,
        ))
        assert detector.update(1.0)
        detector.reset()
        assert not detector.fired
        assert detector.samples == 0
        assert detector.triggers == 1  # lifetime counter survives reset
        state = detector.state()
        assert state["fired"] is False

    def test_mean_error_windowed(self):
        detector = DriftDetector(DriftConfig(window=2))
        detector.update(1.0)
        detector.update(0.5)
        detector.update(0.1)
        assert detector.mean_error() == pytest.approx(0.3)

    def test_config_validation(self):
        with pytest.raises(TuningError):
            DriftConfig(allowance=-0.1)
        with pytest.raises(TuningError):
            DriftConfig(threshold=0.0)
        with pytest.raises(TuningError):
            DriftConfig(window=0)


def make_query_span(**attrs):
    with obs.span("select.query", force=True, **attrs) as span:
        pass
    return span


QUERY_ATTRS = dict(
    cluster="minicluster", operation="bcast", fabric="",
    procs=8, nbytes=262144, algorithm="chain", segment_size=8192,
)


class TestQuerySampler:
    def test_every_nth_cadence(self):
        sampler = QuerySampler(every=4)
        decisions = [sampler.should_sample() for _ in range(9)]
        assert decisions == [
            True, False, False, False, True, False, False, False, True,
        ]

    def test_captures_forced_spans_while_tracing_disabled(self):
        sampler = QuerySampler().attach()
        try:
            make_query_span(**QUERY_ATTRS)
            with obs.span("other.span", force=True):
                pass  # non-matching span names are ignored
        finally:
            sampler.detach()
        samples = sampler.drain()
        assert samples == [SampledQuery(**QUERY_ATTRS)]
        assert sampler.sampled == 1
        # Detached: further spans are not captured.
        make_query_span(**QUERY_ATTRS)
        assert sampler.drain() == []

    def test_malformed_span_ignored(self):
        sampler = QuerySampler().attach()
        try:
            make_query_span(cluster="x")  # missing required attributes
        finally:
            sampler.detach()
        assert sampler.drain() == []

    def test_capacity_drops_oldest(self):
        sampler = QuerySampler(capacity=2)
        for nbytes in (1, 2, 3):
            sampler(type(
                "S", (), {"name": "select.query",
                          "attributes": dict(QUERY_ATTRS, nbytes=nbytes)},
            )())
        assert sampler.dropped == 1
        assert [s.nbytes for s in sampler.drain()] == [2, 3]

    def test_double_attach_refused(self):
        sampler = QuerySampler().attach()
        try:
            with pytest.raises(TuningError):
                sampler.attach()
        finally:
            sampler.detach()

    def test_validation(self):
        with pytest.raises(TuningError):
            QuerySampler(every=0)


class TestRebuild:
    def test_no_drift_rebuild_bit_identical(self, clean_artifact, cache_dir):
        runner = make_runner(cache_dir)
        rebuilt = rebuild_artifact(
            clean_artifact, MINICLUSTER, runner=runner, **CAL
        )
        assert runner.stats.simulations == 0  # warm cache replay only
        assert rebuilt.content_hash() == clean_artifact.content_hash()
        assert rebuilt.build_info["rebuilt"] == [
            "barrier", "bcast", "gather",
        ]
        assert rebuilt.build_info["parent"] == clean_artifact.content_hash()
        assert rebuilt.guidelines["ok"] is True

    def test_subset_rebuild_carries_other_entries(
        self, clean_artifact, cache_dir
    ):
        runner = make_runner(cache_dir)
        rebuilt = rebuild_artifact(
            clean_artifact, MINICLUSTER, ["bcast"], runner=runner, **CAL
        )
        assert runner.stats.simulations == 0
        assert rebuilt.content_hash() == clean_artifact.content_hash()
        assert rebuilt.entries["gather"] is clean_artifact.entries["gather"]
        assert rebuilt.entries["barrier"] is clean_artifact.entries["barrier"]
        assert rebuilt.build_info["rebuilt"] == ["bcast"]

    def test_drifted_rebuild_changes_only_target(
        self, clean_artifact, cache_dir
    ):
        runner = make_runner(cache_dir)
        drifted, _oracle = drift_scenario(
            MINICLUSTER, procs=8, severity=0.3, runner=runner,
        )
        rebuilt = rebuild_artifact(
            clean_artifact, drifted, ["bcast"], runner=runner, **CAL
        )
        assert rebuilt.content_hash() != clean_artifact.content_hash()
        assert rebuilt.entries["gather"] is clean_artifact.entries["gather"]
        assert rebuilt.cluster == clean_artifact.cluster
        assert rebuilt.cluster_fingerprint == drifted.fingerprint()
        rebuilt.verify()

    def test_unknown_operation_refused(self, clean_artifact):
        with pytest.raises(TuningError, match="allgather"):
            rebuild_artifact(clean_artifact, MINICLUSTER, ["allgather"])

    def test_empty_operations_refused(self, clean_artifact):
        with pytest.raises(TuningError):
            rebuild_artifact(clean_artifact, MINICLUSTER, [])


class TestDiff:
    def test_identical(self, clean_artifact, cache_dir):
        rebuilt = rebuild_artifact(
            clean_artifact, MINICLUSTER, runner=make_runner(cache_dir), **CAL
        )
        diff = diff_artifacts(clean_artifact, rebuilt)
        assert diff.identical()
        assert diff.same_hash
        assert "identical" in format_diff(diff)

    def test_changed_cells_localised(self, clean_artifact, cache_dir):
        runner = make_runner(cache_dir)
        drifted, _ = drift_scenario(
            MINICLUSTER, procs=8, severity=0.3, runner=runner,
        )
        rebuilt = rebuild_artifact(
            clean_artifact, drifted, ["bcast"], runner=runner, **CAL
        )
        diff = diff_artifacts(clean_artifact, rebuilt)
        assert not diff.identical()
        assert {delta.operation for delta in diff.changed} == {"bcast"}
        assert diff.cells > 0
        text = format_diff(diff)
        assert "changed cells" in text
        assert "->" in text

    def test_operation_coverage_changes(self, clean_artifact):
        narrowed = SelectionArtifact(
            cluster=clean_artifact.cluster,
            cluster_fingerprint=clean_artifact.cluster_fingerprint,
            entries={"bcast": clean_artifact.entries["bcast"]},
        )
        diff = diff_artifacts(clean_artifact, narrowed)
        assert diff.removed_operations == ("barrier", "gather")
        assert not diff.added_operations
        reverse = diff_artifacts(narrowed, clean_artifact)
        assert reverse.added_operations == ("barrier", "gather")

    def test_perturbed_cell_reported(self, clean_artifact):
        bad = perturb_table(clean_artifact)
        diff = diff_artifacts(clean_artifact, bad)
        assert len(diff.changed) == 1
        delta = diff.changed[0]
        assert delta.operation == "bcast"
        assert delta.old != delta.new


class TestCli:
    def test_verify_guidelines_ok(self, clean_artifact, tmp_path, capsys):
        from repro.cli import main

        path = clean_artifact.save(tmp_path / "clean.json")
        assert main(["artifact", "verify", str(path), "--guidelines"]) == 0
        out = capsys.readouterr().out
        assert "no guideline violations" in out

    def test_verify_strict_refuses_perturbed(
        self, clean_artifact, tmp_path, capsys
    ):
        from repro.cli import main

        bad = perturb_table(clean_artifact)
        path = bad.save(tmp_path / "bad.json")
        # Report-only: violations are printed but the exit stays 0.
        assert main(["artifact", "verify", str(path), "--guidelines"]) == 0
        assert "VIOLATIONS" in capsys.readouterr().out
        # Strict: the gate refuses.
        assert main(
            ["artifact", "verify", str(path), "--guidelines", "--strict"]
        ) == 1

    def test_artifact_diff(self, clean_artifact, tmp_path, capsys):
        from repro.cli import main

        a = clean_artifact.save(tmp_path / "a.json")
        b = perturb_table(clean_artifact).save(tmp_path / "b.json")
        assert main(["artifact", "diff", str(a), str(a)]) == 0
        json_out = tmp_path / "diff.json"
        assert main(
            ["artifact", "diff", str(a), str(b), "--json", str(json_out)]
        ) == 1
        out = capsys.readouterr().out
        assert "changed cells: 1" in out
        data = json.loads(json_out.read_text())
        assert data["identical"] is False
        assert len(data["changed"]) == 1


def post_queries(port, sizes, repeat=3, procs=8):
    """Fire /select queries; returns the served algorithm per size."""
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    served = {}
    try:
        for _ in range(repeat):
            for nbytes in sizes:
                body = json.dumps({
                    "cluster": "minicluster", "operation": "bcast",
                    "procs": procs, "nbytes": nbytes,
                })
                conn.request("POST", "/select", body)
                response = conn.getresponse()
                data = json.loads(response.read())
                assert response.status == 200, data
                served[nbytes] = data["algorithm"]
    finally:
        conn.close()
    return served


def get_text(port, path):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        raw = response.read().decode()
    finally:
        conn.close()
    return raw


@pytest.fixture()
def live_service(clean_artifact, tmp_path):
    """A served bcast-only artifact in a file-backed registry."""
    bcast_only = build_artifact(
        MINICLUSTER,
        collectives=("bcast",),
        proc_points=(8,),
        size_points=SIZES,
        platforms={"bcast": clean_artifact.entries["bcast"].platform},
    )
    directory = tmp_path / "artifacts"
    directory.mkdir()
    bcast_only.save(directory / "minicluster.json")
    service = SelectionService(ArtifactRegistry(directory), cache_size=64)
    with ServiceThread(service) as handle:
        yield service, handle, bcast_only


def make_tuner(service, artifact, cache_dir, **overrides):
    kwargs = dict(
        artifact_file="minicluster.json",
        calib_kwargs=CAL,
        drift_config=DriftConfig(
            allowance=0.05, threshold=0.2, min_samples=2,
        ),
        sampler=QuerySampler(every=1),
        runner=make_runner(cache_dir),
        strict=True,
    )
    kwargs.update(overrides)
    return SelfTuner(service, artifact, MINICLUSTER, **kwargs)


class TestSelfHealing:
    """The end-to-end acceptance scenario and its no-drift control."""

    def test_drift_fires_and_service_converges(
        self, live_service, cache_dir
    ):
        service, handle, artifact = live_service
        runner = make_runner(cache_dir)
        drifted, oracle = drift_scenario(
            MINICLUSTER, procs=8, severity=0.3, runner=runner,
        )
        with make_tuner(service, artifact, cache_dir, runner=runner) as tuner:
            tuner.set_reality(drifted)
            served = post_queries(handle.port, SIZES)
            # The clean-calibrated table serves a now-suboptimal pick.
            assert set(served.values()) == {"chain"}

            health = tuner.step()

            # Drift fired and was recorded in /metrics.
            detector = tuner.detectors["bcast"]
            assert detector.triggers == 1
            metrics = get_text(handle.port, "/metrics")
            assert 'repro_drift_samples_total{operation="bcast"}' in metrics
            assert 'repro_drift_triggers_total{operation="bcast"} 1' in metrics
            assert 'repro_drift_mean_error{operation="bcast"}' in metrics
            assert (
                'repro_recalibrations_total{operation="bcast",outcome="ok"} 1'
                in metrics
            ) or (
                'repro_recalibrations_total{outcome="ok",operation="bcast"} 1'
                in metrics
            )

            # Recalibration happened, passed guidelines, and is serving.
            assert health["recalibrations"] == 1
            assert tuner.artifact.content_hash() != artifact.content_hash()
            assert tuner.artifact.guidelines["ok"] is True
            healthz = json.loads(get_text(handle.port, "/healthz"))
            assert healthz["status"] == "ok"
            assert healthz["tuning"]["recalibrations"] == 1

            # The served decisions now agree with the drifted oracle.
            converged = post_queries(handle.port, SIZES)
            for nbytes, algorithm in converged.items():
                best, _ = oracle.best(8, nbytes)
                assert algorithm == best.algorithm
            on_disk = load_artifact(
                service.registry.directory / "minicluster.json"
            )
            assert on_disk.content_hash() == tuner.artifact.content_hash()
            assert on_disk.build_info["rebuilt"] == ["bcast"]
            assert on_disk.build_info["parent"] == artifact.content_hash()

    def test_no_drift_run_is_bit_identical(self, live_service, cache_dir):
        service, handle, artifact = live_service
        with make_tuner(service, artifact, cache_dir) as tuner:
            post_queries(handle.port, SIZES)
            health = tuner.step()
            detector = tuner.detectors["bcast"]
            assert detector.samples > 0
            assert not detector.fired
            assert health["recalibrations"] == 0
            assert tuner.artifact.content_hash() == artifact.content_hash()
            # Explicit no-drift recalibration is free and hash-stable.
            runner = tuner.runner
            before = runner.stats.simulations
            assert tuner.recalibrate(["bcast"])
            assert runner.stats.simulations == before  # warm cache: 0 sims
            assert tuner.artifact.content_hash() == artifact.content_hash()

    def test_healthz_shape_without_tuner(self, live_service):
        _service, handle, _artifact = live_service
        healthz = json.loads(get_text(handle.port, "/healthz"))
        assert "tuning" not in healthz


class TestDegradedInterplay:
    """Satellite: failed rebuild -> last-known-good + degraded -> recovery."""

    def test_failed_rebuild_keeps_serving_then_recovers(
        self, live_service, cache_dir, monkeypatch
    ):
        service, handle, artifact = live_service
        with make_tuner(service, artifact, cache_dir) as tuner:
            import repro.tuning.tuner as tuner_module

            def exploding_rebuild(*args, **kwargs):
                raise ArtifactError("injected rebuild failure")

            monkeypatch.setattr(
                tuner_module, "rebuild_artifact", exploding_rebuild
            )
            assert tuner.recalibrate(["bcast"]) is False
            assert tuner.failed_recalibrations == 1
            assert "injected rebuild failure" in tuner.last_error

            # Still serving last-known-good, reported degraded everywhere.
            served = post_queries(handle.port, SIZES, repeat=1)
            assert served  # queries keep being answered
            assert service.registry.lookup(
                "minicluster", "bcast"
            ).content_hash() == artifact.content_hash()
            metrics = get_text(handle.port, "/metrics")
            assert "repro_service_degraded 1" in metrics
            assert (
                'repro_recalibrations_total{operation="bcast",'
                'outcome="failed"} 1' in metrics
                or 'repro_recalibrations_total{outcome="failed",'
                'operation="bcast"} 1' in metrics
            )
            healthz = json.loads(get_text(handle.port, "/healthz"))
            assert healthz["status"] == "degraded"
            assert "recalibration failed" in healthz["reason"]
            assert healthz["tuning"]["failed_recalibrations"] == 1

            # Next successful rebuild clears the condition.
            monkeypatch.setattr(
                tuner_module, "rebuild_artifact", rebuild_artifact
            )
            assert tuner.recalibrate(["bcast"]) is True
            assert tuner.last_error is None
            assert service.degraded_reason is None
            metrics = get_text(handle.port, "/metrics")
            assert "repro_service_degraded 0" in metrics
            healthz = json.loads(get_text(handle.port, "/healthz"))
            assert healthz["status"] == "ok"


class TestStrictBuildGate:
    def test_strict_build_refuses_guideline_violation(
        self, clean_artifact, cache_dir, monkeypatch
    ):
        """A strict build routes through the guideline gate."""
        from repro.tuning import guidelines
        from repro.tuning.guidelines import GuidelineViolation

        always_violated = Guideline(
            name="_test_always_violated",
            description="test gate",
            requires=frozenset(),
            check=lambda artifact, slack: [
                GuidelineViolation(
                    guideline="_test_always_violated",
                    operation="bcast", procs=2, nbytes=1,
                    lhs=2.0, rhs=1.0, margin=1.0,
                )
            ],
        )
        monkeypatch.setattr(
            guidelines, "DEFAULT_GUIDELINES",
            (*guidelines.DEFAULT_GUIDELINES, always_violated),
        )
        with pytest.raises(GuidelineViolationError, match="refused"):
            build_artifact(
                MINICLUSTER,
                collectives=("bcast",),
                proc_points=(8,),
                size_points=SIZES,
                platforms={
                    "bcast": clean_artifact.entries["bcast"].platform,
                },
                strict=True,
            )


class TestRecalibrateCacheInvalidation:
    """Bugfix audit: a hot reload during recalibration must also flush
    the service's LRU query cache — a warm entry from the previous
    artifact must never be served after the swap."""

    def test_recalibrate_evicts_warm_lru_entries(
        self, live_service, cache_dir, clean_artifact, monkeypatch
    ):
        service, _handle, artifact = live_service
        query = {
            "cluster": "minicluster", "operation": "bcast",
            "procs": 8, "nbytes": SIZES[0],
        }
        warm = json.loads(service.select_body(dict(query), "t"))
        assert warm["artifact"] == artifact.artifact_id
        # Second hit comes from the LRU; still the old artifact.
        assert json.loads(service.select_body(dict(query), "t"))[
            "artifact"
        ] == artifact.artifact_id

        rebuilt = build_artifact(
            MINICLUSTER,
            collectives=("bcast",),
            proc_points=(8,),
            size_points=SIZES[:2],
            platforms={"bcast": clean_artifact.entries["bcast"].platform},
        )
        assert rebuilt.artifact_id != artifact.artifact_id
        monkeypatch.setattr(
            "repro.tuning.tuner.rebuild_artifact",
            lambda *args, **kwargs: rebuilt,
        )
        with make_tuner(service, artifact, cache_dir) as tuner:
            assert tuner.recalibrate(["bcast"]) is True
        served = json.loads(service.select_body(dict(query), "t"))
        assert served["artifact"] == rebuilt.artifact_id
