"""Calibration in artifact builds: one call for every collective.

Builds, rebuilds and the chaos sweep calibrate every collective with one
:func:`~repro.estimation.workflow.calibrate_platform` call; builds and
rebuilds go through :func:`~repro.service.artifact.calibrate_operation`.
Covers the
errors it maps to :class:`ArtifactError` (an unknown collective, a
refused strict gate), a knob nothing takes failing loudly before any
simulation, ``gamma_max_procs`` reaching the reduce calibration, every
collective's quality report, and the headline executor property — a warm
persistent cache rebuilds *every* collective's calibration with zero
simulations.
"""

from __future__ import annotations

import pytest

from repro.clusters import MINICLUSTER
from repro.errors import ArtifactError
from repro.estimation.alphabeta import OPERATION_PROFILES
from repro.estimation.workflow import CalibrationResult, QualityThresholds
from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner
from repro.service.artifact import build_artifact, calibrate_operation
from repro.units import KiB

#: One kwarg set every collective takes — the shape ``build_artifact``
#: forwards in a combined multi-collective build.
CALIB_KWARGS = dict(
    procs=4,
    sizes=(8 * KiB, 32 * KiB, 128 * KiB),
    gamma_max_procs=3,
    max_reps=3,
    seed=0,
)

#: Thresholds no finite fit can meet (used to trip the strict gate).
IMPOSSIBLE = QualityThresholds(
    max_relative_residual=-1.0, min_converged_fraction=2.0
)


#: Every built-in collective: the original four plus the whole suite.
ALL_PIPELINES = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)


class TestRegistryListing:
    def test_builtin_collectives_registered(self):
        # A collective is calibrated by its OPERATION_PROFILES row alone.
        assert set(ALL_PIPELINES) <= set(OPERATION_PROFILES)

    def test_unknown_operation_names_registered_pipelines(self):
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            calibrate_operation(MINICLUSTER, "reduce_scatter")

    def test_build_artifact_rejects_unregistered_collective(self):
        with pytest.raises(ArtifactError, match="no calibration pipeline"):
            build_artifact(MINICLUSTER, collectives=("reduce_scatter",))


def _refused_before_any_simulation(operation: str, **kwargs) -> None:
    runner = ParallelRunner(jobs=1)
    try:
        with pytest.raises(TypeError, match="unexpected keyword"):
            calibrate_operation(MINICLUSTER, operation, runner=runner, **kwargs)
        assert runner.stats.simulations == 0
    finally:
        runner.close()


class TestKwargContract:
    def test_unsupported_kwarg_is_an_error_not_a_drop(self):
        # A misspelled knob among valid ones fails the call outright.
        knobs = dict(CALIB_KWARGS)
        knobs["max_rep"] = knobs.pop("max_reps")
        _refused_before_any_simulation("bcast", **knobs)

    def test_builtin_pipelines_reject_unknown_kwargs(self):
        for operation in ALL_PIPELINES:
            _refused_before_any_simulation(operation, bogus_knob=1)

    def test_gamma_max_procs_accepted_by_reduce(self):
        # Regression: a build's gamma_max_procs once never reached the
        # reduce calibration.
        artifact = build_artifact(
            MINICLUSTER, collectives=("reduce",), proc_points=(2, 4),
            size_points=(8 * KiB, 64 * KiB), procs=4,
            sizes=(8 * KiB, 64 * KiB), gamma_max_procs=2, max_reps=3,
        )
        assert sorted(artifact.entries["reduce"].platform.gamma.table) == [2]


class TestGammaMaxProcsForwarding:
    def test_reduce_gamma_table_bounded_by_gamma_max_procs(self):
        result = calibrate_operation(
            MINICLUSTER,
            "reduce",
            procs=4,
            sizes=(8 * KiB, 64 * KiB),
            gamma_max_procs=3,
            max_reps=3,
            seed=0,
        )
        assert result.platform.gamma.table
        assert max(result.platform.gamma.table) <= 3


class TestWarmCacheRebuild:
    @pytest.mark.parametrize("operation", ALL_PIPELINES)
    def test_rebuild_from_warm_cache_runs_zero_simulations(
        self, operation, tmp_path
    ):
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = calibrate_operation(
            MINICLUSTER, operation, runner=cold, **CALIB_KWARGS
        )
        assert cold.stats.simulations > 0
        cold.close()

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = calibrate_operation(
            MINICLUSTER, operation, runner=warm, **CALIB_KWARGS
        )
        assert warm.stats.simulations == 0
        warm.close()

        assert second.platform.parameters == first.platform.parameters
        assert second.platform.gamma.table == first.platform.gamma.table

    def test_full_suite_rebuild_is_simulation_free_and_bit_identical(
        self, tmp_path
    ):
        """The acceptance headline: eight collectives, one warm replay.

        A second full-suite build against the same persistent cache must
        run zero simulations and reproduce the exact content hash.
        """
        build_kwargs = dict(
            collectives=ALL_PIPELINES,
            proc_points=(4, 8),
            size_points=(8 * KiB, 64 * KiB),
            **CALIB_KWARGS,
        )
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        first = build_artifact(MINICLUSTER, runner=cold, **build_kwargs)
        assert cold.stats.simulations > 0
        cold.close()

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        second = build_artifact(MINICLUSTER, runner=warm, **build_kwargs)
        assert warm.stats.simulations == 0
        warm.close()

        assert set(first.operations) == set(ALL_PIPELINES)
        assert second.artifact_id == first.artifact_id

        # With every operand collective present, the five cross-collective
        # mock-up guidelines flip from skipped to actually checked.
        assert first.guidelines["ok"] is True
        assert first.guidelines["skipped"] == {}
        assert {
            "bcast_le_scatter_plus_allgather",
            "scatter_le_alltoall",
            "gather_le_allgather",
            "reduce_le_allreduce",
            "alltoall_le_scatter",
        } <= set(first.guidelines["checked"])


class TestStrictGate:
    @pytest.mark.parametrize(
        "operation",
        (
            "bcast", "reduce", "gather", "barrier",
            "allreduce", "allgather", "alltoall", "scatter",
        ),
    )
    def test_strict_build_gates_every_pipeline(self, operation):
        # Regression: --strict used to gate only the broadcast calibration;
        # every collective's quality report now feeds the same gate.
        with pytest.raises(
            ArtifactError,
            match=f"strict build refused.*{operation} calibration quality",
        ):
            build_artifact(
                MINICLUSTER,
                collectives=(operation,),
                proc_points=(2, 4, 8),
                size_points=(8 * KiB, 64 * KiB),
                strict=True,
                thresholds=IMPOSSIBLE,
                **CALIB_KWARGS,
            )

    def test_every_calibrating_pipeline_reports_quality(self):
        for operation in ALL_PIPELINES:
            result = calibrate_operation(
                MINICLUSTER, operation, **CALIB_KWARGS
            )
            assert isinstance(result, CalibrationResult)
            report = result.quality_report()
            assert report, f"{operation} produced no quality report"
            # check_quality() names a subset of the fitted algorithms (the
            # small test sweep may legitimately trip the model-form
            # residual).
            assert set(result.check_quality()) <= set(report)
