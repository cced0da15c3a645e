"""Per-collective calibration pipelines (the multi-collective registry).

The paper's method is collective-agnostic: implementation-derived models
plus per-algorithm α/β estimation apply to any Open MPI collective.  This
module is where that genericity becomes operational — each collective
operation registers one :class:`CalibrationPipeline`, and
:func:`repro.service.artifact.build_artifact` loops over the registry
instead of special-casing operations, so adding a collective to the whole
service stack (decision tables, codegen, artifacts, HTTP server) is one
registration here plus a model family.

A pipeline declares which calibration keyword arguments it *accepts*
(forwarded to the underlying calibration) and which it merely *tolerates*
(meaningful only to sibling pipelines in a combined multi-collective
build, silently dropped).  Anything outside both sets is an error — a
misspelled or genuinely unsupported kwarg must never be discarded.

Built-in pipelines: one per row of
:data:`~repro.estimation.alphabeta.OPERATION_PROFILES` — ``bcast``,
``reduce``, ``gather``, ``barrier``, ``allreduce``, ``allgather``,
``alltoall`` and ``scatter`` — all running the one calibration entry point
(:func:`~repro.estimation.workflow.calibrate_platform`).  Their
``accepts`` sets are derived from the profile; each tolerates the knobs
a combined build forwards to every pipeline that it does not accept.
All of them route
every simulation through the :class:`~repro.exec.runner.ParallelRunner`
handed to :meth:`CalibrationPipeline.calibrate`, prefetching their whole
experiment schedule up front — so builds parallelise and a warm
persistent cache replays with zero simulations, for every collective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.clusters.spec import ClusterSpec
from repro.errors import ArtifactError, EstimationError
from repro.estimation.alphabeta import (
    OPERATION_PROFILES,
    FitQuality,
    OperationProfile,
)
from repro.estimation.workflow import (
    DEFAULT_QUALITY,
    PlatformModel,
    QualityThresholds,
    calibrate_platform,
)
from repro.exec.runner import ParallelRunner

__all__ = [
    "CalibrationOutcome",
    "CalibrationPipeline",
    "register_pipeline",
    "unregister_pipeline",
    "get_pipeline",
    "registered_collectives",
    "run_pipeline",
]


@dataclass(frozen=True)
class CalibrationOutcome:
    """What a pipeline hands back: the model plus its fit diagnostics."""

    platform: PlatformModel
    #: Per-algorithm fit quality (may be empty for quality-less pipelines).
    quality: dict[str, FitQuality] = field(default_factory=dict)

    def quality_report(self) -> dict[str, dict]:
        """Per-algorithm diagnostics, JSON-ready (for the artifact document)."""
        return {
            name: fit_quality.as_dict()
            for name, fit_quality in sorted(self.quality.items())
        }

    def failing(
        self, thresholds: QualityThresholds = DEFAULT_QUALITY
    ) -> list[str]:
        """Names of algorithms whose fit fails ``thresholds`` (empty = pass)."""
        return [
            name
            for name, fit_quality in sorted(self.quality.items())
            if not fit_quality.ok(
                max_relative_residual=thresholds.max_relative_residual,
                min_converged_fraction=thresholds.min_converged_fraction,
            )
        ]


@dataclass(frozen=True)
class CalibrationPipeline:
    """One collective's route from cluster spec to calibrated platform.

    ``fn(spec, runner=..., **kwargs) -> CalibrationOutcome`` does the
    work; ``accepts`` names the calibration kwargs forwarded to it, and
    ``tolerates`` names kwargs that are dropped because they only concern
    sibling pipelines in a combined multi-collective build.  Kwargs in
    neither set raise :class:`ArtifactError`.  ``size_independent`` marks
    collectives whose decisions do not depend on the message size (the
    barrier), so decision tables collapse to a single size column.
    """

    operation: str
    fn: Callable[..., CalibrationOutcome]
    accepts: frozenset[str]
    tolerates: frozenset[str] = frozenset()
    size_independent: bool = False

    def calibrate(
        self,
        spec: ClusterSpec,
        *,
        runner: ParallelRunner | None = None,
        **kwargs,
    ) -> CalibrationOutcome:
        """Validate and forward ``kwargs``; run the calibration."""
        unsupported = sorted(set(kwargs) - self.accepts - self.tolerates)
        if unsupported:
            raise ArtifactError(
                f"{self.operation} calibration does not support "
                f"{', '.join(unsupported)}; accepts: "
                f"{', '.join(sorted(self.accepts))}"
            )
        forwarded = {
            key: value for key, value in kwargs.items() if key in self.accepts
        }
        return self.fn(spec, runner=runner, **forwarded)


_PIPELINES: dict[str, CalibrationPipeline] = {}


def register_pipeline(
    pipeline: CalibrationPipeline, *, replace: bool = False
) -> None:
    """Register ``pipeline`` for its operation.

    Refuses to overwrite an existing registration unless ``replace=True``
    — silently shadowing a built-in pipeline is almost never intended.
    """
    if pipeline.operation in _PIPELINES and not replace:
        raise ArtifactError(
            f"calibration pipeline for {pipeline.operation!r} already "
            "registered; pass replace=True to override"
        )
    _PIPELINES[pipeline.operation] = pipeline


def unregister_pipeline(operation: str) -> None:
    """Remove a registration (primarily for tests of custom pipelines)."""
    _PIPELINES.pop(operation, None)


def get_pipeline(operation: str) -> CalibrationPipeline:
    """The registered pipeline for ``operation``.

    Raises :class:`ArtifactError` naming the registered collectives when
    there is none.
    """
    try:
        return _PIPELINES[operation]
    except KeyError:
        raise ArtifactError(
            f"no calibration pipeline for collective {operation!r}; "
            f"registered: {', '.join(sorted(_PIPELINES))}; pass a "
            "precomputed platform via platforms={...}"
        ) from None


def registered_collectives() -> list[str]:
    """Operations with a registered pipeline, sorted."""
    return sorted(_PIPELINES)


def run_pipeline(
    spec: ClusterSpec,
    operation: str,
    *,
    runner: ParallelRunner | None = None,
    strict: bool = False,
    thresholds: QualityThresholds = DEFAULT_QUALITY,
    **calib_kwargs,
) -> CalibrationOutcome:
    """Calibrate ``operation`` through its registered pipeline, gated.

    The single entry point shared by a full :func:`~repro.service.
    artifact.build_artifact` and an incremental
    :func:`~repro.tuning.recalibrate.rebuild_artifact`: estimation errors
    become :class:`ArtifactError`, and ``strict=True`` applies the
    quality-threshold gate with the same refusal message the full build
    uses — rebuilds are held to exactly the packaging standard.
    """
    pipeline = get_pipeline(operation)
    try:
        outcome = pipeline.calibrate(spec, runner=runner, **calib_kwargs)
    except EstimationError as error:
        raise ArtifactError(
            f"{operation} calibration failed: {error}"
        ) from error
    if strict:
        failed = outcome.failing(thresholds)
        if failed:
            details = "; ".join(
                f"{name}: {outcome.quality[name].as_dict()}"
                for name in failed
            )
            raise ArtifactError(
                f"strict build refused: {spec.name}: "
                f"{operation} calibration quality gate "
                f"failed for {', '.join(failed)} ({details})"
            )
    return outcome


# -- built-in pipelines ------------------------------------------------------

#: Knobs every built-in calibration accepts.
_COMMON_KWARGS = frozenset(
    {"algorithms", "precision", "max_reps", "seed", "retry_budget"}
)
#: Knobs of the canonical fit over a message-size sweep.
_SIZE_SWEEP_KWARGS = frozenset({"sizes", "regressor", "screen_mad"})
#: The paper's ablation studies, all on the broadcast.
_BCAST_ABLATION_KWARGS = frozenset(
    {"model_family", "estimation", "gamma_method", "gather_bytes", "strict"}
)
#: Knobs a combined multi-collective build forwards to every pipeline: a
#: pipeline tolerates each one it does not accept.
_SHARED_KWARGS = frozenset(
    {
        "procs", "sizes", "segment_size", "gamma_max_procs", "screen_mad",
        "regressor", "model_params",
    }
)


def _accepted_kwargs(profile: OperationProfile) -> frozenset[str]:
    """The calibration kwargs ``profile``'s pipeline forwards."""
    accepts = set(_COMMON_KWARGS)
    if profile.size_independent:
        accepts.add("proc_counts")
    else:
        accepts |= {"procs"} | _SIZE_SWEEP_KWARGS
    if profile.segmented:
        accepts.add("segment_size")
    if profile.measures_gamma:
        accepts.add("gamma_max_procs")
    if profile.extra_params:
        accepts.add("model_params")
    if profile.operation == "bcast":
        accepts |= _BCAST_ABLATION_KWARGS
    return frozenset(accepts)


def _calibrate_profile(
    spec: ClusterSpec,
    *,
    operation: str,
    runner: ParallelRunner | None = None,
    **kwargs,
) -> CalibrationOutcome:
    result = calibrate_platform(
        spec, operation=operation, runner=runner, **kwargs
    )
    return CalibrationOutcome(
        platform=result.platform,
        quality={
            name: estimate.quality
            for name, estimate in result.alpha_beta.items()
            if estimate.quality is not None
        },
    )


for _profile in OPERATION_PROFILES.values():
    _accepts = _accepted_kwargs(_profile)
    register_pipeline(
        CalibrationPipeline(
            operation=_profile.operation,
            fn=partial(_calibrate_profile, operation=_profile.operation),
            accepts=_accepts,
            tolerates=_SHARED_KWARGS - _accepts,
            size_independent=_profile.size_independent,
        )
    )
del _profile, _accepts
