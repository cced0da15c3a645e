"""Incremental artifact recalibration.

When drift or a guideline violation implicates *one* collective, a full
rebuild is waste: calibration is already per-operation, so only the
affected collective needs to re-run.  :func:`rebuild_artifact` recalibrates
a subset of an existing artifact's operations on a (possibly drifted)
cluster spec and repackages — untouched entries are carried over
*verbatim*, the rebuilt ones reuse their existing decision-grid shape,
and all simulations flow through the caller's
:class:`~repro.exec.runner.ParallelRunner`, so a warm persistent cache
makes a no-drift rebuild free (zero simulations) and bit-identical
(unchanged content hash).

The rebuild provenance — which operations were recalibrated and which
artifact it descends from — is recorded in the unhashed ``build_info``
section: two artifacts that decide identically hash identically, however
they were produced.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.errors import TuningError
from repro.estimation.workflow import DEFAULT_QUALITY, QualityThresholds
from repro.exec.runner import ParallelRunner, default_runner
from repro.service.artifact import (
    SelectionArtifact,
    calibrate_operation,
    calibration_kwargs,
    fabric_calibration_overrides,
    operation_entry,
    stamp_guidelines,
)

__all__ = ["rebuild_artifact"]


def rebuild_artifact(
    artifact: SelectionArtifact,
    spec: ClusterSpec,
    operations: Sequence[str] | None = None,
    *,
    procs: int | None = None,
    gamma_max_procs: int | None = None,
    sizes: Sequence[int] | None = None,
    max_reps: int = 8,
    seed: int = 0,
    screen_mad: float | None = None,
    retry_budget: int = 0,
    runner: ParallelRunner | None = None,
    strict: bool = False,
    thresholds: QualityThresholds = DEFAULT_QUALITY,
) -> SelectionArtifact:
    """Recalibrate ``operations`` of ``artifact`` on ``spec``; repackage.

    ``operations=None`` rebuilds every entry.  Each rebuilt operation
    re-runs the build's calibration call, :func:`~repro.service.artifact.
    calibrate_operation`, with the given knobs (same names and defaults
    as :func:`~repro.service.artifact.build_artifact`, so passing the
    original build's values replays the original experiment schedule
    exactly), then rebuilds its decision table over the *existing*
    entry's grid and regenerates the decision function.  Entries outside
    ``operations`` are carried over untouched.

    ``strict=True`` applies both packaging gates — per-operation fit
    quality (:class:`~repro.errors.ArtifactError`) and guideline
    verification (:class:`~repro.errors.GuidelineViolationError`) — so a
    self-healing loop can refuse to promote a rebuild that is no better
    than the artifact it would replace.
    """
    wanted = (
        list(artifact.operations)
        if operations is None
        else sorted(dict.fromkeys(operations))
    )
    missing = [op for op in wanted if op not in artifact.entries]
    if missing:
        raise TuningError(
            f"cannot rebuild {', '.join(missing)}: artifact "
            f"{artifact.artifact_id} only carries "
            f"{', '.join(artifact.operations)}"
        )
    if not wanted:
        raise TuningError("rebuild_artifact needs at least one operation")
    fabric_name, fabric_kwargs, per_op_algorithms = (
        fabric_calibration_overrides(spec)
    )
    if fabric_name != artifact.fabric:
        raise TuningError(
            f"fabric mismatch: artifact {artifact.artifact_id} was "
            f"conditioned on {artifact.fabric or 'a flat cluster'!s}, "
            f"spec {spec.name} has {fabric_name or 'a flat fabric'!s}"
        )
    runner = runner if runner is not None else default_runner()
    calib_kwargs = calibration_kwargs(
        procs=procs,
        gamma_max_procs=gamma_max_procs,
        sizes=sizes,
        max_reps=max_reps,
        seed=seed,
        screen_mad=screen_mad,
        retry_budget=retry_budget,
    )
    calib_kwargs.update(fabric_kwargs)

    with obs.span(
        "artifact.rebuild",
        cluster=spec.name,
        operations=",".join(wanted),
        parent=artifact.content_hash()[:12],
    ) as rebuild_span:
        entries = dict(artifact.entries)
        quality = dict(artifact.quality)
        for operation in wanted:
            old = artifact.entries[operation]
            with obs.span("artifact.calibrate", operation=operation):
                result = calibrate_operation(
                    spec, operation, runner=runner, strict=strict,
                    thresholds=thresholds,
                    algorithms=per_op_algorithms.get(operation),
                    **calib_kwargs,
                )
            report = result.quality_report()
            if report:
                quality[operation] = report
            else:
                quality.pop(operation, None)
            entries[operation] = operation_entry(
                operation,
                result.platform,
                old.table.proc_points,
                old.table.size_points,
                old.function_name,
            )
        rebuilt = SelectionArtifact(
            cluster=artifact.cluster,
            cluster_fingerprint=spec.fingerprint(),
            entries=entries,
            builder_version=artifact.builder_version,
            fabric=artifact.fabric,
            quality=quality,
            build_info={
                "rebuilt": wanted,
                "parent": artifact.content_hash(),
            },
        )
        rebuilt = stamp_guidelines(rebuilt, strict=strict)
        rebuild_span.set_attr("artifact_id", rebuilt.artifact_id)
        rebuild_span.set_attr(
            "changed", rebuilt.content_hash() != artifact.content_hash()
        )
    return rebuilt
