"""Chaos benchmark: selection quality under injected faults.

The paper's implicit robustness claim is that model-based selection keeps
choosing (near-)optimal algorithms on real, imperfect platforms.  This
module makes the claim measurable: it re-runs the Table-3 experiment —
:func:`repro.bench.runner.selection_comparison` against a
:class:`~repro.selection.oracle.MeasuredOracle` — on clusters degraded by
a :class:`~repro.faults.FaultPlan` of increasing severity, recalibrating
on the *faulted* platform with the robustness knobs on (MAD screening,
retry budget, strict quality gate), and reports how far the model-based
pick drifts from the measured optimum as the faults worsen.

Severity ``s`` is a single scalar dial: the last participating node
straggles with injection slowdown ``1 + 10·s`` and compute slowdown
``1 + 5·s`` (so ``s = 0.02`` — the acceptance bar — is a 20% slower NIC
and 10% slower CPU on one node).  Everything is deterministic: the same
``(spec, severity, seed)`` triple reproduces bit-identical reports, and
all simulations flow through the shared runner cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.runner import SelectionRow, selection_comparison
from repro.clusters.spec import ClusterSpec
from repro.errors import EstimationError
from repro.estimation.regression import DEFAULT_SCREEN_THRESHOLD
from repro.estimation.workflow import (
    DEFAULT_QUALITY,
    QualityThresholds,
    calibrate_platform,
)
from repro.exec.runner import ParallelRunner
from repro.faults import FaultPlan, StragglerFault
from repro.selection.oracle import MeasuredOracle
from repro.units import KiB, MiB, format_bytes, log_spaced_sizes

#: Default severity sweep: healthy baseline, the ≤2% acceptance point,
#: and two harsher settings that show the drift curve.
DEFAULT_SEVERITIES = (0.0, 0.01, 0.02, 0.05, 0.1)

#: Default message sizes: the segmented-broadcast regime (the paper's
#: headline sizes).  Small messages are deliberately excluded — there the
#: mini platform's model-form error already exceeds the paper's tolerance
#: with *zero* faults, which would drown the fault-induced drift this
#: benchmark is after.
DEFAULT_CHAOS_SIZES = tuple(log_spaced_sizes(256 * KiB, 4 * MiB, 4))


def straggler_node(spec: ClusterSpec, procs: int) -> int:
    """The node hosting rank ``procs // 2`` — a *forwarding* rank.

    A straggler's injection/compute slowdown only matters on a rank that
    sends: the highest rank is a leaf in every broadcast tree (its fault
    would be invisible to the oracle), and the root would slow every
    algorithm identically and teach the benchmark nothing.  The middle
    rank forwards in the chain, binary, binomial and split-binary trees,
    so its slowdown differentiates the algorithms.
    """
    return spec.rank_to_node(procs)[procs // 2]


def severity_plan(spec: ClusterSpec, procs: int, severity: float) -> FaultPlan:
    """The single-straggler fault plan at severity ``severity``.

    Severity 0 returns a disabled plan, so the faulted spec's fingerprint
    — and therefore every cached simulation — is bit-identical to the
    pristine cluster's.
    """
    if severity < 0:
        raise EstimationError(f"severity must be >= 0, got {severity}")
    if severity == 0:
        return FaultPlan()
    return FaultPlan(
        stragglers=(
            StragglerFault(
                node=straggler_node(spec, procs),
                inject_factor=1.0 + 10.0 * severity,
                compute_factor=1.0 + 5.0 * severity,
            ),
        ),
    )


def drift_scenario(
    spec: ClusterSpec,
    *,
    procs: int,
    severity: float,
    operation: str = "bcast",
    max_reps: int = 8,
    seed: int = 0,
    runner: ParallelRunner | None = None,
) -> tuple[ClusterSpec, MeasuredOracle]:
    """A drifted platform and its ground-truth oracle, for tuning tests.

    Returns ``(drifted_spec, oracle)``: the cluster degraded by the
    standard single-straggler plan at ``severity`` (severity 0 hands the
    pristine spec back, bit-identical fingerprints and all) and a
    :class:`MeasuredOracle` measuring on it.  This is the harness the
    self-tuning loop's tests use as "reality": serve from an artifact
    calibrated on the clean spec, replay samples against this oracle, and
    the model-vs-platform drift becomes observable and recalibratable.
    """
    plan = severity_plan(spec, procs, severity)
    drifted = spec.with_faults(plan) if plan.enabled() else spec
    oracle = MeasuredOracle(
        drifted, operation=operation, max_reps=max_reps, seed=seed,
        runner=runner,
    )
    return drifted, oracle


@dataclass(frozen=True)
class ChaosReport:
    """One severity point of a chaos sweep."""

    severity: float
    #: Fault-plan fingerprint ("-" for the disabled severity-0 plan).
    plan_fingerprint: str
    #: Whether the strict-quality calibration succeeded on the faulted
    #: platform (when False the report still carries rows, fitted without
    #: the gate, so the drift is visible either way).
    strict_ok: bool
    #: Algorithms whose fits failed the quality thresholds.
    quality_failures: tuple[str, ...]
    rows: tuple[SelectionRow, ...]

    @property
    def max_model_degradation(self) -> float:
        """Worst model-vs-oracle slowdown over the size sweep, percent."""
        return max((row.model_degradation for row in self.rows), default=0.0)

    @property
    def mean_model_degradation(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.model_degradation for row in self.rows) / len(self.rows)

    def as_dict(self) -> dict:
        return {
            "severity": self.severity,
            "plan_fingerprint": self.plan_fingerprint,
            "strict_ok": self.strict_ok,
            "quality_failures": list(self.quality_failures),
            "max_model_degradation": self.max_model_degradation,
            "mean_model_degradation": self.mean_model_degradation,
            "rows": [
                {
                    "nbytes": row.nbytes,
                    "best": row.best.algorithm,
                    "model": row.model.algorithm,
                    "model_degradation": row.model_degradation,
                    "ompi": row.ompi.algorithm,
                    "ompi_degradation": row.ompi_degradation,
                }
                for row in self.rows
            ],
        }


def chaos_sweep(
    spec: ClusterSpec,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_CHAOS_SIZES,
    severities: Sequence[float] = DEFAULT_SEVERITIES,
    max_reps: int = 8,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    screen_mad: float | None = DEFAULT_SCREEN_THRESHOLD,
    retry_budget: int = 1,
    thresholds: QualityThresholds = DEFAULT_QUALITY,
) -> list[ChaosReport]:
    """Measure model-vs-oracle drift across a fault-severity sweep.

    For each severity: build the faulted spec, calibrate ``operation``
    *on it* with :func:`~repro.estimation.workflow.calibrate_platform`
    and the robustness knobs on (screening, retries), then run the
    Table-3 comparison against a measured oracle on the same faulted
    spec.  ``strict_ok`` records whether the fits met the strict quality
    ``thresholds``; the report carries rows either way, so the drift is
    visible even when the gate would have refused the calibration.
    """
    if procs is None:
        procs = max(2, spec.max_procs // 2)
    reports: list[ChaosReport] = []
    for severity in severities:
        plan = severity_plan(spec, procs, severity)
        faulted = spec.with_faults(plan) if plan.enabled() else spec
        result = calibrate_platform(
            faulted,
            operation=operation,
            runner=runner,
            max_reps=max_reps,
            seed=seed,
            screen_mad=screen_mad,
            retry_budget=retry_budget,
        )
        failures = tuple(result.check_quality(thresholds))
        strict_ok = not failures
        oracle = MeasuredOracle(
            faulted, operation=operation, max_reps=max_reps, seed=seed,
            runner=runner,
        )
        rows = selection_comparison(
            faulted, result.platform, procs, sizes,
            oracle=oracle, max_reps=max_reps,
        )
        reports.append(
            ChaosReport(
                severity=severity,
                plan_fingerprint=plan.fingerprint() if plan.enabled() else "-",
                strict_ok=strict_ok,
                quality_failures=failures,
                rows=tuple(rows),
            )
        )
    return reports


def format_chaos(reports: Sequence[ChaosReport]) -> str:
    """Render a chaos sweep as an ASCII drift table."""
    lines = [
        f"{'severity':>8}  {'strict':>6}  {'max drift %':>11}  "
        f"{'mean drift %':>12}  worst size / picks",
        "-" * 76,
    ]
    for report in reports:
        worst = max(
            report.rows, key=lambda row: row.model_degradation, default=None
        )
        detail = "-"
        if worst is not None:
            detail = (
                f"{format_bytes(worst.nbytes)}: model "
                f"{worst.model.algorithm}, best {worst.best.algorithm}"
            )
        lines.append(
            f"{report.severity:>8.3f}  {'ok' if report.strict_ok else 'FAIL':>6}  "
            f"{report.max_model_degradation:>11.2f}  "
            f"{report.mean_model_degradation:>12.2f}  {detail}"
        )
    return "\n".join(lines)
