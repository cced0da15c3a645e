"""Performance-guideline verification for selection artifacts.

Hunold and Carpen-Amarie's "Tuning MPI Collectives by Verifying
Performance Guidelines" observes that a well-tuned MPI library satisfies
machine-checkable *self-consistency invariants*: a collective must not be
slower than a combination of other collectives that implements it
(``bcast(m) <= scatter(ceil(m/P)) + allgather(ceil(m/P))`` under this
artifact's per-rank-block size convention), must not get faster when
asked to move more data (monotony), and must not beat itself when the
payload is split (split-robustness).  A violated guideline is not noise —
it is a concrete calibration or selection bug, pinpointed to an
``(operation, P, m)`` cell.

This module applies that idea to a packaged
:class:`~repro.service.artifact.SelectionArtifact`: every built-in (or
passed-in) :class:`Guideline` is evaluated against the artifact's *model
predictions of its own packaged decisions* across the full ``(P, m)``
decision grid.  Three families ship built in:

* **selection optimality** — the stored table choice must be the
  model-optimal algorithm at its cell (catches perturbed/tampered or
  stale tables that the content hash alone cannot judge *semantically*);
* **monotony / split-robustness** — per-operation sanity of the
  predicted times along the size axis;
* **mock-up guidelines** — Hunold's cross-collective inequalities
  (``bcast <= scatter + allgather`` and friends), with each operand's
  message size converted to that operation's own convention.  A
  guideline whose operand collectives are not in the artifact is
  reported as *skipped*, not silently dropped — a full eight-collective
  build checks all five.

The resulting :class:`GuidelineReport` is stamped into the artifact's
unhashed ``guidelines`` section by :func:`repro.service.artifact.
build_artifact`, and ``--strict`` builds (plus ``repro-mpi artifact
verify --guidelines --strict``) refuse violating artifacts outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import GuidelineViolationError

__all__ = [
    "DEFAULT_SLACK",
    "Guideline",
    "GuidelineReport",
    "GuidelineViolation",
    "check_guidelines",
    "default_guidelines",
    "verify_guidelines",
]

#: Default relative slack before an inequality counts as violated.  The
#: self-consistency guidelines compare *model* predictions with *model*
#: predictions, so genuine violations are large and the slack only has to
#: absorb floating-point noise.
DEFAULT_SLACK = 1e-6


@dataclass(frozen=True)
class GuidelineViolation:
    """One violated inequality at one grid cell."""

    guideline: str
    operation: str
    procs: int
    nbytes: int
    #: The side that should have been smaller (seconds).
    lhs: float
    #: The bound it exceeded (seconds).
    rhs: float
    #: Relative excess ``lhs / rhs - 1`` — how badly the bound is broken.
    margin: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "guideline": self.guideline,
            "operation": self.operation,
            "procs": self.procs,
            "nbytes": self.nbytes,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "detail": self.detail,
        }

    def describe(self) -> str:
        return (
            f"{self.guideline}: {self.operation} P={self.procs} "
            f"m={self.nbytes}: {self.lhs:.3e} > {self.rhs:.3e} "
            f"(+{100.0 * self.margin:.2f}%)"
            + (f" — {self.detail}" if self.detail else "")
        )


@dataclass(frozen=True)
class Guideline:
    """One machine-checkable performance invariant.

    ``check(artifact, slack)`` returns the violations it found;
    ``requires`` names the collective operations the artifact must carry
    for the guideline to be evaluable at all — an artifact missing one is
    *skipped* for this guideline (and says so in the report).
    """

    name: str
    description: str
    requires: frozenset[str]
    check: Callable[[object, float], list[GuidelineViolation]]

    def applicable(self, artifact) -> bool:
        return self.requires <= set(artifact.operations)


@dataclass
class GuidelineReport:
    """The outcome of verifying one artifact against a guideline set."""

    artifact_id: str
    #: Guidelines that were evaluated.
    checked: tuple[str, ...]
    #: Guideline name -> reason it could not be evaluated.
    skipped: dict[str, str]
    #: Grid cells inspected across all evaluated guidelines.
    cells: int
    violations: tuple[GuidelineViolation, ...]

    def ok(self) -> bool:
        return not self.violations

    @property
    def worst_margin(self) -> float:
        return max((v.margin for v in self.violations), default=0.0)

    def as_dict(self) -> dict:
        return {
            "artifact_id": self.artifact_id,
            "checked": list(self.checked),
            "skipped": dict(self.skipped),
            "cells": self.cells,
            "ok": self.ok(),
            "violations": [v.as_dict() for v in self.violations],
        }

    def format(self) -> str:
        lines = [
            f"guideline verification: {self.artifact_id}",
            f"  checked  {', '.join(self.checked) or '<none>'} "
            f"({self.cells} cells)",
        ]
        for name in sorted(self.skipped):
            lines.append(f"  skipped  {name}: {self.skipped[name]}")
        if self.ok():
            lines.append("  OK: no guideline violations")
        else:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            for violation in self.violations:
                lines.append(f"    {violation.describe()}")
        return "\n".join(lines)


def _cell_time(entry, procs: int, nbytes: int) -> float:
    """Model-predicted time of the artifact's *packaged decision*.

    This is the quantity guidelines constrain: not the model optimum in
    the abstract, but what a client following the shipped table will run.
    """
    choice = entry.table.select(procs, nbytes)
    return entry.platform.predict(
        choice.algorithm, procs, nbytes, segment_size=choice.segment_size
    )


def _grid(entry) -> Iterable[tuple[int, int]]:
    for procs in entry.table.proc_points:
        for nbytes in entry.table.size_points:
            yield procs, nbytes


def _check_selection_optimal(artifact, slack: float) -> list[GuidelineViolation]:
    """The stored choice must be model-optimal at its own grid cell.

    An honest build produces the table *from* the model argmin, so any
    violation means the table and the packaged model disagree — a
    perturbed, hand-edited or stale table.
    """
    from repro.selection.model_based import ModelBasedSelector

    violations: list[GuidelineViolation] = []
    for operation, entry in sorted(artifact.entries.items()):
        selector = ModelBasedSelector(entry.platform)
        for procs, nbytes in _grid(entry):
            stored = entry.table.select(procs, nbytes)
            stored_time = entry.platform.predict(
                stored.algorithm, procs, nbytes,
                segment_size=stored.segment_size,
            )
            best, best_time = selector.select_with_prediction(procs, nbytes)
            if best_time <= 0:
                continue  # degenerate cells (m = 0 no-ops) have no order
            if stored_time > best_time * (1.0 + slack):
                violations.append(
                    GuidelineViolation(
                        guideline="selection_optimal",
                        operation=operation,
                        procs=procs,
                        nbytes=nbytes,
                        lhs=stored_time,
                        rhs=best_time,
                        margin=stored_time / best_time - 1.0,
                        detail=(
                            f"table stores {stored.algorithm}"
                            f"/{stored.segment_size}, model prefers "
                            f"{best.algorithm}/{best.segment_size}"
                        ),
                    )
                )
    return violations


def _check_monotone_in_size(artifact, slack: float) -> list[GuidelineViolation]:
    """Hunold's monotony: moving more data must not be (predicted) faster."""
    violations: list[GuidelineViolation] = []
    for operation, entry in sorted(artifact.entries.items()):
        sizes = entry.table.size_points
        if len(sizes) < 2:
            continue  # size-independent collectives (barrier)
        for procs in entry.table.proc_points:
            for smaller, larger in zip(sizes, sizes[1:]):
                lhs = _cell_time(entry, procs, smaller)
                rhs = _cell_time(entry, procs, larger)
                if rhs <= 0:
                    continue
                if lhs > rhs * (1.0 + slack):
                    violations.append(
                        GuidelineViolation(
                            guideline="monotone_in_size",
                            operation=operation,
                            procs=procs,
                            nbytes=larger,
                            lhs=lhs,
                            rhs=rhs,
                            margin=lhs / rhs - 1.0,
                            detail=f"t({smaller}) > t({larger})",
                        )
                    )
    return violations


def _check_split_robustness(artifact, slack: float) -> list[GuidelineViolation]:
    """Hunold's split-robustness: ``t(k·m) <= k · t(m)``.

    Evaluated on adjacent size-grid pairs (``k = ceil(m2 / m1)``) — the
    default paper grid is log-spaced with exact doublings, so this is the
    classic ``t(2m) <= 2·t(m)`` check there.
    """
    violations: list[GuidelineViolation] = []
    for operation, entry in sorted(artifact.entries.items()):
        sizes = [s for s in entry.table.size_points if s > 0]
        if len(sizes) < 2:
            continue
        for procs in entry.table.proc_points:
            for smaller, larger in zip(sizes, sizes[1:]):
                k = math.ceil(larger / smaller)
                lhs = _cell_time(entry, procs, larger)
                rhs = k * _cell_time(entry, procs, smaller)
                if rhs <= 0:
                    continue
                if lhs > rhs * (1.0 + slack):
                    violations.append(
                        GuidelineViolation(
                            guideline="split_robustness",
                            operation=operation,
                            procs=procs,
                            nbytes=larger,
                            lhs=lhs,
                            rhs=rhs,
                            margin=lhs / rhs - 1.0,
                            detail=f"t({larger}) > {k}*t({smaller})",
                        )
                    )
    return violations


@dataclass(frozen=True)
class MockupTerm:
    """One right-hand operand of a cross-collective mock-up inequality.

    ``size(procs, nbytes)`` maps the lhs cell to the operand's message
    size — necessary because the artifact's size conventions differ per
    operation (bcast/reduce carry the full vector, gather/scatter/
    allgather a per-rank block, alltoall a per-pair block), so a sound
    mock-up must convert between them (``bcast(m) <=
    scatter(ceil(m/P)) + allgather(ceil(m/P))``, not ``scatter(m)``).
    ``count(procs)`` is how many sequential invocations
    the mock-up issues (``alltoall(m) <= P * scatter(m)``: every rank
    scatters its row in turn).
    """

    operation: str
    size: Callable[[int, int], int] = lambda procs, nbytes: nbytes
    count: Callable[[int], int] = lambda procs: 1


def _mockup(
    lhs_op: str, terms: Sequence[MockupTerm], description: str
) -> Guideline:
    """A mock-up inequality: lhs(m) <= sum(count_i * rhs_i(size_i(m))).

    Evaluated on the lhs operation's grid; the rhs operations answer via
    their own tables' floor lookup at the *converted* operand size,
    exactly as a client composing the mock-up from served decisions
    would.
    """
    name = f"{lhs_op}_le_{'_plus_'.join(t.operation for t in terms)}"

    def check(artifact, slack: float) -> list[GuidelineViolation]:
        violations: list[GuidelineViolation] = []
        lhs_entry = artifact.entries[lhs_op]
        for procs, nbytes in _grid(lhs_entry):
            lhs = _cell_time(lhs_entry, procs, nbytes)
            rhs = sum(
                term.count(procs)
                * _cell_time(
                    artifact.entries[term.operation],
                    procs,
                    term.size(procs, nbytes),
                )
                for term in terms
            )
            if rhs <= 0:
                continue
            if lhs > rhs * (1.0 + slack):
                violations.append(
                    GuidelineViolation(
                        guideline=name,
                        operation=lhs_op,
                        procs=procs,
                        nbytes=nbytes,
                        lhs=lhs,
                        rhs=rhs,
                        margin=lhs / rhs - 1.0,
                        detail=description,
                    )
                )
        return violations

    return Guideline(
        name=name,
        description=description,
        requires=frozenset({lhs_op, *(t.operation for t in terms)}),
        check=check,
    )


def _per_rank_block(procs: int, nbytes: int) -> int:
    """The lhs full vector split into per-rank blocks: ``ceil(m / P)``."""
    return -(-nbytes // procs)


#: Hunold's cross-collective mock-up inequalities, stated for this
#: artifact's size conventions (bcast/reduce/allreduce size the full
#: vector; gather/scatter/allgather a per-rank block; alltoall a
#: per-pair block).  Every collective of the suite calibrates, so a full
#: eight-collective build checks all five; narrower artifacts report the
#: inapplicable ones as skipped, not silently dropped.
_MOCKUPS = (
    _mockup(
        "bcast",
        (
            MockupTerm("scatter", size=_per_rank_block),
            MockupTerm("allgather", size=_per_rank_block),
        ),
        "bcast(m) <= scatter(ceil(m/P)) + allgather(ceil(m/P))",
    ),
    _mockup(
        "scatter",
        (MockupTerm("alltoall"),),
        "scatter(m) <= alltoall(m)",
    ),
    _mockup(
        "gather",
        (MockupTerm("allgather"),),
        "gather(m) <= allgather(m)",
    ),
    _mockup(
        "reduce",
        (MockupTerm("allreduce"),),
        "reduce(m) <= allreduce(m)",
    ),
    _mockup(
        "alltoall",
        (MockupTerm("scatter", count=lambda procs: procs),),
        "alltoall(m) <= P * scatter(m)",
    ),
)

#: The built-in catalogue, sorted by name: three per-operation sanity
#: checks and the five mock-ups.
DEFAULT_GUIDELINES: tuple[Guideline, ...] = tuple(
    sorted(
        (
            Guideline(
                name="selection_optimal",
                description=(
                    "every stored table choice is model-optimal at its cell"
                ),
                requires=frozenset(),
                check=_check_selection_optimal,
            ),
            Guideline(
                name="monotone_in_size",
                description=(
                    "predicted time never decreases with the message size"
                ),
                requires=frozenset(),
                check=_check_monotone_in_size,
            ),
            Guideline(
                name="split_robustness",
                description="t(k*m) <= k*t(m) along the size grid",
                requires=frozenset(),
                check=_check_split_robustness,
            ),
            *_MOCKUPS,
        ),
        key=lambda guideline: guideline.name,
    )
)


def default_guidelines() -> tuple[Guideline, ...]:
    """The built-in catalogue, sorted by name.

    A custom guideline joins it per call:
    ``verify_guidelines(artifact, guidelines=[*default_guidelines(), mine])``.
    """
    return DEFAULT_GUIDELINES


def _count_cells(artifact, guidelines: Sequence[Guideline]) -> int:
    per_op = {
        operation: len(entry.table.proc_points) * len(entry.table.size_points)
        for operation, entry in artifact.entries.items()
    }
    total = 0
    for guideline in guidelines:
        requires = guideline.requires
        if requires:
            total += per_op.get(next(iter(requires)), 0)
        else:
            total += sum(per_op.values())
    return total


def verify_guidelines(
    artifact,
    *,
    guidelines: Sequence[Guideline] | None = None,
    slack: float = DEFAULT_SLACK,
) -> GuidelineReport:
    """Evaluate every (applicable) guideline against ``artifact``.

    Returns a :class:`GuidelineReport`; never raises on violations — use
    :func:`check_guidelines` for the refusing gate.
    """
    chosen = list(guidelines) if guidelines is not None else default_guidelines()
    checked: list[Guideline] = []
    skipped: dict[str, str] = {}
    violations: list[GuidelineViolation] = []
    present = set(artifact.operations)
    for guideline in chosen:
        missing = sorted(guideline.requires - present)
        if missing:
            skipped[guideline.name] = (
                f"artifact has no {', '.join(missing)} table"
            )
            continue
        checked.append(guideline)
        violations.extend(guideline.check(artifact, slack))
    violations.sort(key=lambda v: (-v.margin, v.guideline, v.operation))
    return GuidelineReport(
        artifact_id=artifact.artifact_id,
        checked=tuple(guideline.name for guideline in checked),
        skipped=skipped,
        cells=_count_cells(artifact, checked),
        violations=tuple(violations),
    )


def check_guidelines(
    artifact,
    *,
    guidelines: Sequence[Guideline] | None = None,
    slack: float = DEFAULT_SLACK,
) -> GuidelineReport:
    """Verify and *refuse*: raises on any violation.

    The strict packaging gate: :func:`repro.service.artifact.
    build_artifact(strict=True)` and ``artifact verify --guidelines
    --strict`` route through here.
    """
    report = verify_guidelines(artifact, guidelines=guidelines, slack=slack)
    if not report.ok():
        worst = report.violations[0]
        raise GuidelineViolationError(
            f"guideline verification refused {artifact.artifact_id}: "
            f"{len(report.violations)} violation(s), worst "
            f"{worst.describe()}",
            report=report,
        )
    return report
