"""Self-tuning: guideline verification, drift detection, recalibration.

The robustness loop around the paper's model-based selection (see
docs/ROBUSTNESS.md, "Self-tuning loop"):

* :mod:`repro.tuning.guidelines` — Hunold-style performance-guideline
  invariants verified against every packaged artifact;
* :mod:`repro.tuning.drift` — online sampling of served decisions and a
  windowed CUSUM over their measured regret;
* :mod:`repro.tuning.recalibrate` — incremental, cache-warm rebuild of
  only the affected collectives;
* :mod:`repro.tuning.diff` — per-cell decision diffs between artifact
  versions;
* :mod:`repro.tuning.tuner` — the :class:`SelfTuner` closing the loop
  against a live selection service.
"""

from repro.tuning.diff import (
    ArtifactDiff,
    CellDelta,
    diff_artifacts,
    format_diff,
)
from repro.tuning.drift import (
    DriftConfig,
    DriftDetector,
    QuerySampler,
    SampledQuery,
)
from repro.tuning.guidelines import (
    DEFAULT_SLACK,
    Guideline,
    GuidelineReport,
    GuidelineViolation,
    check_guidelines,
    default_guidelines,
    verify_guidelines,
)
from repro.tuning.recalibrate import rebuild_artifact
from repro.tuning.tuner import SelfTuner

__all__ = [
    "ArtifactDiff",
    "CellDelta",
    "DEFAULT_SLACK",
    "DriftConfig",
    "DriftDetector",
    "Guideline",
    "GuidelineReport",
    "GuidelineViolation",
    "QuerySampler",
    "SampledQuery",
    "SelfTuner",
    "check_guidelines",
    "default_guidelines",
    "diff_artifacts",
    "format_diff",
    "rebuild_artifact",
    "verify_guidelines",
]
