"""Estimation of analytical-model parameters (paper §4).

Two estimation procedures make up the paper's second contribution:

* :mod:`repro.estimation.gamma` — measures ``γ(P)``, the slowdown of the
  non-blocking linear-tree broadcast relative to a point-to-point message,
  from collective communication experiments (§4.1);
* :mod:`repro.estimation.alphabeta` — measures per-algorithm Hockney
  parameters ``α, β`` from experiments that *contain the modelled
  algorithm* (broadcast under test + linear gather, timed on the root),
  solved by Huber regression over the canonical linear system of the
  paper's Fig. 4 (§4.2).  One estimator serves every collective; its
  :data:`~repro.estimation.alphabeta.OPERATION_PROFILES` table says which
  experiment contains each collective's algorithms.

Supporting machinery: :mod:`repro.estimation.statistics` (confidence-
interval driven adaptive repetition, following MPIBlib),
:mod:`repro.estimation.regression` (OLS and Huber IRLS),
:mod:`repro.estimation.p2p` (classical point-to-point estimation used by the
traditional models and the ablation), and :mod:`repro.estimation.workflow`
(:func:`~repro.estimation.workflow.calibrate_platform`, the one
calibration call for every collective: a new collective needs only its
``OPERATION_PROFILES`` row).
"""

from repro.estimation.alphabeta import (
    OPERATION_PROFILES,
    AlphaBeta,
    FitQuality,
    OperationProfile,
    estimate_alpha_beta,
)
from repro.estimation.gamma import estimate_gamma
from repro.estimation.p2p import estimate_hockney_p2p
from repro.estimation.regression import huber_fit, mad_screen, ols_fit
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.estimation.workflow import (
    PlatformModel,
    QualityThresholds,
    calibrate_platform,
)

__all__ = [
    "OPERATION_PROFILES",
    "AlphaBeta",
    "FitQuality",
    "OperationProfile",
    "PlatformModel",
    "QualityThresholds",
    "SampleStats",
    "adaptive_measure",
    "calibrate_platform",
    "estimate_alpha_beta",
    "estimate_gamma",
    "estimate_hockney_p2p",
    "huber_fit",
    "mad_screen",
    "ols_fit",
]
