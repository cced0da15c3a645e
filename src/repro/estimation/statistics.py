"""Confidence-interval driven measurement, following the paper's methodology.

Paper §5.1: *"the sample mean is used, which is calculated by executing the
application repeatedly until the sample mean lies in the 95% confidence
interval and a precision of 0.025 (2.5%) has been achieved.  We also check
that the individual observations are independent and their population
follows the normal distribution.  For this purpose, MPIBlib is used."*

:func:`adaptive_measure` reproduces that loop for any measurement callable:
repetitions are added until the Student-t confidence-interval half-width
drops below ``precision × mean`` (or a repetition cap is hit), and a
Shapiro-Wilk normality p-value is attached when enough samples exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import EstimationError

#: Minimum sample count before a Shapiro-Wilk test is attempted.
_NORMALITY_MIN_SAMPLES = 8


@dataclass(frozen=True)
class SampleStats:
    """Summary of one adaptive measurement."""

    #: Sample mean of the measured quantity (seconds).
    mean: float
    #: Sample standard deviation (ddof=1); 0 for deterministic runs.
    std: float
    #: Half-width of the confidence interval around the mean.
    ci_halfwidth: float
    #: Confidence level the interval was computed at.
    confidence: float
    #: The raw samples, in measurement order.
    samples: tuple[float, ...]
    #: Whether the precision target was met before the repetition cap.
    converged: bool
    #: Shapiro-Wilk p-value (None when too few samples or zero variance).
    normality_p: float | None

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def relative_precision(self) -> float:
        """CI half-width as a fraction of the mean (the paper's 2.5% target)."""
        if self.mean == 0:
            return 0.0 if self.ci_halfwidth == 0 else math.inf
        return self.ci_halfwidth / abs(self.mean)


def _confidence_halfwidth(samples: list[float], confidence: float) -> float:
    n = len(samples)
    if n < 2:
        return math.inf
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    if variance == 0.0:
        return 0.0
    # Imported here: only varying samples need it, and it costs ~1 CPU-s.
    from scipy import stats as scipy_stats

    t_critical = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return t_critical * math.sqrt(variance / n)


def adaptive_measure(
    measure_once: Callable[[int], float],
    *,
    precision: float = 0.025,
    confidence: float = 0.95,
    min_reps: int = 3,
    max_reps: int = 30,
    seed: int = 0,
) -> SampleStats:
    """Repeat ``measure_once(seed_i)`` until the CI meets the precision target.

    ``measure_once`` receives a distinct derived seed per repetition so that
    stochastic simulations yield independent samples; deterministic
    simulations converge immediately (zero variance).
    """
    if not 0 < precision:
        raise EstimationError(f"precision must be positive, got {precision}")
    if not 0 < confidence < 1:
        raise EstimationError(f"confidence must be in (0,1), got {confidence}")
    if not 2 <= min_reps <= max_reps:
        raise EstimationError(
            f"need 2 <= min_reps <= max_reps, got {min_reps}, {max_reps}"
        )

    samples: list[float] = []
    converged = False
    while len(samples) < max_reps:
        sample = measure_once(seed + 7919 * len(samples))
        if not math.isfinite(sample) or sample < 0:
            raise EstimationError(f"measurement returned invalid time {sample}")
        samples.append(sample)
        if len(samples) >= 2 and all(s == samples[0] for s in samples):
            # Deterministic simulation (zero noise): further repetitions are
            # bit-identical, so the CI criterion is met trivially.
            converged = True
            break
        if len(samples) < min_reps:
            continue
        mean = sum(samples) / len(samples)
        halfwidth = _confidence_halfwidth(samples, confidence)
        if mean == 0.0 or halfwidth <= precision * abs(mean):
            converged = True
            break

    mean = sum(samples) / len(samples)
    if len(samples) > 1:
        variance = sum((x - mean) ** 2 for x in samples) / (len(samples) - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    halfwidth = _confidence_halfwidth(samples, confidence)
    if math.isinf(halfwidth):
        halfwidth = 0.0

    normality_p: float | None = None
    if len(samples) >= _NORMALITY_MIN_SAMPLES and std > 0:
        # Imported here: only varying samples need it, and it costs ~1 CPU-s.
        from scipy import stats as scipy_stats

        normality_p = float(scipy_stats.shapiro(samples).pvalue)

    return SampleStats(
        mean=mean,
        std=std,
        ci_halfwidth=halfwidth,
        confidence=confidence,
        samples=tuple(samples),
        converged=converged,
        normality_p=normality_p,
    )
