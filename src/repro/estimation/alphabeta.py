"""Per-algorithm estimation of the Hockney parameters (paper §4.2).

This is the paper's second contribution: instead of measuring α and β once
with ping-pongs, they are estimated *separately for each collective
algorithm*, from communication experiments that contain the algorithm
itself, so the fitted parameters capture the context the point-to-point
transfers actually run in (pipelining, concurrent injection, protocol
effects).

The experiment (Eq. 7): a broadcast of ``m`` bytes with the algorithm under
test, immediately followed by a linear-without-synchronisation gather of
``m_g`` bytes per rank — so the experiment starts *and finishes* on the
root, whose clock times it.  With the algorithm's model supplying its
coefficients ``(c_α, c_β)`` and the gather contributing
``(P-1, (P-1)·m_g)`` (Eq. 8), each message size yields one linear equation

    (c_α + P - 1)·α + (c_β + (P-1)·m_g)·β = T.

Dividing by the α-coefficient puts the system in the canonical form of the
paper's Fig. 4, ``α + β·x_i = y_i``, which the Huber regressor solves.

The method is collective-agnostic, so one estimator serves every
collective; :data:`OPERATION_PROFILES` holds what differs between them:

* **reduce** runs the dual composite experiment, the reduce under test
  followed by a linear scatter of ``m_g`` bytes per rank from the root,
  which contributes the same ``(P-1, (P-1)·m_g)`` row the gather does;
* **gather, allreduce, allgather, alltoall and scatter** need no
  composite: each model's ``c_α`` is constant in ``m`` while ``c_β``
  grows with it, so the size sweep alone spreads the canonical ``x_i``.
  Gather is timed on the root, where it finishes; the others globally,
  since the root's clock would miss the last rank;
* **barrier** carries no payload, so every equation has ``c_β = 0`` and
  only α is identifiable.  The barrier is run at several communicator
  sizes (the x-axis that varies is ``P``, not ``m``) and α comes from the
  least-squares line through the origin, ``α = Σ c_i·T_i / Σ c_i²``, the
  maximum-likelihood estimate under i.i.d. noise for ``T_i = c_i·α``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.collectives.bcast import PAPER_BCAST_ALGORITHMS
from repro.collectives.reduce import DEFAULT_REDUCE_ALGORITHMS
from repro.errors import EstimationError
from repro.estimation.gamma import DEFAULT_SEGMENT_SIZE
from repro.estimation.regression import FitResult, get_regressor, mad_screen
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.exec.job import SimJob
from repro.exec.runner import ParallelRunner, default_runner
from repro.models.allgather_models import DERIVED_ALLGATHER_MODELS
from repro.models.allreduce_models import DERIVED_ALLREDUCE_MODELS
from repro.models.alltoall_models import DERIVED_ALLTOALL_MODELS
from repro.models.barrier_models import DERIVED_BARRIER_MODELS
from repro.models.base import BcastModel
from repro.models.derived import DERIVED_BCAST_MODELS
from repro.models.gather_models import (
    DERIVED_GATHER_MODELS,
    linear_gather_coefficients,
)
from repro.models.hockney import HockneyParams
from repro.models.reduce_models import DERIVED_REDUCE_MODELS
from repro.models.scatter_models import DERIVED_SCATTER_MODELS
from repro.units import KiB, MiB, log_spaced_sizes

#: The paper's broadcast size sweep: ten log-spaced sizes, 8 KB to 4 MB.
DEFAULT_SIZES = tuple(log_spaced_sizes(8 * KiB, 4 * MiB, 10))

#: Seed strides between the points of a sweep over message sizes and of
#: the barrier's sweep over communicator sizes.
SIZE_SEED_STRIDE = 104_729
PROCS_SEED_STRIDE = 53_777

#: Seed stride separating retry attempts of a non-converged measurement
#: from each other and from the primary repetition stream.
RETRY_SEED_STRIDE = 15_485_863


def default_gather_bytes(nbytes: int) -> int:
    """The default ``m_g`` schedule: grows with the broadcast size.

    The paper varies ``m_g`` across the experiments (``m_g ∈ {m_g1..m_gM}``,
    with ``m_g ≠ m_s``) — and it must: for segmented algorithms the
    per-segment size is constant, so with a *fixed* gather size every
    canonical equation would have (nearly) the same ``x_i`` and the system
    of Fig. 4 would be singular.  A gather size proportional to ``m``
    spreads the ``x_i`` while staying small enough that the broadcast under
    test still dominates the experiment.
    """
    return max(1 * KiB, nbytes // 64)


#: Default gather schedule (see :func:`default_gather_bytes`).
DEFAULT_GATHER_BYTES = default_gather_bytes


@dataclass(frozen=True)
class OperationProfile:
    """What one collective's in-context experiment is.

    Every field is data the calibration reads; the schedule of simulation
    jobs a calibration requests is a function of the profile, the knobs and
    the seed, so the seed strides are part of the artifact content hashes.
    """

    operation: str
    #: :class:`~repro.exec.job.SimJob` kind of the experiment.
    kind: str
    #: Timing policy of the experiment runs.
    policy: str
    #: Model family name registered in ``MODEL_FAMILIES``.
    model_family: str
    #: The family's model classes, keyed by algorithm name.
    models: dict[str, type[BcastModel]]
    #: Algorithms calibrated when the caller names none.
    default_algorithms: tuple[str, ...]
    #: Per-algorithm seed stride — distinct per operation so combined
    #: builds never alias two operations' repetition streams.
    seed_multiplier: int
    #: Segmented algorithms: the experiment carries the segment size and
    #: appends a linear gather/scatter of ``m_g`` bytes per rank, whose
    #: varying size spreads the canonical ``x_i``.
    segmented: bool = False
    #: Whether the models use a measured γ(P) (otherwise the ideal one).
    measures_gamma: bool = False
    #: Payload-free operation: the sweep varies ``P``, α is fitted through
    #: the origin with β = 0, and decision tables have one size column.
    size_independent: bool = False

    @property
    def point_seed_stride(self) -> int:
        """Seed stride between the points of one algorithm's sweep."""
        return PROCS_SEED_STRIDE if self.size_independent else SIZE_SEED_STRIDE

    @property
    def extra_params(self) -> frozenset[str]:
        """Model constants (``model_params`` keys) the family understands."""
        return frozenset(
            key for model in self.models.values() for key in model.extra_params
        )


#: One profile per calibrated collective.
OPERATION_PROFILES: dict[str, OperationProfile] = {
    profile.operation: profile
    for profile in (
        OperationProfile(
            operation="bcast",
            kind="bcast_then_gather",
            policy="global",
            model_family="derived",
            models=DERIVED_BCAST_MODELS,
            # Extension models (e.g. scatter_allgather, hierarchical) are
            # opt-in via an explicit list.
            default_algorithms=PAPER_BCAST_ALGORITHMS,
            seed_multiplier=2_000_017,
            segmented=True,
            measures_gamma=True,
        ),
        OperationProfile(
            operation="reduce",
            kind="reduce_then_scatter",
            policy="global",
            model_family="reduce_derived",
            models=DERIVED_REDUCE_MODELS,
            # The topology-aware hierarchical variant is opt-in, keeping
            # pre-fabric builds identical.
            default_algorithms=DEFAULT_REDUCE_ALGORITHMS,
            seed_multiplier=3_000_017,
            segmented=True,
            measures_gamma=True,
        ),
        OperationProfile(
            operation="gather",
            kind="gather",
            policy="root",
            model_family="gather_derived",
            models=DERIVED_GATHER_MODELS,
            default_algorithms=tuple(DERIVED_GATHER_MODELS),
            seed_multiplier=5_000_011,
        ),
        OperationProfile(
            operation="barrier",
            kind="barrier",
            policy="global",
            model_family="barrier_derived",
            models=DERIVED_BARRIER_MODELS,
            default_algorithms=tuple(DERIVED_BARRIER_MODELS),
            seed_multiplier=7_103,
            size_independent=True,
        ),
        OperationProfile(
            operation="allreduce",
            kind="allreduce",
            policy="global",
            model_family="allreduce_derived",
            models=DERIVED_ALLREDUCE_MODELS,
            default_algorithms=tuple(DERIVED_ALLREDUCE_MODELS),
            seed_multiplier=7_000_003,
        ),
        OperationProfile(
            operation="allgather",
            kind="allgather",
            policy="global",
            model_family="allgather_derived",
            models=DERIVED_ALLGATHER_MODELS,
            default_algorithms=tuple(DERIVED_ALLGATHER_MODELS),
            seed_multiplier=7_200_017,
        ),
        OperationProfile(
            operation="alltoall",
            kind="alltoall",
            policy="global",
            model_family="alltoall_derived",
            models=DERIVED_ALLTOALL_MODELS,
            default_algorithms=tuple(DERIVED_ALLTOALL_MODELS),
            seed_multiplier=7_400_011,
        ),
        OperationProfile(
            operation="scatter",
            kind="scatter",
            policy="global",
            model_family="scatter_derived",
            models=DERIVED_SCATTER_MODELS,
            default_algorithms=tuple(DERIVED_SCATTER_MODELS),
            seed_multiplier=7_600_003,
        ),
    )
}


def get_profile(operation: str) -> OperationProfile:
    """The profile of ``operation``; :class:`EstimationError` if none."""
    try:
        return OPERATION_PROFILES[operation]
    except KeyError:
        raise EstimationError(
            f"no calibration profile for {operation!r}; "
            f"known: {', '.join(sorted(OPERATION_PROFILES))}"
        ) from None


def sweep_points(
    spec: ClusterSpec,
    profile: OperationProfile,
    *,
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """The validated ``(P, m)`` points of one algorithm's sweep.

    Size sweeps run at ``procs`` (default: half the cluster, the paper's
    choice — "the use of larger numbers of nodes in the experiments will
    not change the estimation"); the barrier sweeps ``proc_counts``
    (default: an eighth, a third and half of the cluster) at ``m = 0``.
    """
    if profile.size_independent:
        if proc_counts is None:
            top = spec.max_procs
            proc_counts = sorted(
                {max(2, top // 8), max(2, top // 3), max(2, top // 2)}
            )
        if len(proc_counts) < 1:
            raise EstimationError("need at least one communicator size")
        points = [(count, 0) for count in proc_counts]
    else:
        if procs is None:
            procs = max(2, spec.max_procs // 2)
        if len(sizes) < 2:
            raise EstimationError(
                "need at least two message sizes to fit a line"
            )
        points = [(procs, nbytes) for nbytes in sizes]
    for count, _nbytes in points:
        if not 2 <= count <= spec.max_procs:
            raise EstimationError(
                f"{spec.name}: procs={count} outside 2..{spec.max_procs}"
            )
    return points


def _composite(
    profile: OperationProfile,
    segment_size: int,
    gather_bytes: int | Callable[[int], int],
) -> tuple[int, Callable[[int], int]]:
    """The segment size and ``m_g`` schedule of ``profile``'s experiment
    (both zero for the unsegmented, direct experiments)."""
    if not profile.segmented:
        return 0, lambda _m: 0
    if callable(gather_bytes):
        return segment_size, gather_bytes
    return segment_size, lambda _m: gather_bytes


def _experiment(
    spec: ClusterSpec,
    profile: OperationProfile,
    algorithm: str,
    procs: int,
    nbytes: int,
    segment_size: int,
    gather_bytes: int,
    seed: int,
) -> SimJob:
    """The simulation job behind one repetition of one sweep point."""
    return SimJob(
        spec=spec,
        kind=profile.kind,
        procs=procs,
        algorithm=algorithm,
        nbytes=nbytes,
        segment_size=segment_size,
        gather_bytes=gather_bytes,
        seed=seed,
        policy=profile.policy,
    )


def alphabeta_prefetch_jobs(
    spec: ClusterSpec,
    algorithm: str,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    gather_bytes: int | Callable[[int], int] = DEFAULT_GATHER_BYTES,
    seed: int = 0,
    reps: int = 2,
) -> list[SimJob]:
    """The first ``reps`` repetitions of one algorithm's α/β sweep, as jobs.

    Enumerates exactly the seeds :func:`estimate_alpha_beta`'s adaptive
    loop will request, so prefetching these makes the loop replay from the
    runner's memo.
    """
    profile = get_profile(operation)
    points = sweep_points(
        spec, profile, procs=procs, sizes=sizes, proc_counts=proc_counts
    )
    segment_size, gather_of = _composite(profile, segment_size, gather_bytes)
    return [
        _experiment(
            spec, profile, algorithm, count, nbytes, segment_size,
            gather_of(nbytes),
            seed + profile.point_seed_stride * (index + 1) + 7919 * rep,
        )
        for index, (count, nbytes) in enumerate(points)
        for rep in range(reps)
    ]


@dataclass(frozen=True)
class FitQuality:
    """Per-fit quality diagnostics: how trustworthy are these α/β?

    Recorded by :func:`estimate_alpha_beta` for every fit (the knobs that
    *change* the fit — screening, retries — stay opt-in, but diagnosing it
    is free), surfaced through :class:`CalibrationResult` and the strict
    artifact build's quality gate.
    """

    #: Canonical points available / dropped by MAD screening / fitted.
    points: int
    screened: int
    fitted: int
    #: Largest |residual| of the final fit over the fitted points.
    max_abs_residual: float
    #: ``max_abs_residual`` relative to the mean |y| of the fitted points —
    #: the scale-free "is this line actually describing the data" number.
    relative_residual: float
    #: Measurements whose CI met the precision target / total measurements.
    converged: int
    #: Measurements that were re-run under the retry budget.
    retried: int
    #: Mean CI half-width over mean, across all measurements.
    mean_relative_precision: float

    @property
    def converged_fraction(self) -> float:
        return self.converged / self.points if self.points else 1.0

    def ok(
        self,
        max_relative_residual: float = 0.5,
        min_converged_fraction: float = 0.5,
    ) -> bool:
        """Whether this fit passes the (strict-build) quality gate."""
        return (
            self.relative_residual <= max_relative_residual
            and self.converged_fraction >= min_converged_fraction
        )

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "screened": self.screened,
            "fitted": self.fitted,
            "max_abs_residual": self.max_abs_residual,
            "relative_residual": self.relative_residual,
            "converged": self.converged,
            "retried": self.retried,
            "mean_relative_precision": self.mean_relative_precision,
        }


@dataclass(frozen=True)
class AlphaBeta:
    """Fitted per-algorithm Hockney parameters plus fit diagnostics."""

    algorithm: str
    params: HockneyParams
    #: For the barrier, the line ``T = α·c`` through the origin (its
    #: ``slope`` is α) fitted to the ``(c_i, T_i)`` points.
    fit: FitResult
    #: The (x_i, y_i) canonical points the line was fitted to.
    points: tuple[tuple[float, float], ...]
    #: Message sizes of the experiments, in order.
    sizes: tuple[int, ...]
    #: Statistics of each experiment's time measurement.
    stats: tuple[SampleStats, ...]
    #: Quality diagnostics of the fit (None for legacy constructions).
    quality: FitQuality | None = None

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.params.beta


def _fit_through_origin(xs: list[float], ys: list[float]) -> FitResult:
    """Least-squares line ``y = slope·x`` (the barrier's α fit)."""
    numerator = 0.0
    denominator = 0.0
    for x, y in zip(xs, ys):
        numerator += x * y
        denominator += x * x
    slope = numerator / denominator
    return FitResult(
        intercept=0.0,
        slope=slope,
        residuals=tuple(y - x * slope for x, y in zip(xs, ys)),
        iterations=0,
    )


def estimate_alpha_beta(
    spec: ClusterSpec,
    model: BcastModel,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    gather_bytes: int | Callable[[int], int] = DEFAULT_GATHER_BYTES,
    regressor: str = "huber",
    precision: float = 0.025,
    max_reps: int = 30,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    prefetch: bool = True,
    screen_mad: float | None = None,
    retry_budget: int = 0,
) -> AlphaBeta:
    """Fit α and β for ``model.algorithm`` of ``operation`` on ``spec``.

    The sweep is described by :func:`sweep_points`.  ``gather_bytes`` (the
    ``m_g`` of the composite bcast and reduce experiments) may be a
    constant or a function of ``m`` (the paper varies ``m_g`` with the
    experiment).  Simulations run through ``runner`` (default: the
    process-wide runner); ``prefetch=False`` skips the warm-up batch when
    the caller has already prefetched a larger one.

    Robustness knobs (both default *off* so the vanilla estimate is
    bit-identical to earlier releases): ``screen_mad`` enables MAD-based
    outlier screening of the canonical points before the fit (see
    :func:`~repro.estimation.regression.mad_screen`), and ``retry_budget``
    re-runs each measurement whose CI misses the precision target up to
    that many times with fresh seeds, keeping the tightest sample.  Quality
    diagnostics are recorded in ``AlphaBeta.quality`` either way.  The
    barrier's one-parameter fit takes no regressor and no screening.
    """
    profile = get_profile(operation)
    points = sweep_points(
        spec, profile, procs=procs, sizes=sizes, proc_counts=proc_counts
    )
    fit_fn = None if profile.size_independent else get_regressor(regressor)
    runner = runner if runner is not None else default_runner()
    if prefetch:
        runner.prefetch(
            alphabeta_prefetch_jobs(
                spec,
                model.algorithm,
                operation=operation,
                procs=procs,
                sizes=sizes,
                proc_counts=proc_counts,
                segment_size=segment_size,
                gather_bytes=gather_bytes,
                seed=seed,
            )
        )

    segment_size, gather_of = _composite(profile, segment_size, gather_bytes)
    memo_before = runner.stats.memo_hits
    sims_before = runner.stats.simulations
    with obs.span(
        "estimate.alphabeta",
        operation=operation,
        algorithm=model.algorithm,
        cluster=spec.name,
        procs=max(count for count, _nbytes in points),
        sizes=len(points),
    ) as ab_span:
        xs: list[float] = []
        ys: list[float] = []
        stats: list[SampleStats] = []
        retried = 0
        for index, (count, nbytes) in enumerate(points):
            m_g = gather_of(nbytes)
            coeffs = model.coefficients(count, nbytes, segment_size)
            if profile.segmented:
                coeffs = coeffs + linear_gather_coefficients(count, m_g)
            if coeffs.c_alpha <= 0:
                raise EstimationError(
                    f"{model.algorithm}: degenerate experiment at "
                    f"P={count}, m={nbytes}"
                )

            def measure_once(
                rep_seed: int, count: int = count, nbytes: int = nbytes,
                m_g: int = m_g,
            ) -> float:
                return runner.run_one(
                    _experiment(
                        spec, profile, model.algorithm, count, nbytes,
                        segment_size, m_g, rep_seed,
                    )
                )

            base_seed = seed + profile.point_seed_stride * (index + 1)
            sample = adaptive_measure(
                measure_once,
                precision=precision,
                max_reps=max_reps,
                seed=base_seed,
            )
            attempt = 0
            while not sample.converged and attempt < retry_budget:
                # A fresh seed gives an independent noise realisation; keep
                # whichever sample pinned the mean down tighter.
                attempt += 1
                retried += 1
                candidate = adaptive_measure(
                    measure_once,
                    precision=precision,
                    max_reps=max_reps,
                    seed=base_seed + RETRY_SEED_STRIDE * attempt,
                )
                if candidate.relative_precision < sample.relative_precision:
                    sample = candidate
            stats.append(sample)
            if profile.size_independent:
                xs.append(coeffs.c_alpha)
                ys.append(sample.mean)
            else:
                xs.append(coeffs.c_beta / coeffs.c_alpha)
                ys.append(sample.mean / coeffs.c_alpha)

        if profile.size_independent:
            kept = list(range(len(xs)))
            fit = _fit_through_origin(xs, ys)
            params = HockneyParams(alpha=fit.slope, beta=0.0)
        else:
            if screen_mad is not None and len(xs) > 2:
                kept = mad_screen(xs, ys, threshold=screen_mad)
            else:
                kept = list(range(len(xs)))
            fit = fit_fn([xs[i] for i in kept], [ys[i] for i in kept])
            params = HockneyParams(
                alpha=max(fit.intercept, 0.0), beta=max(fit.slope, 0.0)
            )
        mean_abs_y = sum(abs(ys[i]) for i in kept) / len(kept)
        quality = FitQuality(
            points=len(xs),
            screened=len(xs) - len(kept),
            fitted=len(kept),
            # float() casts: residuals are numpy scalars, and quality dicts
            # must serialise to JSON (artifact documents, CLI output).
            max_abs_residual=float(fit.max_abs_residual),
            relative_residual=float(
                fit.max_abs_residual / mean_abs_y if mean_abs_y > 0 else 0.0
            ),
            converged=sum(1 for s in stats if s.converged),
            retried=retried,
            mean_relative_precision=float(
                sum(s.relative_precision for s in stats) / len(stats)
            ),
        )
        # Aggregate measurement traffic: single-job memo hits bypass
        # exec.run spans (runner fast path), so the counts live here.
        ab_span.set_attrs(
            memo_hits=runner.stats.memo_hits - memo_before,
            simulations=runner.stats.simulations - sims_before,
            retried=retried,
        )
        return AlphaBeta(
            algorithm=model.algorithm,
            params=params,
            fit=fit,
            points=tuple(zip(xs, ys)),
            sizes=tuple(nbytes for _count, nbytes in points),
            stats=tuple(stats),
            quality=quality,
        )
